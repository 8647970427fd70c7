#include "src/baselines/hybrid_dp.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/check.h"
#include "src/core/attention_engine.h"
#include "src/model/memory.h"

namespace zeppelin {

HybridDpStrategy::HybridDpStrategy(HybridDpOptions options) : options_(options) {}

int HybridDpStrategy::num_micro_batches() const {
  int total = 0;
  for (const auto& rank_mbs : micro_batches_) {
    total += static_cast<int>(rank_mbs.size());
  }
  return total;
}

void HybridDpStrategy::Plan(const Batch& batch, const CostModel& cost_model,
                            const FabricResources& fabric) {
  cost_model_ = &cost_model;
  fabric_ = &fabric;
  const ClusterSpec& spec = fabric.cluster();
  const int world = spec.world_size();
  const int p = spec.gpus_per_node;

  // Same memory-headroom capacity rule as Zeppelin's partitioner.
  const int64_t capacity =
      options_.token_capacity != 0
          ? options_.token_capacity
          : HeadroomCapacity(batch.total_tokens(), world,
                             TokenCapacity(cost_model.model(), spec, world));

  auto seq_flops = [&](int64_t len) {
    return cost_model.CausalAttentionFlops(len) +
           cost_model.LinearFlopsPerToken() * static_cast<double>(len);
  };

  double total_flops = 0;
  for (int64_t len : batch.seq_lens) {
    total_flops += seq_flops(len);
  }
  const double budget = total_flops / world;

  std::vector<int> order(batch.seq_lens.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return batch.seq_lens[a] > batch.seq_lens[b]; });

  cp_rings_.clear();
  micro_batches_.assign(world, {});
  tokens_per_rank_.assign(world, 0);
  std::vector<double> rank_flops(world, 0.0);
  std::vector<std::vector<int64_t>> rank_seqs(world);  // DP sequences per rank.

  int cp_cursor = 0;  // Next rank offset for CP group placement.
  for (int id : order) {
    const int64_t len = batch.seq_lens[id];
    const double flops = seq_flops(len);
    if (flops > options_.cp_threshold * budget && world > 1) {
      // Context-parallel group, node-aligned: round the group size up to a
      // multiple of P when it crosses nodes (coarse model-level parallelism).
      int g = static_cast<int>(std::ceil(flops / budget));
      g = std::clamp(g, 2, world);
      if (g > p) {
        g = std::min(world, ((g + p - 1) / p) * p);
        cp_cursor = (cp_cursor + p - 1) / p * p % world;  // Node-align start.
      }
      RingSequence ring;
      ring.seq_id = id;
      ring.length = len;
      for (int i = 0; i < g; ++i) {
        ring.ranks.push_back((cp_cursor + i) % world);
      }
      ring.zone = spec.NodeOf(ring.ranks.front()) == spec.NodeOf(ring.ranks.back())
                      ? Zone::kIntraNode
                      : Zone::kInterNode;
      for (int i = 0; i < g; ++i) {
        const int rank = ring.ranks[i];
        rank_flops[rank] += flops / g;
        tokens_per_rank_[rank] += len * (i + 1) / g - len * i / g;
      }
      cp_cursor = (cp_cursor + g) % world;
      cp_rings_.push_back(std::move(ring));
    } else {
      // Plain DP: whole sequence onto the least-FLOP-loaded rank.
      const int rank = static_cast<int>(
          std::min_element(rank_flops.begin(), rank_flops.end()) - rank_flops.begin());
      rank_flops[rank] += flops;
      tokens_per_rank_[rank] += len;
      rank_seqs[rank].push_back(len);
    }
  }

  // Chunk each rank's DP sequences into micro-batches of <= capacity tokens.
  for (int rank = 0; rank < world; ++rank) {
    std::vector<int64_t> current;
    int64_t current_tokens = 0;
    for (int64_t len : rank_seqs[rank]) {
      // An individual DP sequence longer than capacity is itself chunked
      // (attention context resets per chunk — the accuracy cost the paper
      // attributes to chunking; we only model the performance side).
      int64_t remaining = len;
      while (remaining > 0) {
        const int64_t piece = std::min(remaining, capacity);
        if (current_tokens + piece > capacity && current_tokens > 0) {
          micro_batches_[rank].push_back(std::move(current));
          current = {};
          current_tokens = 0;
        }
        current.push_back(piece);
        current_tokens += piece;
        remaining -= piece;
      }
    }
    if (!current.empty()) {
      micro_batches_[rank].push_back(std::move(current));
    }
  }
}

std::vector<TaskId> HybridDpStrategy::EmitLayer(TaskGraph& graph, Direction direction) {
  ZCHECK(cost_model_ != nullptr) << "Plan() must run before EmitLayer()";
  const ClusterSpec& spec = fabric_->cluster();
  const int world = spec.world_size();
  const double scale = direction == Direction::kBackward ? kBackwardMultiplier : 1.0;
  const TaskLabel tag = graph.Intern(direction == Direction::kForward ? "fwd" : "bwd");

  // CP rings use plain ring attention (no routing layer — that is Zeppelin's
  // contribution).
  const RoutingLayer direct(*fabric_, RoutingOptions{.enabled = false});
  const AttentionEngine engine(*cost_model_, *fabric_, direct, AttentionEngineOptions{});

  RankTaskLists last;
  last.Reset(world);
  for (const auto& ring : cp_rings_) {
    engine.EmitRingSequence(graph, ring, direction, {}, tag.Then(LabelSuffix::kCpRing, ring.seq_id),
                            &last);
  }
  last.Seal();
  // CP ranks run their linear stage on their shard tokens.
  std::vector<TaskId> done(world, kInvalidTask);
  std::vector<int64_t> cp_tokens(world, 0);
  for (const auto& ring : cp_rings_) {
    const int g = ring.group_size();
    for (int i = 0; i < g; ++i) {
      cp_tokens[ring.ranks[i]] += ring.length * (i + 1) / g - ring.length * i / g;
    }
  }

  for (int rank = 0; rank < world; ++rank) {
    // The rank's dependency frontier: its CP ring tails, then one task.
    DepSpan rank_tail = last[rank];
    TaskId tail = kInvalidTask;
    if (cp_tokens[rank] > 0) {
      const TaskId gate = graph.AddBarrier(rank_tail, tag.Then(LabelSuffix::kCpGate, rank));
      tail = graph.AddCompute(fabric_->ComputeLane(rank),
                              cost_model_->LinearTime(cp_tokens[rank]) * scale,
                              TaskCategory::kLinearCompute, {gate},
                              tag.Then(LabelSuffix::kCpLinear, rank), rank);
      rank_tail = DepSpan(&tail, 1);
    }
    // DP micro-batches run serially after the CP share: attention kernel over
    // the micro-batch's packed sequences, then its linear modules.
    for (size_t mb = 0; mb < micro_batches_[rank].size(); ++mb) {
      double attn_flops = 0;
      int64_t mb_tokens = 0;
      for (int64_t len : micro_batches_[rank][mb]) {
        attn_flops += cost_model_->CausalAttentionFlops(len);
        mb_tokens += len;
      }
      const int mb_index = static_cast<int>(mb);
      const TaskId attn = graph.AddCompute(
          fabric_->ComputeLane(rank), cost_model_->ComputeTime(attn_flops * scale),
          TaskCategory::kAttentionCompute, rank_tail,
          tag.Then(LabelSuffix::kDpAttn, mb_index, rank), rank);
      tail = graph.AddCompute(fabric_->ComputeLane(rank),
                              cost_model_->LinearTime(mb_tokens) * scale,
                              TaskCategory::kLinearCompute, {attn},
                              tag.Then(LabelSuffix::kDpLinear, mb_index, rank), rank);
      rank_tail = DepSpan(&tail, 1);
    }
    done[rank] = graph.AddBarrier(rank_tail, tag.Then(LabelSuffix::kDoneRank, rank));
  }
  return done;
}

std::vector<int64_t> HybridDpStrategy::LinearTokensPerRank() const { return tokens_per_rank_; }

}  // namespace zeppelin
