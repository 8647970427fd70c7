#include "src/baselines/packing.h"

#include <algorithm>
#include <numeric>

#include "src/comm/collectives.h"
#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/core/linear_stage.h"
#include "src/data/sampler.h"

namespace zeppelin {

PackingPlanInfo PackSequences(const std::vector<int64_t>& seq_lens, int num_packs,
                              int64_t pack_capacity, const CostModel& cost_model) {
  ZCHECK_GT(num_packs, 0);
  ZCHECK_GT(pack_capacity, 0);

  std::vector<int64_t> pieces;
  for (int64_t len : seq_lens) {
    int64_t remaining = len;
    while (remaining > 0) {
      const int64_t piece = std::min(remaining, pack_capacity);
      pieces.push_back(piece);
      remaining -= piece;
    }
  }
  std::sort(pieces.rbegin(), pieces.rend());

  PackingPlanInfo info;
  info.packs.assign(num_packs, {});
  std::vector<int64_t> loads(num_packs, 0);
  for (int64_t piece : pieces) {
    // First-fit decreasing with least-loaded fallback keeps packs near-equal.
    int target = -1;
    for (int p = 0; p < num_packs; ++p) {
      if (loads[p] + piece <= pack_capacity) {
        target = p;
        break;
      }
    }
    if (target < 0) {
      target = static_cast<int>(std::min_element(loads.begin(), loads.end()) - loads.begin());
    }
    info.packs[target].push_back(piece);
    loads[target] += piece;
  }

  for (const auto& pack : info.packs) {
    const int64_t pack_tokens = std::accumulate(pack.begin(), pack.end(), int64_t{0});
    double useful = 0;
    for (int64_t len : pack) {
      useful += cost_model.CausalAttentionFlops(len);
    }
    info.useful_flops += useful;
    info.redundant_flops += cost_model.CausalAttentionFlops(pack_tokens) - useful;
  }
  return info;
}

int UlyssesGroupSize(int world_size, int num_heads) {
  // Largest group that divides both: gcd.
  int a = world_size;
  int b = num_heads;
  while (b != 0) {
    const int t = a % b;
    a = b;
    b = t;
  }
  return std::max(1, a);
}

void PackingUlyssesStrategy::Plan(const Batch& batch, const CostModel& cost_model,
                                  const FabricResources& fabric) {
  cost_model_ = &cost_model;
  fabric_ = &fabric;
  const int world = fabric.cluster().world_size();
  group_size_ = UlyssesGroupSize(world, cost_model.model().num_heads);
  const int64_t capacity = (batch.total_tokens() + world - 1) / world;
  info_ = PackSequences(batch.seq_lens, world, capacity, cost_model);
  tokens_per_rank_.assign(world, 0);
  for (int r = 0; r < world; ++r) {
    tokens_per_rank_[r] =
        std::accumulate(info_.packs[r].begin(), info_.packs[r].end(), int64_t{0});
  }
}

std::vector<TaskId> PackingUlyssesStrategy::EmitLayer(TaskGraph& graph, Direction direction) {
  ZCHECK(cost_model_ != nullptr) << "Plan() must run before EmitLayer()";
  const ClusterSpec& spec = fabric_->cluster();
  const int world = spec.world_size();
  const double scale = direction == Direction::kBackward ? kBackwardMultiplier : 1.0;
  const TaskLabel tag = graph.Intern(direction == Direction::kForward ? "fwd" : "bwd");

  // Ulysses runs inside groups of `group_size_` consecutive ranks; the
  // groups are independent data-parallel replicas.
  const int g = group_size_;
  const int64_t qkv_bytes_per_token =
      static_cast<int64_t>(cost_model_->model().hidden_size +
                           2 * cost_model_->model().kv_hidden()) *
      cost_model_->model().dtype_bytes;

  std::vector<TaskId> a2a_out_done(world, kInvalidTask);
  for (int base = 0; base < world; base += g) {
    std::vector<int> ranks(g);
    std::iota(ranks.begin(), ranks.end(), base);

    auto uniform_sends = [&](int64_t bytes_per_token) {
      std::vector<int64_t> sends(g * g, 0);
      for (int i = 0; i < g; ++i) {
        for (int j = 0; j < g; ++j) {
          if (i != j) {
            const double share = static_cast<double>(tokens_per_rank_[base + i]) / g;
            sends[i * g + j] =
                static_cast<int64_t>(share * static_cast<double>(bytes_per_token) * scale);
          }
        }
      }
      return sends;
    };

    // All-to-all #1: switch from sequence- to head-sharding of Q/K/V.
    const CollectiveResult a2a_in =
        AllToAllV(graph, *fabric_, ranks, uniform_sends(qkv_bytes_per_token),
                  TaskCategory::kInterComm, {}, tag.Then(LabelSuffix::kUlyssesIn, base / g));

    // Packed attention with a plain causal mask over each buffer (useful +
    // redundant flops together).
    std::vector<TaskId> attn(g);
    for (int i = 0; i < g; ++i) {
      const int rank = base + i;
      const int64_t pack_tokens = tokens_per_rank_[rank];
      const double flops = cost_model_->CausalAttentionFlops(pack_tokens) * scale;
      attn[i] = graph.AddCompute(fabric_->ComputeLane(rank), cost_model_->ComputeTime(flops),
                                 TaskCategory::kAttentionCompute, {a2a_in.done[i]},
                                 tag.Then(LabelSuffix::kPackedAttn, rank), rank);
    }

    // All-to-all #2: restore sequence sharding of the outputs.
    const CollectiveResult a2a_out =
        AllToAllV(graph, *fabric_, ranks, uniform_sends(cost_model_->HiddenBytesPerToken()),
                  TaskCategory::kInterComm, RankDeps::OnePerRank(attn),
                  tag.Then(LabelSuffix::kUlyssesOut, base / g));
    for (int i = 0; i < g; ++i) {
      a2a_out_done[base + i] = a2a_out.done[i];
    }
  }

  return EmitLinearStage(graph, *cost_model_, *fabric_, tokens_per_rank_, direction,
                         RankDeps::OnePerRank(a2a_out_done), tag);
}

std::vector<int64_t> PackingUlyssesStrategy::LinearTokensPerRank() const {
  return tokens_per_rank_;
}

namespace {

std::vector<AttentionCostBin> MakeStandardBins() {
  const std::vector<int64_t> edges = StandardBinEdges();
  std::vector<AttentionCostBin> bins;
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    bins.push_back({edges[i], edges[i + 1], 0, 0, 0});
  }
  return bins;
}

int BinIndex(const std::vector<AttentionCostBin>& bins, int64_t len) {
  for (size_t i = 0; i < bins.size(); ++i) {
    if (len >= bins[i].lo && len < bins[i].hi) {
      return static_cast<int>(i);
    }
  }
  return static_cast<int>(bins.size()) - 1;
}

void NormalizeBins(std::vector<AttentionCostBin>* bins) {
  double total = 0;
  for (const auto& b : *bins) {
    total += b.computation + b.communication + b.redundant;
  }
  if (total == 0) {
    return;
  }
  for (auto& b : *bins) {
    b.computation /= total;
    b.communication /= total;
    b.redundant /= total;
  }
}

}  // namespace

std::vector<AttentionCostBin> AnalyzePackingCosts(const LengthDistribution& dist,
                                                  const CostModel& cost_model, int world_size,
                                                  int64_t batch_tokens, int num_batches,
                                                  uint64_t seed) {
  std::vector<AttentionCostBin> bins = MakeStandardBins();
  BatchSampler sampler(dist, batch_tokens, seed);
  const double flops_rate = cost_model.cluster().flops_per_us();
  const double b_inter = cost_model.b_inter();
  const int64_t capacity = batch_tokens / world_size;

  for (int bi = 0; bi < num_batches; ++bi) {
    const Batch batch = sampler.NextBatch();
    // Pack per batch, then attribute each pack's costs to its sequences.
    const PackingPlanInfo info =
        PackSequences(batch.seq_lens, world_size, capacity, cost_model);
    for (const auto& pack : info.packs) {
      int64_t before = 0;  // Tokens preceding the sequence inside the pack.
      for (int64_t len : pack) {
        auto& bin = bins[BinIndex(bins, len)];
        bin.computation += cost_model.CausalAttentionFlops(len) / flops_rate;
        // Cross-sequence attention of this sequence against everything packed
        // before it — pure waste under a full causal mask.
        bin.redundant += cost_model.AttentionFlopsRect(len, before) / flops_rate;
        // Ulysses all-to-alls: Q+K+V in, hidden out, (g-1)/g leaves the rank
        // (g = SP group size, capped by the head count).
        const int g = UlyssesGroupSize(world_size, cost_model.model().num_heads);
        const int64_t a2a_bytes =
            (static_cast<int64_t>(cost_model.model().hidden_size) +
             2 * cost_model.model().kv_hidden() + cost_model.model().hidden_size) *
            cost_model.model().dtype_bytes * len;
        bin.communication += static_cast<double>(a2a_bytes) * (g - 1) / g * b_inter;
        before += len;
      }
    }
  }
  NormalizeBins(&bins);
  return bins;
}

std::vector<AttentionCostBin> AnalyzeEvenSplitCosts(const LengthDistribution& dist,
                                                    const CostModel& cost_model, int world_size,
                                                    int64_t batch_tokens, int num_batches,
                                                    uint64_t seed) {
  std::vector<AttentionCostBin> bins = MakeStandardBins();
  BatchSampler sampler(dist, batch_tokens, seed);
  const double flops_rate = cost_model.cluster().flops_per_us();
  const double b_inter = cost_model.b_inter();

  for (int bi = 0; bi < num_batches; ++bi) {
    const Batch batch = sampler.NextBatch();
    for (int64_t len : batch.seq_lens) {
      auto& bin = bins[BinIndex(bins, len)];
      bin.computation += cost_model.CausalAttentionFlops(len) / flops_rate;
      // Ring CP: each of the R ranks forwards its KV shard R-1 times; the
      // sequence's aggregate ring traffic is (R-1)/R * len * kv_bytes per
      // rank, serialized over the rounds at NIC bandwidth.
      const double ring_bytes = static_cast<double>(cost_model.KvBytesPerToken()) *
                                static_cast<double>(len) * (world_size - 1) / world_size;
      bin.communication += ring_bytes * b_inter;
    }
  }
  NormalizeBins(&bins);
  return bins;
}

}  // namespace zeppelin
