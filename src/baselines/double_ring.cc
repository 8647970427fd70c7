#include "src/baselines/double_ring.h"

#include "src/comm/primitives.h"
#include "src/common/check.h"
#include "src/core/chunking.h"

namespace zeppelin {
namespace {

// Successor of `rank` in the hierarchical rotation at round `t`: inner
// rotation within the node for P-1 rounds, then an outer hop to the same
// local slot of the next node.
int Successor(const ClusterSpec& spec, int rank, int round) {
  const int p = spec.gpus_per_node;
  const bool outer = (round + 1) % p == 0 && spec.num_nodes > 1;
  const int node = spec.NodeOf(rank);
  const int local = spec.LocalOf(rank);
  if (outer) {
    return spec.GlobalRank((node + 1) % spec.num_nodes, local);
  }
  return spec.GlobalRank(node, (local + 1) % p);
}

}  // namespace

void DoubleRingStrategy::Plan(const Batch& batch, const CostModel& cost_model,
                              const FabricResources& fabric) {
  cost_model_ = &cost_model;
  fabric_ = &fabric;
  const ClusterSpec& spec = fabric.cluster();
  const int world = spec.world_size();
  const int64_t kv_bytes = cost_model.KvBytesPerToken();

  round_flops_.assign(world, std::vector<double>(world, 0.0));
  round_bytes_.assign(world, std::vector<int64_t>(world, 0));
  tokens_per_rank_.assign(world, 0);

  // Track which rank's original KV block each rank holds at each round by
  // simulating the rotation (the inverse permutation of Successor).
  std::vector<int> held(world);  // held[rank] = original owner of the block.
  for (int r = 0; r < world; ++r) {
    held[r] = r;
  }
  for (int64_t len : batch.seq_lens) {
    const std::vector<ChunkPair> assignment = BalancedChunkAssignment(len, world);
    std::vector<int> holder = held;  // Reset per sequence (same schedule).
    for (int t = 0; t < world; ++t) {
      for (int rank = 0; rank < world; ++rank) {
        const int owner = holder[rank];
        // Compute this round against the held block; forward it afterwards.
        const ChunkPair& q = assignment[rank];
        const ChunkPair& kv = assignment[owner];
        const int64_t q_ranges[2][2] = {{q.lo_begin, q.lo_end}, {q.hi_begin, q.hi_end}};
        const int64_t kv_ranges[2][2] = {{kv.lo_begin, kv.lo_end}, {kv.hi_begin, kv.hi_end}};
        double flops = 0;
        for (const auto& qr : q_ranges) {
          for (const auto& kr : kv_ranges) {
            flops += cost_model.CausalChunkFlops(qr[0], qr[1], kr[0], kr[1]);
          }
        }
        round_flops_[t][rank] += flops;
        if (t < world - 1) {
          round_bytes_[t][rank] += assignment[owner].tokens() * kv_bytes;
        }
      }
      // Rotate: every rank's block moves to its successor.
      std::vector<int> next(world);
      for (int rank = 0; rank < world; ++rank) {
        next[Successor(spec, rank, t)] = holder[rank];
      }
      holder = next;
    }
    for (int rank = 0; rank < world; ++rank) {
      tokens_per_rank_[rank] += assignment[rank].tokens();
    }
  }
}

std::vector<TaskId> DoubleRingStrategy::EmitLayer(TaskGraph& graph, Direction direction) {
  ZCHECK(cost_model_ != nullptr) << "Plan() must run before EmitLayer()";
  const ClusterSpec& spec = fabric_->cluster();
  const int world = spec.world_size();
  const double scale = direction == Direction::kBackward ? kBackwardMultiplier : 1.0;
  const TaskLabel tag = graph.Intern(direction == Direction::kForward ? "fwd" : "bwd");

  std::vector<TaskId> recv(world, kInvalidTask);
  std::vector<TaskId> next_recv(world, kInvalidTask);
  std::vector<TaskId> last_compute(world, kInvalidTask);
  std::vector<TaskId> linear_first(world, kInvalidTask);

  auto emit_attention = [&](const std::vector<TaskId>& gate) {
    // Round t's tasks on `rank` wait on its gate (if any) in round 0, and on
    // the KV block that arrived in the previous round after that.
    auto round_deps = [&](int t, int rank) {
      if (t > 0) {
        return DepSpan(&recv[rank], 1);
      }
      return gate[rank] != kInvalidTask ? DepSpan(&gate[rank], 1) : DepSpan();
    };
    for (int t = 0; t < world; ++t) {
      next_recv.assign(world, kInvalidTask);
      if (t < world - 1) {
        for (int rank = 0; rank < world; ++rank) {
          const int next = Successor(spec, rank, t);
          const int64_t bytes =
              static_cast<int64_t>(static_cast<double>(round_bytes_[t][rank]) * scale);
          next_recv[next] = AddP2PAuto(graph, *fabric_, rank, next, bytes, round_deps(t, rank),
                                       tag.Then(LabelSuffix::kDoubleRingKv, t, rank));
        }
      }
      for (int rank = 0; rank < world; ++rank) {
        last_compute[rank] = graph.AddCompute(
            fabric_->ComputeLane(rank),
            cost_model_->ComputeTime(round_flops_[t][rank] * scale),
            TaskCategory::kAttentionCompute, round_deps(t, rank),
            tag.Then(LabelSuffix::kDoubleRingAttn, t, rank), rank);
      }
      recv.swap(next_recv);
    }
  };

  if (direction == Direction::kForward) {
    emit_attention(std::vector<TaskId>(world, kInvalidTask));
    std::vector<TaskId> done(world);
    for (int rank = 0; rank < world; ++rank) {
      done[rank] = graph.AddCompute(fabric_->ComputeLane(rank),
                                    cost_model_->LinearTime(tokens_per_rank_[rank]) * scale,
                                    TaskCategory::kLinearCompute, {last_compute[rank]},
                                    tag.Then(LabelSuffix::kLinear, rank), rank);
    }
    return done;
  }

  for (int rank = 0; rank < world; ++rank) {
    linear_first[rank] = graph.AddCompute(
        fabric_->ComputeLane(rank), cost_model_->LinearTime(tokens_per_rank_[rank]) * scale,
        TaskCategory::kLinearCompute, {}, tag.Then(LabelSuffix::kLinear, rank), rank);
  }
  emit_attention(linear_first);
  return last_compute;
}

std::vector<int64_t> DoubleRingStrategy::LinearTokensPerRank() const { return tokens_per_rank_; }

}  // namespace zeppelin
