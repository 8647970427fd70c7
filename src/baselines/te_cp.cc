#include "src/baselines/te_cp.h"

#include "src/comm/primitives.h"
#include "src/common/check.h"
#include "src/core/chunking.h"
#include "src/core/linear_stage.h"

namespace zeppelin {

void TeCpStrategy::Plan(const Batch& batch, const CostModel& cost_model,
                        const FabricResources& fabric) {
  cost_model_ = &cost_model;
  fabric_ = &fabric;
  batch_ = batch;
  routing_.emplace(fabric, options_.routing);
  const int world = fabric.cluster().world_size();
  const int64_t kv_bytes = cost_model.KvBytesPerToken();

  round_flops_.assign(world, std::vector<double>(world, 0.0));
  round_bytes_.assign(world, std::vector<int64_t>(world, 0));
  tokens_per_rank_.assign(world, 0);

  // All sequences share the one global ring; per round each rank runs one
  // fused kernel over every sequence's chunk pair and forwards one fused KV
  // buffer (this is how TE batches variable-length inputs).
  for (int64_t len : batch.seq_lens) {
    const std::vector<ChunkPair> assignment = BalancedChunkAssignment(len, world);
    for (int r = 0; r < world; ++r) {
      for (int k = 0; k < world; ++k) {
        round_flops_[r][k] += RingRoundFlops(cost_model, assignment, len, k, r);
        const int held_owner = ((k - r) % world + world) % world;
        round_bytes_[r][k] += assignment[held_owner].tokens() * kv_bytes;
      }
    }
    for (int k = 0; k < world; ++k) {
      tokens_per_rank_[k] += assignment[k].tokens();
    }
  }
}

std::vector<TaskId> TeCpStrategy::EmitLayer(TaskGraph& graph, Direction direction) {
  ZCHECK(cost_model_ != nullptr) << "Plan() must run before EmitLayer()";
  const int world = fabric_->cluster().world_size();
  const double scale = direction == Direction::kBackward ? kBackwardMultiplier : 1.0;
  const TaskLabel tag = graph.Intern(direction == Direction::kForward ? "fwd" : "bwd");

  std::vector<TaskId> attn_last(world, kInvalidTask);
  std::vector<TaskId> recv(world, kInvalidTask);
  std::vector<TaskId> next_recv(world, kInvalidTask);

  auto emit_attention = [&](RankDeps gate) {
    recv.assign(world, kInvalidTask);
    for (int r = 0; r < world; ++r) {
      next_recv.assign(world, kInvalidTask);
      if (r < world - 1) {
        for (int k = 0; k < world; ++k) {
          const int next = (k + 1) % world;
          const int64_t bytes =
              static_cast<int64_t>(static_cast<double>(round_bytes_[r][k]) * scale);
          next_recv[next] = routing_->EmitTransfer(
              graph, k, next, bytes, r == 0 ? DepSpan(gate[k]) : DepSpan(&recv[k], 1),
              tag.Then(LabelSuffix::kKv, r, k));
        }
      }
      for (int k = 0; k < world; ++k) {
        attn_last[k] = graph.AddCompute(
            fabric_->ComputeLane(k), cost_model_->ComputeTime(round_flops_[r][k] * scale),
            TaskCategory::kAttentionCompute, r == 0 ? DepSpan(gate[k]) : DepSpan(&recv[k], 1),
            tag.Then(LabelSuffix::kAttnRound, r, k), k);
      }
      recv.swap(next_recv);
    }
  };

  if (direction == Direction::kForward) {
    emit_attention({});
    return EmitLinearStage(graph, *cost_model_, *fabric_, tokens_per_rank_, direction,
                           RankDeps::OnePerRank(attn_last), tag);
  }
  const std::vector<TaskId> linear = EmitLinearStage(graph, *cost_model_, *fabric_,
                                                     tokens_per_rank_, direction, {}, tag);
  emit_attention(RankDeps::OnePerRank(linear));
  return attn_last;
}

std::vector<int64_t> TeCpStrategy::LinearTokensPerRank() const { return tokens_per_rank_; }

}  // namespace zeppelin
