#include "src/baselines/llama_cp.h"

#include "src/common/check.h"
#include "src/core/chunking.h"
#include "src/core/linear_stage.h"

namespace zeppelin {

void LlamaCpStrategy::Plan(const Batch& batch, const CostModel& cost_model,
                           const FabricResources& fabric) {
  cost_model_ = &cost_model;
  fabric_ = &fabric;
  batch_ = batch;
  const int world = fabric.cluster().world_size();

  attention_flops_per_rank_.assign(world, 0.0);
  tokens_per_rank_.assign(world, 0);
  total_kv_bytes_ = batch.total_tokens() * cost_model.KvBytesPerToken();

  // Same causal-balanced chunk ownership as the ring variants; with the full
  // KV local, each rank's work is simply its chunks against all prior keys.
  for (int64_t len : batch.seq_lens) {
    const std::vector<ChunkPair> assignment = BalancedChunkAssignment(len, world);
    for (int k = 0; k < world; ++k) {
      attention_flops_per_rank_[k] += RingTotalFlops(cost_model, assignment, len, k);
      tokens_per_rank_[k] += assignment[k].tokens();
    }
  }
}

TaskId LlamaCpStrategy::EmitAllGather(TaskGraph& graph, double scale, DepSpan deps,
                                      TaskLabel label) const {
  const ClusterSpec& spec = fabric_->cluster();
  const double volume = static_cast<double>(total_kv_bytes_) * scale;
  const int world = spec.world_size();
  const double gathered_fraction = world > 1 ? (world - 1.0) / world : 0.0;
  const auto bytes = static_cast<int64_t>(volume * gathered_fraction);

  std::vector<TaskId> parts;
  std::vector<ResourceId> channels;
  if (spec.num_nodes > 1) {
    // Cross-node bulk all-gather: every node both sends and receives
    // ~(N-1)/N of the volume through all its NICs in parallel.
    const double node_bw = spec.nic_bandwidth * spec.nics_per_node;
    const double duration = volume * gathered_fraction / node_bw + spec.inter_latency_us;
    for (int node = 0; node < spec.num_nodes; ++node) {
      channels.clear();
      for (int nic = 0; nic < spec.nics_per_node; ++nic) {
        channels.push_back(fabric_->NicTx(node, nic));
        channels.push_back(fabric_->NicRx(node, nic));
      }
      parts.push_back(graph.AddTask(duration, TaskCategory::kInterComm, channels, deps, bytes,
                                    spec.GlobalRank(node, 0),
                                    label.Then(LabelSuffix::kAllGatherNode, node)));
    }
  } else {
    // Single node: NVSwitch all-gather, each GPU's ingress receives the rest.
    const double duration =
        volume * gathered_fraction / (spec.nvswitch_bandwidth * spec.gpus_per_node) +
        spec.intra_latency_us;
    for (int g = 0; g < world; ++g) {
      channels.push_back(fabric_->NvswitchEgress(g));
      channels.push_back(fabric_->NvswitchIngress(g));
    }
    parts.push_back(graph.AddTask(duration, TaskCategory::kIntraComm, channels, deps, bytes, 0,
                                  label.Then(LabelSuffix::kAllGather)));
  }
  return graph.AddBarrier(parts, label.Then(LabelSuffix::kAllGatherDone));
}

std::vector<TaskId> LlamaCpStrategy::EmitLayer(TaskGraph& graph, Direction direction) {
  ZCHECK(cost_model_ != nullptr) << "Plan() must run before EmitLayer()";
  const int world = fabric_->cluster().world_size();
  const double scale = direction == Direction::kBackward ? kBackwardMultiplier : 1.0;
  const TaskLabel tag = graph.Intern(direction == Direction::kForward ? "fwd" : "bwd");

  if (direction == Direction::kForward) {
    const TaskId gathered = EmitAllGather(graph, scale, {}, tag);
    std::vector<TaskId> attn(world);
    for (int k = 0; k < world; ++k) {
      attn[k] = graph.AddCompute(fabric_->ComputeLane(k),
                                 cost_model_->ComputeTime(attention_flops_per_rank_[k] * scale),
                                 TaskCategory::kAttentionCompute, {gathered},
                                 tag.Then(LabelSuffix::kAttnRank, k), k);
    }
    return EmitLinearStage(graph, *cost_model_, *fabric_, tokens_per_rank_, direction,
                           RankDeps::OnePerRank(attn), tag);
  }

  // Backward: linear grad, then the KV gradient exchange (all-gather-sized
  // reduce-scatter + the recomputation gather, folded into the 2x scale),
  // then attention backward.
  const std::vector<TaskId> linear =
      EmitLinearStage(graph, *cost_model_, *fabric_, tokens_per_rank_, direction, {}, tag);
  const TaskId gathered = EmitAllGather(
      graph, scale, {graph.AddBarrier(linear, tag.Then(LabelSuffix::kLinearDone))}, tag);
  std::vector<TaskId> attn(world);
  for (int k = 0; k < world; ++k) {
    attn[k] = graph.AddCompute(fabric_->ComputeLane(k),
                               cost_model_->ComputeTime(attention_flops_per_rank_[k] * scale),
                               TaskCategory::kAttentionCompute, {gathered},
                               tag.Then(LabelSuffix::kAttnRank, k), k);
  }
  return attn;
}

std::vector<int64_t> LlamaCpStrategy::LinearTokensPerRank() const { return tokens_per_rank_; }

}  // namespace zeppelin
