// Analytic FLOPs / bytes / time model for transformer training.
//
// This is the quantitative core behind every scheduling decision in the paper:
//  - attention scales quadratically with sequence length,
//  - linear modules scale linearly (token-wise),
//  - distributed-attention communication scales linearly (KV activations),
// so the computation-to-communication ratio of ring attention grows linearly
// with sequence length (Fig. 5). The cost model exposes exactly these curves,
// and the simulator prices every task through it.
#ifndef SRC_MODEL_COST_MODEL_H_
#define SRC_MODEL_COST_MODEL_H_

#include <cstdint>

#include "src/model/transformer.h"
#include "src/topology/cluster.h"

namespace zeppelin {

// Multiplier applied to forward FLOPs/bytes for the backward pass. The paper's
// Fig. 12 observes "both computation and communication roughly double" in
// backward; FlashAttention backward recomputes the forward, giving ~2x.
inline constexpr double kBackwardMultiplier = 2.0;

class CostModel {
 public:
  // `tensor_parallel` > 1 models a TP group as one logical device (pair the
  // cost model with a cluster derived by ApplyTensorParallelism): compute
  // rate is already scaled in the cluster; this class adds the per-layer
  // activation all-reduce overhead TP incurs inside linear modules.
  CostModel(const TransformerConfig& model, const ClusterSpec& cluster, int tensor_parallel = 1);

  const TransformerConfig& model() const { return model_; }
  const ClusterSpec& cluster() const { return cluster_; }

  // --- FLOPs (forward, one layer) -------------------------------------------
  // Attention between q_tokens queries and kv_tokens keys/values with no mask
  // (the full rectangle): QK^T plus PV.
  double AttentionFlopsRect(int64_t q_tokens, int64_t kv_tokens) const;
  // Causal self-attention over a contiguous sequence of `s` tokens (the lower
  // triangle including the diagonal).
  double CausalAttentionFlops(int64_t s) const;
  // Causal attention of a query chunk [q_begin, q_end) against a key chunk
  // [k_begin, k_end) of the same sequence: only pairs with k <= q count.
  double CausalChunkFlops(int64_t q_begin, int64_t q_end, int64_t k_begin, int64_t k_end) const;
  // Token-wise ("linear module") FLOPs per token for one layer: projections +
  // gated MLP (active experts only for MoE).
  double LinearFlopsPerToken() const;

  // --- Activation sizes -------------------------------------------------------
  // Bytes of K+V activations per token (what ring attention ships around).
  int64_t KvBytesPerToken() const;
  // Bytes of one hidden-state activation per token (what remapping ships).
  int64_t HiddenBytesPerToken() const;

  // --- Times (us) -------------------------------------------------------------
  // Compute time for `flops` on one GPU, including one kernel launch.
  double ComputeTime(double flops) const;
  // Attention compute time for the causal self-attention of `s` tokens.
  double CausalAttentionTime(int64_t s) const;
  // Linear-module compute time for `tokens` tokens (one layer).
  double LinearTime(int64_t tokens) const;
  // Point-to-point transfer times for `bytes` (one hop, effective bandwidth).
  double IntraNodeTransferTime(int64_t bytes) const;
  double InterNodeTransferTime(int64_t bytes) const;

  // Inverse bandwidth costs b_intra / b_inter (us per byte) from Table 1.
  double b_intra() const { return 1.0 / cluster_.nvswitch_bandwidth; }
  double b_inter() const { return 1.0 / cluster_.nic_bandwidth; }

  int tensor_parallel() const { return tensor_parallel_; }

 private:
  TransformerConfig model_;
  ClusterSpec cluster_;
  int tensor_parallel_ = 1;
};

}  // namespace zeppelin

#endif  // SRC_MODEL_COST_MODEL_H_
