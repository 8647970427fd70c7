#include "src/model/cost_model.h"

#include <algorithm>

#include "src/common/check.h"

namespace zeppelin {

CostModel::CostModel(const TransformerConfig& model, const ClusterSpec& cluster,
                     int tensor_parallel)
    : model_(model), cluster_(cluster), tensor_parallel_(tensor_parallel) {
  model_.Validate();
  cluster_.Validate();
  ZCHECK_GE(tensor_parallel_, 1);
}

double CostModel::AttentionFlopsRect(int64_t q_tokens, int64_t kv_tokens) const {
  ZCHECK_GE(q_tokens, 0);
  ZCHECK_GE(kv_tokens, 0);
  // QK^T and PV are each 2*q*kv*(heads*head_dim) multiply-accumulates.
  const double h_eff = static_cast<double>(model_.num_heads) * model_.head_dim();
  return 4.0 * static_cast<double>(q_tokens) * static_cast<double>(kv_tokens) * h_eff;
}

double CostModel::CausalAttentionFlops(int64_t s) const {
  ZCHECK_GE(s, 0);
  // Lower triangle incl. diagonal: s*(s+1)/2 query-key pairs.
  const double pairs = 0.5 * static_cast<double>(s) * static_cast<double>(s + 1);
  const double h_eff = static_cast<double>(model_.num_heads) * model_.head_dim();
  return 4.0 * pairs * h_eff;
}

double CostModel::CausalChunkFlops(int64_t q_begin, int64_t q_end, int64_t k_begin,
                                   int64_t k_end) const {
  ZCHECK_LE(q_begin, q_end);
  ZCHECK_LE(k_begin, k_end);
  // Pairs (q, k) with q in [q_begin, q_end), k in [k_begin, k_end), k <= q,
  // in closed form. For q <= k_end - 1 the admissible count is q - k_begin + 1
  // (a ramp); beyond that it saturates at k_end - k_begin (a plateau).
  double pairs = 0;
  if (q_end > q_begin && k_end > k_begin) {
    const int64_t ramp_lo = std::max(q_begin, k_begin);
    const int64_t ramp_hi = std::min(q_end - 1, k_end - 1);
    if (ramp_hi >= ramp_lo) {
      const double n = static_cast<double>(ramp_hi - ramp_lo + 1);
      const double q_sum = 0.5 * static_cast<double>(ramp_lo + ramp_hi) * n;
      pairs += q_sum - n * static_cast<double>(k_begin - 1);
    }
    const int64_t plateau_lo = std::max(ramp_hi + 1, std::max(q_begin, k_end));
    if (plateau_lo <= q_end - 1) {
      pairs += static_cast<double>(q_end - plateau_lo) * static_cast<double>(k_end - k_begin);
    }
  }
  const double h_eff = static_cast<double>(model_.num_heads) * model_.head_dim();
  return 4.0 * pairs * h_eff;
}

double CostModel::LinearFlopsPerToken() const {
  const double h = model_.hidden_size;
  const double kvh = model_.kv_hidden();
  const double f = model_.ffn_hidden;
  // 2 FLOPs per parameter touched. Q/K/V/out projections:
  const double attn_proj = 2.0 * (h * h + 2.0 * h * kvh + h * h);
  // Gated MLP: 3 matrices per active expert.
  const double active_experts = model_.is_moe() ? model_.experts_per_token : 1;
  const double mlp = 2.0 * 3.0 * h * f * active_experts;
  const double router = model_.is_moe() ? 2.0 * h * model_.num_experts : 0.0;
  return attn_proj + mlp + router;
}

int64_t CostModel::KvBytesPerToken() const {
  return static_cast<int64_t>(2) * model_.kv_hidden() * model_.dtype_bytes;
}

int64_t CostModel::HiddenBytesPerToken() const {
  return static_cast<int64_t>(model_.hidden_size) * model_.dtype_bytes;
}

double CostModel::ComputeTime(double flops) const {
  ZCHECK_GE(flops, 0.0);
  if (flops == 0) {
    return 0;
  }
  return flops / cluster_.flops_per_us() + cluster_.kernel_launch_us;
}

double CostModel::CausalAttentionTime(int64_t s) const {
  return ComputeTime(CausalAttentionFlops(s));
}

double CostModel::LinearTime(int64_t tokens) const {
  if (tokens == 0) {
    return 0;
  }
  double time = ComputeTime(LinearFlopsPerToken() * static_cast<double>(tokens));
  if (model_.is_moe()) {
    // Expert parallelism within the node: every token's hidden state is
    // dispatched to its experts and combined back, an all-to-all pair over
    // NVSwitch. (EP group = min(experts, GPUs per node); the (EP-1)/EP share
    // leaves the rank.)
    const double ep = std::min(model_.num_experts, cluster_.gpus_per_node);
    if (ep > 1) {
      const double bytes = 2.0 * model_.experts_per_token *
                           static_cast<double>(HiddenBytesPerToken()) *
                           static_cast<double>(tokens) * (ep - 1.0) / ep;
      time += bytes / cluster_.nvswitch_bandwidth;
    }
  }
  if (tensor_parallel_ > 1) {
    // Megatron TP: two activation all-reduces per layer (after attention and
    // after the MLP), each moving 2*(tp-1)/tp of the hidden state per token
    // over NVSwitch within the TP group.
    const double tp = tensor_parallel_;
    const double bytes = 2.0 * 2.0 * (tp - 1.0) / tp *
                         static_cast<double>(HiddenBytesPerToken()) *
                         static_cast<double>(tokens);
    time += bytes / cluster_.nvswitch_bandwidth;
  }
  return time;
}

double CostModel::IntraNodeTransferTime(int64_t bytes) const {
  if (bytes == 0) {
    return 0;
  }
  return static_cast<double>(bytes) / cluster_.nvswitch_bandwidth + cluster_.intra_latency_us;
}

double CostModel::InterNodeTransferTime(int64_t bytes) const {
  if (bytes == 0) {
    return 0;
  }
  return static_cast<double>(bytes) / cluster_.nic_bandwidth + cluster_.inter_latency_us;
}

}  // namespace zeppelin
