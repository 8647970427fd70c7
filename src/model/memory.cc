// Memory model implementation (see src/model/memory.h).
#include <algorithm>

#include "src/common/check.h"
#include "src/common/units.h"
#include "src/model/memory.h"

namespace zeppelin {

MemoryBreakdown ComputeMemoryBreakdown(const TransformerConfig& model, const ClusterSpec& cluster,
                                       int world_size) {
  ZCHECK_GT(world_size, 0);
  MemoryBreakdown mem;
  const double params = static_cast<double>(model.NumParams());

  mem.weights_bytes = params * model.dtype_bytes;
  mem.gradient_bytes = params * model.dtype_bytes;
  // Adam: two fp32 moments + fp32 master copy = 12 bytes/param, ZeRO-1 sharded.
  mem.optimizer_bytes = params * 12.0 / world_size;

  // Activations per token with selective recomputation: the attention softmax
  // is recomputed in backward (FlashAttention), so per layer we keep the
  // layer input, QKV, attention output, and MLP intermediates. A widely used
  // approximation is ~34 * hidden bytes per token per layer at bf16 with
  // selective recompute; MoE adds the expert intermediate for active experts.
  const double h = model.hidden_size;
  const double moe_factor =
      model.is_moe() ? 1.0 + 0.5 * model.experts_per_token : 1.0;
  mem.per_token_bytes = 34.0 * h * model.num_layers * moe_factor;

  const double reserved = 4.0 * kGiB;  // CUDA context, NCCL buffers, fragmentation.
  mem.available_for_activations = cluster.gpu_memory_bytes - reserved - mem.weights_bytes -
                                  mem.gradient_bytes - mem.optimizer_bytes;
  mem.token_capacity =
      mem.available_for_activations <= 0
          ? 0
          : static_cast<int64_t>(mem.available_for_activations / mem.per_token_bytes);
  return mem;
}

int64_t TokenCapacity(const TransformerConfig& model, const ClusterSpec& cluster, int world_size) {
  return ComputeMemoryBreakdown(model, cluster, world_size).token_capacity;
}

int64_t HeadroomCapacity(int64_t total_tokens, int64_t devices, int64_t ceiling) {
  const int64_t average = (total_tokens + devices - 1) / devices;
  int64_t with_slack = average + average / 4;
  if (ceiling > 0) {
    with_slack = std::min(with_slack, ceiling);
  }
  return std::max(average, with_slack);
}

}  // namespace zeppelin
