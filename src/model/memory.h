// GPU memory model: how many tokens fit on one device.
//
// The paper's partitioning algorithms (Alg. 1/2) take a per-device token
// capacity L as input. In the paper's experiments L is set by the workload
// ("4k tokens per GPU"); this model additionally derives the *memory-feasible*
// L for a model/cluster pair, which Hybrid DP uses to decide when short
// sequences must be chunked into extra micro-batches.
#ifndef SRC_MODEL_MEMORY_H_
#define SRC_MODEL_MEMORY_H_

#include <cstdint>

#include "src/model/transformer.h"
#include "src/topology/cluster.h"

namespace zeppelin {

struct MemoryBreakdown {
  double weights_bytes = 0;
  double optimizer_bytes = 0;   // Adam moments + fp32 master weights (ZeRO-1 sharded).
  double gradient_bytes = 0;
  double per_token_bytes = 0;   // Activations per token across all layers.
  double available_for_activations = 0;
  int64_t token_capacity = 0;
};

// Computes the activation-memory token capacity of one GPU when the model is
// replicated per rank (data parallelism) with ZeRO-1 optimizer sharding over
// `world_size` ranks.
MemoryBreakdown ComputeMemoryBreakdown(const TransformerConfig& model, const ClusterSpec& cluster,
                                       int world_size);

// Convenience: just the token capacity (0 if the model does not even fit).
int64_t TokenCapacity(const TransformerConfig& model, const ClusterSpec& cluster, int world_size);

// The derived L when none is configured: the batch average over `devices`
// (rounded up) plus 25% headroom, capped by `ceiling` when it is positive, but
// never below the average (the partitioner needs total <= devices * L).
int64_t HeadroomCapacity(int64_t total_tokens, int64_t devices, int64_t ceiling);

}  // namespace zeppelin

#endif  // SRC_MODEL_MEMORY_H_
