// Point-to-point communication primitives on the simulated fabric.
//
// Thin helpers that resolve a (src GPU, dst GPU, optional NIC override) into a
// fabric path and append the transfer to a TaskGraph. The NIC override is the
// hook the routing layer (§3.3) uses to disaggregate GPU->NIC affinity:
// a proxy rank can push traffic through *its* NIC on behalf of another GPU.
#ifndef SRC_COMM_PRIMITIVES_H_
#define SRC_COMM_PRIMITIVES_H_

#include <cstdint>

#include "src/sim/graph.h"
#include "src/topology/path.h"

namespace zeppelin {

// Category automatically derived from the path (intra vs inter) when the
// caller passes TaskCategory::kBarrier as a sentinel... callers should be
// explicit; use DefaultCommCategory for the common case.
TaskCategory DefaultCommCategory(const TransferPath& path);

// Adds a point-to-point copy of `bytes` from src_gpu to dst_gpu.
// Returns the transfer task id (dependency handle for the receive side).
TaskId AddP2P(TaskGraph& graph, const FabricResources& fabric, int src_gpu, int dst_gpu,
              int64_t bytes, TaskCategory category, DepSpan deps, LabelArg label,
              int src_nic = -1, int dst_nic = -1);

// Same, but picks the category from the resolved path.
TaskId AddP2PAuto(TaskGraph& graph, const FabricResources& fabric, int src_gpu, int dst_gpu,
                  int64_t bytes, DepSpan deps, LabelArg label, int src_nic = -1,
                  int dst_nic = -1);

}  // namespace zeppelin

#endif  // SRC_COMM_PRIMITIVES_H_
