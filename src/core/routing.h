// Communication routing layer (paper §3.3).
//
// A ring-attention send from rank a (node X) to rank b (node Y) normally
// pushes the whole KV block through a's affinity NIC, leaving every other NIC
// of the node idle and the reverse direction unused. The routing layer
// disaggregates GPU-NIC affinity by decomposing the transfer into:
//
//   1. Workload dispatch (intra-node): a scatters its n bytes over x1 send
//      proxy ranks through NVSwitch (n/x1 each);
//   2. Inter-node transfer (multi-NIC): each send proxy ships its slice to a
//      matched receive proxy on Y through its *own* NIC;
//   3. Workload combine (intra-node): the x2 receive proxies forward their
//      slices to b.
//
// Direct cost b_inter * n becomes (Eq. 1):
//   b_intra * n * (x1-1)/x1 + b_inter * max(n/x1, n/x2) + b_intra * n * (x2-1)/x2
//
// Proxy counts follow the paper's pairing rule: x1 = x2 = min(#GPUs usable on
// the sending node, #GPUs usable on the receiving node), additionally capped
// by the number of distinct NICs (extra proxies sharing a NIC add dispatch
// cost without adding inter-node bandwidth — relevant on Cluster A where two
// GPUs share each NIC).
#ifndef SRC_CORE_ROUTING_H_
#define SRC_CORE_ROUTING_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/model/cost_model.h"
#include "src/sim/graph.h"
#include "src/topology/path.h"

namespace zeppelin {

struct RoutingOptions {
  bool enabled = true;
  // Upper bound on proxies per side (0 = no extra cap).
  int max_proxies = 0;
};

class RoutingLayer {
 public:
  RoutingLayer(const FabricResources& fabric, RoutingOptions options);

  // Emits the (possibly routed) transfer of `bytes` from src_gpu to dst_gpu
  // and returns a task id that completes when the data is fully on dst_gpu.
  // Falls back to a direct send when routing is disabled, the transfer is
  // intra-node, or only one proxy pair is available.
  TaskId EmitTransfer(TaskGraph& graph, int src_gpu, int dst_gpu, int64_t bytes, DepSpan deps,
                      LabelArg label) const;
  // Upper bound on what one EmitTransfer from src_gpu to dst_gpu adds when
  // `deps` holds `num_deps` tasks.
  GraphSize TransferBound(int src_gpu, int dst_gpu, int64_t num_deps) const;

  // Proxy ranks (global) the layer would use for a src-node -> dst-node
  // transfer originated by src_gpu. One GPU per distinct NIC, starting from
  // the source GPU itself (its slice skips the dispatch hop).
  std::vector<int> SendProxies(int src_gpu, int dst_node) const;
  std::vector<int> RecvProxies(int dst_gpu, int src_node) const;

  // Analytic Eq. 1 cost (excluding latencies) for n bytes with x1/x2 proxies.
  static double RoutedCostUs(const CostModel& cost_model, int64_t bytes, int x1, int x2);
  // Analytic direct cost for comparison.
  static double DirectCostUs(const CostModel& cost_model, int64_t bytes);

 private:
  // Proxies anchored on `gpu`: the send side when it sources a transfer, the
  // receive side when it is the destination.
  std::span<const int> ProxiesOf(int gpu) const {
    return std::span<const int>(proxies_).subspan(proxy_begin_[gpu],
                                                  proxy_begin_[gpu + 1] - proxy_begin_[gpu]);
  }

  const FabricResources* fabric_;
  RoutingOptions options_;
  // ProxiesOf(gpu) is proxies_[proxy_begin_[gpu], proxy_begin_[gpu + 1]),
  // computed once per layer.
  std::vector<int> proxy_begin_;
  std::vector<int> proxies_;
  // The slice-arrival tasks a routed transfer's done barrier waits on;
  // recycled across EmitTransfer calls (logically const, holds no
  // observable state), sized for the widest fan-out up front.
  mutable std::vector<TaskId> arrivals_;
};

}  // namespace zeppelin

#endif  // SRC_CORE_ROUTING_H_
