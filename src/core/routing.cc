#include "src/core/routing.h"

#include <algorithm>

#include "src/comm/primitives.h"
#include "src/common/check.h"

namespace zeppelin {

namespace {

// Appends one GPU per distinct NIC on `anchor_gpu`'s node to `out`, starting
// with (and always including) the anchor's NIC slot so the anchor's own
// slice avoids a dispatch hop. `nic_used` is scratch.
void AppendProxiesCoveringNics(const ClusterSpec& spec, int anchor_gpu, int max_count,
                               std::vector<uint8_t>* nic_used, std::vector<int>* out) {
  const size_t first = out->size();
  nic_used->assign(spec.nics_per_node, 0);
  auto take = [&](int rank) {
    const int nic = spec.NicOf(rank);
    if ((*nic_used)[nic] == 0) {
      (*nic_used)[nic] = 1;
      out->push_back(rank);
    }
  };
  const int node = spec.NodeOf(anchor_gpu);
  take(anchor_gpu);
  for (int local = 0; local < spec.gpus_per_node; ++local) {
    take(spec.GlobalRank(node, local));
    if (max_count > 0 && static_cast<int>(out->size() - first) >= max_count) {
      break;
    }
  }
  if (max_count > 0 && static_cast<int>(out->size() - first) > max_count) {
    out->resize(first + max_count);
  }
}

}  // namespace

RoutingLayer::RoutingLayer(const FabricResources& fabric, RoutingOptions options)
    : fabric_(&fabric), options_(options) {
  const ClusterSpec& spec = fabric.cluster();
  const int world = spec.world_size();
  proxy_begin_.reserve(world + 1);
  proxy_begin_.push_back(0);
  std::vector<uint8_t> nic_used;
  size_t widest = 0;
  for (int gpu = 0; gpu < world; ++gpu) {
    const size_t before = proxies_.size();
    AppendProxiesCoveringNics(spec, gpu, options_.max_proxies, &nic_used, &proxies_);
    widest = std::max(widest, proxies_.size() - before);
    proxy_begin_.push_back(static_cast<int>(proxies_.size()));
  }
  arrivals_.reserve(widest);
}

std::vector<int> RoutingLayer::SendProxies(int src_gpu, int dst_node) const {
  (void)dst_node;
  const std::span<const int> proxies = ProxiesOf(src_gpu);
  return std::vector<int>(proxies.begin(), proxies.end());
}

std::vector<int> RoutingLayer::RecvProxies(int dst_gpu, int src_node) const {
  (void)src_node;
  const std::span<const int> proxies = ProxiesOf(dst_gpu);
  return std::vector<int>(proxies.begin(), proxies.end());
}

TaskId RoutingLayer::EmitTransfer(TaskGraph& graph, int src_gpu, int dst_gpu, int64_t bytes,
                                  DepSpan deps, LabelArg label) const {
  const ClusterSpec& spec = fabric_->cluster();
  const int src_node = spec.NodeOf(src_gpu);
  const int dst_node = spec.NodeOf(dst_gpu);

  if (!options_.enabled || src_node == dst_node || bytes == 0) {
    return AddP2PAuto(graph, *fabric_, src_gpu, dst_gpu, bytes, deps, label);
  }

  const std::span<const int> send_proxies = ProxiesOf(src_gpu);
  const std::span<const int> recv_proxies = ProxiesOf(dst_gpu);
  // Paper's pairing rule: one-to-one matching of senders and receivers.
  const int x = static_cast<int>(std::min(send_proxies.size(), recv_proxies.size()));
  ZCHECK_GT(x, 0);
  if (x == 1) {
    return AddP2PAuto(graph, *fabric_, src_gpu, dst_gpu, bytes, deps, label);
  }

  const TaskLabel base = graph.Resolve(label);
  arrivals_.clear();
  for (int i = 0; i < x; ++i) {
    const int64_t slice = bytes * (i + 1) / x - bytes * i / x;
    if (slice == 0) {
      continue;
    }
    const int sp = send_proxies[i];
    const int rp = recv_proxies[i];

    // Step 1: dispatch src -> send proxy (skipped when src is its own proxy).
    TaskId dispatch = kInvalidTask;
    if (sp != src_gpu) {
      dispatch = AddP2P(graph, *fabric_, src_gpu, sp, slice, TaskCategory::kDispatchComm, deps,
                        base.Then(LabelSuffix::kDispatch, i));
    }

    // Step 2: inter-node transfer through the proxy pair's own NICs.
    const TaskId transfer =
        AddP2P(graph, *fabric_, sp, rp, slice, TaskCategory::kInterComm,
               dispatch != kInvalidTask ? DepSpan(&dispatch, 1) : deps,
               base.Then(LabelSuffix::kNic, i), spec.NicOf(sp), spec.NicOf(rp));

    // Step 3: combine recv proxy -> dst (skipped when dst is its own proxy).
    if (rp != dst_gpu) {
      arrivals_.push_back(AddP2P(graph, *fabric_, rp, dst_gpu, slice,
                                 TaskCategory::kCombineComm, {transfer},
                                 base.Then(LabelSuffix::kCombine, i)));
    } else {
      arrivals_.push_back(transfer);
    }
  }
  return graph.AddBarrier(arrivals_, base.Then(LabelSuffix::kRoutedDone));
}

GraphSize RoutingLayer::TransferBound(int src_gpu, int dst_gpu, int64_t num_deps) const {
  constexpr int64_t kChannels = PathResources::kMaxChannels;
  const ClusterSpec& spec = fabric_->cluster();
  const GraphSize direct{1, num_deps, kChannels};
  if (!options_.enabled || spec.NodeOf(src_gpu) == spec.NodeOf(dst_gpu)) {
    return direct;
  }
  const auto x = static_cast<int64_t>(
      std::min(ProxiesOf(src_gpu).size(), ProxiesOf(dst_gpu).size()));
  if (x == 1) {
    return direct;
  }
  // Per slice a dispatch (gated by `deps`), the NIC transfer (gated by the
  // dispatch, or by `deps` without one) and a combine; then a barrier on the
  // x arrivals.
  return {3 * x + 1, x * (num_deps + std::max<int64_t>(num_deps, 1) + 2), 3 * x * kChannels};
}

double RoutingLayer::RoutedCostUs(const CostModel& cost_model, int64_t bytes, int x1, int x2) {
  ZCHECK_GT(x1, 0);
  ZCHECK_GT(x2, 0);
  const double n = static_cast<double>(bytes);
  const double dispatch = cost_model.b_intra() * n * (x1 - 1) / x1;
  const double inter = cost_model.b_inter() * std::max(n / x1, n / x2);
  const double combine = cost_model.b_intra() * n * (x2 - 1) / x2;
  return dispatch + inter + combine;
}

double RoutingLayer::DirectCostUs(const CostModel& cost_model, int64_t bytes) {
  return cost_model.b_inter() * static_cast<double>(bytes);
}

}  // namespace zeppelin
