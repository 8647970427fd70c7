// Fabric resource enumeration and transfer-path resolution.
//
// The discrete-event simulator serializes work on *resources*. FabricResources
// assigns a dense ResourceId space for a cluster:
//   - one compute lane per GPU (kernels on a GPU serialize),
//   - one NVSwitch egress + ingress channel per GPU (intra-node p2p),
//   - one tx + rx channel per NIC (inter-node p2p; duplex, so the two
//     directions are independent — this is what lets Zeppelin's routing layer
//     exploit the direction a plain ring leaves idle).
//
// Resolve() maps a (src GPU, dst GPU, optional NIC override) transfer onto the
// ordered set of channels it occupies plus its bottleneck bandwidth/latency.
// A NIC shared by two GPUs (Cluster A) is naturally modelled: both GPUs'
// inter-node transfers serialize on the same tx/rx channels.
#ifndef SRC_TOPOLOGY_PATH_H_
#define SRC_TOPOLOGY_PATH_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "src/topology/cluster.h"

namespace zeppelin {

using ResourceId = int32_t;

// The channels one transfer occupies, stored inline: a path crosses at most
// two (NVSwitch egress + ingress, or NIC tx + rx); a same-GPU move crosses
// none.
class PathResources {
 public:
  static constexpr int kMaxChannels = 2;

  PathResources() = default;
  PathResources(ResourceId first, ResourceId second) : ids_{first, second}, size_(2) {}

  bool empty() const { return size_ == 0; }
  size_t size() const { return static_cast<size_t>(size_); }
  ResourceId operator[](size_t i) const { return ids_[i]; }
  const ResourceId* begin() const { return ids_.data(); }
  const ResourceId* end() const { return ids_.data() + size_; }
  operator std::span<const ResourceId>() const { return {ids_.data(), size()}; }

 private:
  std::array<ResourceId, kMaxChannels> ids_{};
  int size_ = 0;
};

struct TransferPath {
  // Channels the transfer occupies for its whole duration, in hop order.
  PathResources resources;
  // Bottleneck bandwidth in bytes/us; +inf for a same-GPU no-op "transfer".
  double bandwidth = 0;
  double latency_us = 0;
  bool crosses_node = false;
};

class FabricResources {
 public:
  explicit FabricResources(const ClusterSpec& spec);

  const ClusterSpec& cluster() const { return spec_; }

  int num_resources() const { return num_resources_; }

  ResourceId ComputeLane(int gpu) const;
  ResourceId NvswitchEgress(int gpu) const;
  ResourceId NvswitchIngress(int gpu) const;
  ResourceId NicTx(int node, int nic) const;
  ResourceId NicRx(int node, int nic) const;

  // Debug/trace name for a resource, e.g. "n0.g3.compute" or "n1.nic2.tx".
  std::string ResourceName(ResourceId id) const;
  // Node that owns a resource (trace lane grouping).
  int ResourceNode(ResourceId id) const;

  // Path for moving `bytes` from src_gpu to dst_gpu. For cross-node transfers
  // src_nic/dst_nic select the NICs (local indices); -1 uses each GPU's
  // affinity NIC. NIC choices are ignored for intra-node transfers.
  TransferPath Resolve(int src_gpu, int dst_gpu, int src_nic = -1, int dst_nic = -1) const;

  // The fabric's identity for content-addressed caches (PlanCache): the
  // cluster spec and its GPU->NIC map, digested once at construction. Rank
  // liveness and speed are planning inputs of their own (RankTopology in
  // src/data/stream.h), not part of the fabric.
  uint64_t digest() const { return spec_digest_; }

 private:
  ClusterSpec spec_;
  uint64_t spec_digest_ = 0;
  int compute_base_ = 0;
  int egress_base_ = 0;
  int ingress_base_ = 0;
  int nic_tx_base_ = 0;
  int nic_rx_base_ = 0;
  int num_resources_ = 0;
};

}  // namespace zeppelin

#endif  // SRC_TOPOLOGY_PATH_H_
