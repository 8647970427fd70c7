#include "src/topology/path.h"

#include <limits>
#include <sstream>

#include "src/common/check.h"
#include "src/common/hash.h"

namespace zeppelin {

FabricResources::FabricResources(const ClusterSpec& spec) : spec_(spec) {
  spec_.Validate();
  const int gpus = spec_.world_size();
  const int nics = spec_.num_nodes * spec_.nics_per_node;
  compute_base_ = 0;
  egress_base_ = compute_base_ + gpus;
  ingress_base_ = egress_base_ + gpus;
  nic_tx_base_ = ingress_base_ + gpus;
  nic_rx_base_ = nic_tx_base_ + nics;
  num_resources_ = nic_rx_base_ + nics;
  const ClusterSpec& c = spec_;
  uint64_t h = kFnvOffset;
  h = FnvMixString(h, c.name);
  h = FnvMix(h, static_cast<uint64_t>(c.num_nodes));
  h = FnvMix(h, static_cast<uint64_t>(c.gpus_per_node));
  h = FnvMix(h, static_cast<uint64_t>(c.nics_per_node));
  h = FnvMixDouble(h, c.nic_bandwidth);
  h = FnvMixDouble(h, c.nvswitch_bandwidth);
  h = FnvMixDouble(h, c.intra_latency_us);
  h = FnvMixDouble(h, c.inter_latency_us);
  h = FnvMixDouble(h, c.gpu_effective_tflops);
  h = FnvMixDouble(h, c.kernel_launch_us);
  h = FnvMixDouble(h, c.gpu_memory_bytes);
  h = FnvMixDouble(h, c.hbm_bandwidth);
  h = FnvMix(h, c.gpu_to_nic.size());
  for (int nic : c.gpu_to_nic) {
    h = FnvMix(h, static_cast<uint64_t>(nic));
  }
  spec_digest_ = h;
  ResetRankSpeeds();
}

uint64_t FabricResources::SpeedTerm(int gpu, double factor) {
  return AvalancheMix(FnvMixDouble(FnvMix(kFnvOffset, static_cast<uint64_t>(gpu)), factor));
}

uint64_t FabricResources::digest() const { return FnvMix(spec_digest_, speed_digest_); }

double FabricResources::rank_speed(int gpu) const {
  ZCHECK(gpu >= 0 && gpu < spec_.world_size()) << "gpu=" << gpu;
  return rank_speed_[gpu];
}

void FabricResources::set_rank_speed(int gpu, double factor) {
  ZCHECK(gpu >= 0 && gpu < spec_.world_size()) << "gpu=" << gpu;
  ZCHECK(factor > 0) << "speed factor must be positive: " << factor;
  // The speed digest is a sum of per-rank terms: swap this rank's term.
  speed_digest_ += SpeedTerm(gpu, factor) - SpeedTerm(gpu, rank_speed_[gpu]);
  rank_speed_[gpu] = factor;
}

void FabricResources::ResetRankSpeeds() {
  rank_speed_.assign(spec_.world_size(), 1.0);
  speed_digest_ = 0;
  for (int gpu = 0; gpu < spec_.world_size(); ++gpu) {
    speed_digest_ += SpeedTerm(gpu, 1.0);
  }
}

bool FabricResources::heterogeneous() const {
  for (double s : rank_speed_) {
    if (s != 1.0) {
      return true;
    }
  }
  return false;
}

ResourceId FabricResources::ComputeLane(int gpu) const {
  ZCHECK(gpu >= 0 && gpu < spec_.world_size()) << "gpu=" << gpu;
  return compute_base_ + gpu;
}

ResourceId FabricResources::NvswitchEgress(int gpu) const {
  ZCHECK(gpu >= 0 && gpu < spec_.world_size()) << "gpu=" << gpu;
  return egress_base_ + gpu;
}

ResourceId FabricResources::NvswitchIngress(int gpu) const {
  ZCHECK(gpu >= 0 && gpu < spec_.world_size()) << "gpu=" << gpu;
  return ingress_base_ + gpu;
}

ResourceId FabricResources::NicTx(int node, int nic) const {
  ZCHECK(node >= 0 && node < spec_.num_nodes) << "node=" << node;
  ZCHECK(nic >= 0 && nic < spec_.nics_per_node) << "nic=" << nic;
  return nic_tx_base_ + node * spec_.nics_per_node + nic;
}

ResourceId FabricResources::NicRx(int node, int nic) const {
  ZCHECK(node >= 0 && node < spec_.num_nodes) << "node=" << node;
  ZCHECK(nic >= 0 && nic < spec_.nics_per_node) << "nic=" << nic;
  return nic_rx_base_ + node * spec_.nics_per_node + nic;
}

std::string FabricResources::ResourceName(ResourceId id) const {
  ZCHECK(id >= 0 && id < num_resources_) << "id=" << id;
  std::ostringstream out;
  if (id < egress_base_) {
    const int gpu = id - compute_base_;
    out << "n" << spec_.NodeOf(gpu) << ".g" << spec_.LocalOf(gpu) << ".compute";
  } else if (id < ingress_base_) {
    const int gpu = id - egress_base_;
    out << "n" << spec_.NodeOf(gpu) << ".g" << spec_.LocalOf(gpu) << ".nvl_out";
  } else if (id < nic_tx_base_) {
    const int gpu = id - ingress_base_;
    out << "n" << spec_.NodeOf(gpu) << ".g" << spec_.LocalOf(gpu) << ".nvl_in";
  } else if (id < nic_rx_base_) {
    const int idx = id - nic_tx_base_;
    out << "n" << idx / spec_.nics_per_node << ".nic" << idx % spec_.nics_per_node << ".tx";
  } else {
    const int idx = id - nic_rx_base_;
    out << "n" << idx / spec_.nics_per_node << ".nic" << idx % spec_.nics_per_node << ".rx";
  }
  return out.str();
}

int FabricResources::ResourceNode(ResourceId id) const {
  ZCHECK(id >= 0 && id < num_resources_) << "id=" << id;
  if (id < nic_tx_base_) {
    // GPU-owned resources repeat every world_size().
    const int gpu = id % spec_.world_size();
    return spec_.NodeOf(gpu);
  }
  const int idx = (id - nic_tx_base_) % (spec_.num_nodes * spec_.nics_per_node);
  return idx / spec_.nics_per_node;
}

TransferPath FabricResources::Resolve(int src_gpu, int dst_gpu, int src_nic, int dst_nic) const {
  ZCHECK(src_gpu >= 0 && src_gpu < spec_.world_size()) << "src=" << src_gpu;
  ZCHECK(dst_gpu >= 0 && dst_gpu < spec_.world_size()) << "dst=" << dst_gpu;

  TransferPath path;
  if (src_gpu == dst_gpu) {
    // Same-device move: free (tensor stays in HBM).
    path.bandwidth = std::numeric_limits<double>::infinity();
    path.latency_us = 0;
    return path;
  }

  const int src_node = spec_.NodeOf(src_gpu);
  const int dst_node = spec_.NodeOf(dst_gpu);
  if (src_node == dst_node) {
    path.resources = PathResources(NvswitchEgress(src_gpu), NvswitchIngress(dst_gpu));
    path.bandwidth = spec_.nvswitch_bandwidth;
    path.latency_us = spec_.intra_latency_us;
    return path;
  }

  if (src_nic < 0) {
    src_nic = spec_.NicOf(src_gpu);
  }
  if (dst_nic < 0) {
    dst_nic = spec_.NicOf(dst_gpu);
  }
  ZCHECK(src_nic >= 0 && src_nic < spec_.nics_per_node) << "src_nic=" << src_nic;
  ZCHECK(dst_nic >= 0 && dst_nic < spec_.nics_per_node) << "dst_nic=" << dst_nic;

  // Cross-node traffic reaches the NIC over PCIe (GPUDirect RDMA), which
  // does not contend with the NVSwitch fabric — so the path serializes only
  // on the two NIC directional channels. This is what lets the routing
  // layer's intra-node dispatch overlap with in-flight inter-node transfers.
  path.resources = PathResources(NicTx(src_node, src_nic), NicRx(dst_node, dst_nic));
  path.bandwidth = spec_.nic_bandwidth;
  path.latency_us = spec_.inter_latency_us;
  path.crosses_node = true;
  return path;
}

}  // namespace zeppelin
