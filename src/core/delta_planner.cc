#include "src/core/delta_planner.h"

#include <algorithm>
#include <cstring>
#include <tuple>
#include <utility>

#include "src/common/check.h"
#include "src/core/partitioner_internal.h"
#include "src/core/plan_verify.h"
#include "src/model/memory.h"

namespace zeppelin {

const char* DeltaOutcomeName(DeltaOutcome outcome) {
  switch (outcome) {
    case DeltaOutcome::kApplied:
      return "applied";
    case DeltaOutcome::kRebasedNoBase:
      return "rebased:no-base";
    case DeltaOutcome::kRebasedChurn:
      return "rebased:churn";
    case DeltaOutcome::kRebasedZone:
      return "rebased:zone";
    case DeltaOutcome::kRebasedRefined:
      return "rebased:refined-threshold";
    case DeltaOutcome::kRebasedCapacity:
      return "rebased:capacity";
    case DeltaOutcome::kRebasedImbalance:
      return "rebased:imbalance";
    case DeltaOutcome::kAppliedTopology:
      return "applied:topology";
    case DeltaOutcome::kRebasedTopology:
      return "rebased:topology";
    case DeltaOutcome::kRebasedMigration:
      return "rebased:migration";
  }
  return "unknown";
}

const char* TopologyFallbackName(TopologyFallback cause) {
  switch (cause) {
    case TopologyFallback::kDeadNodeRestore:
      return "dead-node-restore";
    case TopologyFallback::kChunkNodeLiveness:
      return "chunk-node-liveness";
    case TopologyFallback::kSurvivorOverload:
      return "survivor-overload";
    case TopologyFallback::kDegradedBase:
      return "degraded-base";
  }
  return "unknown";
}

DeltaPlanner::DeltaPlanner(const ClusterSpec& cluster, DeltaPlannerOptions options)
    : cluster_(cluster),
      options_(options),
      partitioner_(cluster,
                   SequencePartitioner::Options{
                       .token_capacity = options.token_capacity,
                       .max_inter_threshold = options.max_inter_threshold,
                       .max_local_threshold = options.max_local_threshold,
                   }) {
  cluster_.Validate();
  ZCHECK_GT(options_.token_capacity, 0);
  ZCHECK_GE(options_.replan_threshold, 0);
  ZCHECK_GE(options_.migration_budget, 0);
  topo_.Reset(cluster_.world_size());
}

void DeltaPlanner::set_options(DeltaPlannerOptions options) {
  options_ = options;
  ZCHECK_GT(options_.token_capacity, 0);
  ZCHECK_GE(options_.replan_threshold, 0);
  ZCHECK_GE(options_.migration_budget, 0);
  has_base_ = false;  // Thresholds derive from the options; state is stale.
}

void DeltaPlanner::EnsureCapacityFits(int64_t total_tokens) {
  // The fabric the batch must fit is the *alive* device count, not the
  // nominal world: on a degraded fabric the same batch needs more headroom
  // per surviving device.
  const int64_t world = topo_.alive_count();
  ZCHECK_GT(world, 0) << "no alive ranks";
  if (total_tokens <= world * options_.token_capacity) {
    return;
  }
  // The service's derivation, over the alive devices and the caller's ceiling.
  options_.token_capacity = HeadroomCapacity(total_tokens, world, options_.capacity_ceiling);
}

void DeltaPlanner::Rebase(const Batch& batch) {
  batch_ = batch;
  RebaseInternal();
}

void DeltaPlanner::RebaseInternal() {
  ZCHECK_GT(batch_.size(), 0);
  EnsureCapacityFits(batch_.total_tokens());
  partitioner_.set_options(SequencePartitioner::Options{
      .token_capacity = options_.token_capacity,
      .max_inter_threshold = options_.max_inter_threshold,
      .max_local_threshold = options_.max_local_threshold,
  });
  // The fabric state is a planning input: a degraded topology plans over
  // the alive ranks with speed-normalized loads, a clean one byte for byte
  // as the plain engine.
  partitioner_.Partition(batch_, &scratch_, &plan_, &topo_);
  CaptureState();
}

void DeltaPlanner::CaptureState() {
  const int num_nodes = cluster_.num_nodes;
  const int p = cluster_.gpus_per_node;
  const int n = batch_.size();

  node_capacity_ = static_cast<int64_t>(p) * options_.token_capacity;
  base_refined_ = plan_.threshold_s1 < scratch_.threshold_s1_initial;

  locations_.assign(n, SeqLocation{});
  slot_epoch_.assign(n, 0);
  node_dirty_epoch_.assign(num_nodes, 0);
  epoch_ = 0;
  node_members_.resize(num_nodes);
  for (std::vector<int>& members : node_members_) {
    members.clear();
  }

  for (uint32_t i = 0; i < plan_.inter_node.size(); ++i) {
    SeqLocation& loc = locations_[plan_.inter_node[i].seq_id];
    loc.kind = SeqLocation::Kind::kZ2Ring;
    loc.inter_queue = true;
    loc.pos = i;
  }
  for (uint32_t i = 0; i < plan_.intra_node.size(); ++i) {
    const RingRef& ring = plan_.intra_node[i];
    SeqLocation& loc = locations_[ring.seq_id];
    loc.pos = i;
    loc.node = plan_.rank_arena[ring.rank_offset] / p;
    if (ring.length >= plan_.threshold_s1) {
      // Single-node inter-zone ring (Alg. 1 chunked it to one node bucket):
      // delta-immutable like any z2 sequence, and not a packing member.
      loc.kind = SeqLocation::Kind::kZ2Ring;
      loc.inter_queue = false;
    } else {
      loc.kind = SeqLocation::Kind::kIntraRing;
      loc.member_pos = static_cast<uint32_t>(node_members_[loc.node].size());
      node_members_[loc.node].push_back(ring.seq_id);
    }
  }
  for (uint32_t i = 0; i < plan_.local.size(); ++i) {
    const LocalSequence& seq = plan_.local[i];
    SeqLocation& loc = locations_[seq.seq_id];
    loc.kind = SeqLocation::Kind::kLocal;
    loc.pos = i;
    loc.node = seq.rank / p;
    loc.member_pos = static_cast<uint32_t>(node_members_[loc.node].size());
    node_members_[loc.node].push_back(seq.seq_id);
  }

  node_loads_.assign(num_nodes, 0);
  for (int r = 0; r < cluster_.world_size(); ++r) {
    node_loads_[r / p] += plan_.tokens_per_rank[r];
  }

  live_count_ = 0;
  for (int64_t len : batch_.seq_lens) {
    live_count_ += len > 0 ? 1 : 0;
  }
  free_spans_.clear();
  free_total_ = 0;
  live_ranks_ = plan_.rank_arena.size();
  base_imbalance_ = Imbalance();
  base_degraded_nodes_ = static_cast<int>(
      std::count(scratch_.fabric.clean.begin(), scratch_.fabric.clean.end(), uint8_t{0}));
  has_base_ = true;
}

double DeltaPlanner::Imbalance() const {
  // Speed-weighted effective loads over the alive ranks: on a clean topology
  // this is exactly max/mean of tokens_per_rank (eff == raw at nominal
  // speed), so the homogeneous guard is unchanged.
  int64_t total = 0;
  int64_t max_load = 0;
  int alive = 0;
  for (size_t r = 0; r < plan_.tokens_per_rank.size(); ++r) {
    if (!topo_.alive[r]) {
      continue;
    }
    const int64_t eff = topo_.EffectiveLoad(static_cast<int>(r), plan_.tokens_per_rank[r]);
    total += eff;
    max_load = std::max(max_load, eff);
    ++alive;
  }
  const double mean = static_cast<double>(total) / std::max(alive, 1);
  return mean > 0 ? static_cast<double>(max_load) / mean : 1.0;
}

DeltaOutcome DeltaPlanner::FallBack(DeltaOutcome reason) {
  // The delta already landed in batch_ and the plan/state may be half
  // patched (or untouched); a full re-plan rebuilds both from the batch alone.
  RebaseInternal();
  CountOutcome(reason);
  return reason;
}

DeltaOutcome DeltaPlanner::FallBackTopology(TopologyFallback cause) {
  ++stats_.topology_fallbacks[static_cast<int>(cause)];
  return FallBack(DeltaOutcome::kRebasedTopology);
}

// --- Eviction ---------------------------------------------------------------

void DeltaPlanner::RemoveIntraHeaderAt(uint32_t pos) {
  std::vector<RingRef>& queue = plan_.intra_node;
  const uint32_t last = static_cast<uint32_t>(queue.size()) - 1;
  if (pos != last) {
    queue[pos] = queue[last];
    locations_[queue[pos].seq_id].pos = pos;
  }
  queue.pop_back();
}

void DeltaPlanner::RemoveLocalAt(uint32_t pos) {
  std::vector<LocalSequence>& locals = plan_.local;
  const uint32_t last = static_cast<uint32_t>(locals.size()) - 1;
  if (pos != last) {
    locals[pos] = locals[last];
    locations_[locals[pos].seq_id].pos = pos;
  }
  locals.pop_back();
}

void DeltaPlanner::RemoveMember(int node, uint32_t member_pos) {
  std::vector<int>& members = node_members_[node];
  const uint32_t last = static_cast<uint32_t>(members.size()) - 1;
  if (member_pos != last) {
    members[member_pos] = members[last];
    locations_[members[member_pos]].member_pos = member_pos;
  }
  members.pop_back();
}

void DeltaPlanner::FreeRingSpan(const RingRef& ring) {
  free_spans_.push_back({ring.rank_offset, ring.rank_count});
  free_total_ += ring.rank_count;
  live_ranks_ -= ring.rank_count;
  ++stats_.evicted_rings;
}

void DeltaPlanner::EvictSlot(int slot) {
  ZCHECK(slot >= 0 && slot < batch_.size()) << "delta slot out of range: " << slot;
  SeqLocation& loc = locations_[slot];
  const int64_t old_len = batch_.seq_lens[slot];
  switch (loc.kind) {
    case SeqLocation::Kind::kLocal: {
      const LocalSequence& entry = plan_.local[loc.pos];
      ZCHECK_EQ(entry.seq_id, slot);
      plan_.tokens_per_rank[entry.rank] -= old_len;
      RemoveMember(loc.node, loc.member_pos);
      RemoveLocalAt(loc.pos);
      break;
    }
    case SeqLocation::Kind::kIntraRing: {
      const RingRef ring = plan_.intra_node[loc.pos];
      ZCHECK_EQ(ring.seq_id, slot);
      ZCHECK_EQ(ring.length, old_len) << "plan/batch length drift for slot " << slot;
      // Roll the causal-balanced fragment loads back out (the same split
      // arithmetic the intra stage emitted with; cursor 0 because the span
      // itself already encodes the device order).
      planner_internal::ForEachFragment(
          old_len, static_cast<int>(ring.rank_count), 0, static_cast<int>(ring.rank_count),
          [&](int f, int /*device*/, int64_t share) {
            plan_.tokens_per_rank[plan_.rank_arena[ring.rank_offset + f]] -= share;
          });
      FreeRingSpan(ring);
      RemoveMember(loc.node, loc.member_pos);
      RemoveIntraHeaderAt(loc.pos);
      // The node's remaining z1 fragmentation was computed against a c_avg
      // that just changed: re-derive the node's intra stage.
      MarkDirty(loc.node);
      break;
    }
    case SeqLocation::Kind::kZ2Ring:
      ZCHECK(false) << "z2 sequence reached the eviction path (slot " << slot << ")";
      break;
    case SeqLocation::Kind::kNone:
    case SeqLocation::Kind::kPending:
      ZCHECK(false) << "duplicate or unplaced slot in delta: " << slot;
      break;
  }
  node_loads_[loc.node] -= old_len;
  ZCHECK_GE(node_loads_[loc.node], 0) << "node " << loc.node << " load went negative";
  loc.kind = SeqLocation::Kind::kNone;
  loc.node = -1;
}

// --- Placement --------------------------------------------------------------

void DeltaPlanner::MarkDirty(int node) {
  if (node_dirty_epoch_[node] != epoch_) {
    node_dirty_epoch_[node] = epoch_;
    dirty_nodes_.push_back(node);
  }
}

bool DeltaPlanner::PlaceLocal(int slot, int node) {
  const int p = cluster_.gpus_per_node;
  const int rank_base = node * p;
  const int64_t len = batch_.seq_lens[slot];
  // Least-effective-loaded alive device, ties to the lowest index. On a clean
  // topology effective == raw load and every device is alive, so this is
  // byte-identical to the packing rule every engine shares. p is small (gpus
  // per node); a scan beats a heap here.
  int best = -1;
  int64_t best_eff = 0;
  for (int d = 0; d < p; ++d) {
    if (!topo_.alive[rank_base + d]) {
      continue;
    }
    const int64_t eff = topo_.EffectiveLoad(rank_base + d, plan_.tokens_per_rank[rank_base + d]);
    if (best < 0 || eff < best_eff) {
      best = d;
      best_eff = eff;
    }
  }
  if (best < 0 ||
      plan_.tokens_per_rank[rank_base + best] + len > options_.token_capacity) {
    return false;  // Device overflow: Alg. 2 refinement (dirty re-run) handles it.
  }
  plan_.tokens_per_rank[rank_base + best] += len;
  SeqLocation& loc = locations_[slot];
  loc.kind = SeqLocation::Kind::kLocal;
  loc.pos = static_cast<uint32_t>(plan_.local.size());
  plan_.local.push_back({slot, len, rank_base + best});
  return true;
}

void DeltaPlanner::Admit(int slot, int node) {
  SeqLocation& loc = locations_[slot];
  ZCHECK(loc.kind == SeqLocation::Kind::kNone) << "placing a still-placed slot " << slot;
  loc.kind = SeqLocation::Kind::kPending;
  loc.node = node;
  loc.member_pos = static_cast<uint32_t>(node_members_[node].size());
  node_members_[node].push_back(slot);
  if (batch_.seq_lens[slot] >= plan_.threshold_s0[node]) {
    MarkDirty(node);  // z1-length: joins the node's fragmentation stage.
  } else if (!IsDirty(node) && !PlaceLocal(slot, node)) {
    MarkDirty(node);  // Device overflow: let Alg. 2 refinement resolve it.
  }
  // Dirty nodes keep the slot pending; RepackNode places it.
}

void DeltaPlanner::SortPlaceForPacking() {
  // Length-descending, id-ascending: the order every packing stage uses.
  std::sort(place_.begin(), place_.end(), [&](int a, int b) {
    const int64_t la = batch_.seq_lens[a];
    const int64_t lb = batch_.seq_lens[b];
    return la != lb ? la > lb : a < b;
  });
}

bool DeltaPlanner::PickNodes() {
  const FabricView& fabric = scratch_.fabric;
  node_picks_.Assign(fabric.rates, static_cast<int64_t>(cluster_.gpus_per_node) * kSpeedScale,
                     node_loads_, [&](int node) {
                       return static_cast<int64_t>(fabric.alive(node)) * options_.token_capacity;
                     });
  place_node_.resize(place_.size());
  for (size_t i = 0; i < place_.size(); ++i) {
    const int64_t len = batch_.seq_lens[place_[i]];
    const int node = node_picks_.Pick(len);
    if (node < 0) {
      return false;
    }
    node_picks_.Add(node, len);
    node_loads_[node] += len;
    place_node_[i] = node;
  }
  return true;
}

DeltaOutcome DeltaPlanner::FinishPatch(DeltaOutcome applied, size_t patched) {
  for (size_t i = 0; i < place_.size(); ++i) {
    Admit(place_[i], place_node_[i]);
  }
  for (int node : dirty_nodes_) {
    RepackNode(node);
  }
  MaybeCompact();

  const double imbalance = Imbalance();
  if (imbalance > base_imbalance_ + options_.replan_threshold) {
    return FallBack(DeltaOutcome::kRebasedImbalance);
  }
  // Ratchet the drift reference downward when a patch improves balance, so
  // the allowance tracks the best achieved quality rather than a stale base
  // (a full re-plan resets it exactly).
  base_imbalance_ = std::min(base_imbalance_, imbalance);
  CountOutcome(applied);
  stats_.patched_sequences += static_cast<int64_t>(patched);
  return applied;
}

DeltaOutcome DeltaPlanner::BatchFallbackReason(const BatchDelta& delta) const {
  if (!has_base_) {
    return DeltaOutcome::kRebasedNoBase;
  }
  // Churn fraction counts churned *slots*: a removal refilled by an addition
  // is one replaced slot, not two changes (extra additions open new slots,
  // extra removals tombstone old ones — each counts once either way).
  const size_t churn_slots =
      std::max(delta.removed.size(), delta.added.size()) + delta.resized.size();
  const double churn = static_cast<double>(churn_slots) / std::max(live_count_, 1);
  if (churn > options_.replan_threshold) {
    return DeltaOutcome::kRebasedChurn;
  }
  if (base_refined_) {
    return DeltaOutcome::kRebasedRefined;
  }
  // Inter-node-zone churn: every z2 decision (chunk counts via s_avg, node
  // choices) is globally coupled, so any endpoint in z2 forces a re-plan.
  const int64_t s1 = scratch_.threshold_s1_initial;
  for (int slot : delta.removed) {
    ZCHECK(slot >= 0 && slot < batch_.size()) << "removed slot out of range: " << slot;
    if (batch_.seq_lens[slot] >= s1) {
      return DeltaOutcome::kRebasedZone;
    }
  }
  for (const auto& [slot, new_len] : delta.resized) {
    ZCHECK(slot >= 0 && slot < batch_.size()) << "resized slot out of range: " << slot;
    if (batch_.seq_lens[slot] >= s1 || new_len >= s1) {
      return DeltaOutcome::kRebasedZone;
    }
  }
  for (int64_t len : delta.added) {
    if (len >= s1) {
      return DeltaOutcome::kRebasedZone;
    }
  }
  return DeltaOutcome::kApplied;
}

DeltaOutcome DeltaPlanner::Apply(const BatchDelta& delta) {
  if (has_base_ && delta.empty()) {
    CountOutcome(DeltaOutcome::kApplied);
    return DeltaOutcome::kApplied;
  }
  if (const DeltaOutcome reason = BatchFallbackReason(delta); reason != DeltaOutcome::kApplied) {
    ApplyBatchDelta(delta, &batch_);
    return FallBack(reason);
  }

  // ---- Patch path ----------------------------------------------------------
  ++epoch_;
  dirty_nodes_.clear();

  // Evict while batch_ still holds the old lengths.
  for (int slot : delta.removed) {
    if (batch_.seq_lens[slot] > 0) {
      --live_count_;
    }
    EvictSlot(slot);
  }
  for (const auto& [slot, new_len] : delta.resized) {
    if (batch_.seq_lens[slot] > 0 && new_len == 0) {
      --live_count_;
    } else if (batch_.seq_lens[slot] == 0 && new_len > 0) {
      ++live_count_;
    }
    EvictSlot(slot);
  }

  ApplyBatchDelta(delta, &batch_, &added_slots_);
  locations_.resize(batch_.seq_lens.size());
  slot_epoch_.resize(batch_.seq_lens.size(), 0);
  for (int slot : added_slots_) {
    if (batch_.seq_lens[slot] > 0) {
      ++live_count_;
    }
  }

  // Every churned slot needs a (re)placement: removed slots (refilled or
  // tombstoned), resized slots, and freshly added tail slots. Deduplicate —
  // a removed slot refilled by an add appears in both lists.
  place_.clear();
  auto consider = [&](int slot) {
    if (slot_epoch_[slot] != epoch_) {
      slot_epoch_[slot] = epoch_;
      place_.push_back(slot);
    }
  };
  for (int slot : delta.removed) {
    consider(slot);
  }
  for (const auto& [slot, new_len] : delta.resized) {
    consider(slot);
  }
  for (int slot : added_slots_) {
    consider(slot);
  }
  SortPlaceForPacking();

  // Node-level packing of the delta set: on a clean fabric, one round-batched
  // GreedyPacker pass seeded from the live node loads; on a degraded one, the
  // engine's degraded rule (alive capacities, speed-normalized loads).
  if (scratch_.fabric.degraded) {
    if (!PickNodes()) {
      return FallBack(DeltaOutcome::kRebasedCapacity);
    }
  } else {
    const int count = static_cast<int>(place_.size());
    place_node_.resize(count);
    delta_packer_.Assign(node_loads_);
    const int packed =
        delta_packer_.Pack(count, node_capacity_,
                           [&](int i) { return batch_.seq_lens[place_[i]]; },
                           [&](int i, int bucket, int64_t) { place_node_[i] = bucket; });
    if (packed < count) {
      return FallBack(DeltaOutcome::kRebasedCapacity);
    }
    delta_packer_.Loads(&node_loads_);
  }
  return FinishPatch(DeltaOutcome::kApplied, delta.size());
}

// --- Dirty-node intra-node re-run (Alg. 2) ----------------------------------

void DeltaPlanner::RepackNode(int node) {
  const int p = cluster_.gpus_per_node;
  const FabricView& fabric = scratch_.fabric;
  const int m = fabric.alive(node);
  std::vector<int>& members = node_members_[node];
  if (m == 0) {
    // Evicting a dead node's intra ring dirties it; its members have all
    // migrated off by now and no pick lands on it: nothing to re-pack.
    ZCHECK(members.empty()) << "dead node " << node << " still owns members";
    ZCHECK_EQ(node_loads_[node], 0) << "dead node " << node << " still owns load";
    return;
  }
  ++stats_.repacked_nodes;

  // Evict every member's current plan entry; pending members have none.
  // Loads need no arithmetic here: the re-run rebuilds this node's device
  // loads from the chunk base, and node membership (hence the node total the
  // inter-node packing sees) is unchanged by an intra re-run.
  for (int slot : members) {
    SeqLocation& loc = locations_[slot];
    switch (loc.kind) {
      case SeqLocation::Kind::kIntraRing:
        FreeRingSpan(plan_.intra_node[loc.pos]);
        RemoveIntraHeaderAt(loc.pos);
        break;
      case SeqLocation::Kind::kLocal:
        RemoveLocalAt(loc.pos);
        break;
      case SeqLocation::Kind::kPending:
        break;
      case SeqLocation::Kind::kZ2Ring:
      case SeqLocation::Kind::kNone:
        ZCHECK(false) << "invalid member state on node " << node;
    }
    loc.kind = SeqLocation::Kind::kPending;
  }

  // Alg. 2 packing order: length-descending, id-ascending — ascending
  // packed-key order, which is also the kernel's input form.
  ZCHECK_LE(static_cast<uint64_t>(batch_.size()), planner_internal::kIdxMask + 1)
      << "batch too large for packed keys";
  repack_keys_.resize(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    repack_keys_[i] = planner_internal::PackKey(batch_.seq_lens[members[i]], members[i]);
  }
  std::sort(repack_keys_.begin(), repack_keys_.end());
  for (uint32_t i = 0; i < members.size(); ++i) {
    members[i] = planner_internal::KeyId(repack_keys_[i]);
    locations_[members[i]].member_pos = i;
  }

  // Alive-device base loads from the persistent inter-chunk aggregates
  // (recorded with divisor m: ApplyTopology re-plans before any liveness
  // change on a chunk-carrying node), then the sharded engine's own Alg. 2
  // kernel over the node's alive devices.
  planner_internal::ExpandChunkBase(scratch_.node_chunk_whole, scratch_.node_chunk_rem, node, p,
                                    m, &repack_slab_.chunk_base);
  planner_internal::PackIntraNode(repack_keys_, repack_slab_.chunk_base, fabric, node,
                                  options_.token_capacity, options_.max_local_threshold,
                                  &repack_slab_, &repack_out_);

  // Commit: rings into recycled or tail spans, locals appended (z0 first,
  // then single-fragment z1 conversions — the engine's order).
  const RingStore& rings = repack_out_.rings;
  for (size_t r = 0; r < rings.ref_count; ++r) {
    const RingRef& ring = rings.refs[r];
    const uint32_t offset = AllocSpan(ring.rank_count);
    std::memcpy(plan_.rank_arena.data() + offset, rings.arena.data() + ring.rank_offset,
                sizeof(int) * ring.rank_count);
    SeqLocation& loc = locations_[ring.seq_id];
    loc.kind = SeqLocation::Kind::kIntraRing;
    loc.pos = static_cast<uint32_t>(plan_.intra_node.size());
    plan_.intra_node.push_back({ring.seq_id, ring.length, Zone::kIntraNode, offset,
                                ring.rank_count});
    live_ranks_ += ring.rank_count;
  }
  auto commit_local = [&](const LocalSequence& seq) {
    SeqLocation& loc = locations_[seq.seq_id];
    loc.kind = SeqLocation::Kind::kLocal;
    loc.pos = static_cast<uint32_t>(plan_.local.size());
    plan_.local.push_back(seq);
  };
  for (const LocalSequence& seq : repack_out_.locals) {
    commit_local(seq);
  }
  for (const LocalSequence& seq : repack_out_.locals_z1) {
    commit_local(seq);
  }
  std::fill_n(plan_.tokens_per_rank.begin() + node * p, p, int64_t{0});
  const std::span<const int> ranks = fabric.node_ranks(node);
  int64_t device_total = 0;
  for (int d = 0; d < m; ++d) {
    plan_.tokens_per_rank[ranks[d]] = repack_out_.device_loads[d];
    device_total += repack_out_.device_loads[d];
  }
  ZCHECK_EQ(device_total, node_loads_[node])
      << "intra re-run must conserve node " << node << " tokens";
  plan_.threshold_s0[node] = repack_out_.threshold_s0;
}

// --- Elastic topology patching ------------------------------------------------

bool DeltaPlanner::NodeHasChunks(int node) const {
  // Every recorded chunk lands in exactly one remainder bucket (including
  // r == 0), so the bucket sum is the node's chunk count.
  const int p = cluster_.gpus_per_node;
  for (int r = 0; r < p; ++r) {
    if (scratch_.node_chunk_rem[static_cast<size_t>(node) * p + r] > 0) {
      return true;
    }
  }
  return false;
}

DeltaOutcome DeltaPlanner::ApplyTopology(const TopologyDelta& delta) {
  // A restored rank re-joins its node's members, so its node must have had
  // an alive rank before the delta: a fully-dead node has none.
  const int p = cluster_.gpus_per_node;
  const bool restores_dead_node =
      std::any_of(delta.added_ranks.begin(), delta.added_ranks.end(), [&](int rank) {
        const auto first = topo_.alive.begin() + (rank / p) * p;
        return std::none_of(first, first + p, [](uint8_t alive) { return alive != 0; });
      });
  bool scales_up = !delta.added_ranks.empty();
  for (const auto& [rank, factor] : delta.speed_factors) {
    scales_up = scales_up || QuantizeSpeed(factor) > topo_.speed_q[rank];
  }
  // The fabric state always advances, even when the plan cannot be patched:
  // every later Rebase/Apply must honor the new topology.
  topo_.Apply(delta);
  if (!has_base_) {
    // Nothing to patch yet; not counted (no planning happened). The next
    // Apply()/Rebase() plans against the recorded fabric.
    return DeltaOutcome::kRebasedNoBase;
  }
  if (delta.empty()) {
    CountOutcome(DeltaOutcome::kAppliedTopology);
    return DeltaOutcome::kAppliedTopology;
  }
  if (base_refined_) {
    // Capacity-tight base (refined s1): incremental surgery could silently
    // diverge from what refinement would choose — same rule as Apply().
    return FallBack(DeltaOutcome::kRebasedRefined);
  }
  if (restores_dead_node) {
    return FallBackTopology(TopologyFallback::kDeadNodeRestore);
  }

  // Structural fallbacks. Chunk aggregates are keyed by the alive count they
  // were recorded under, so a liveness change on a chunk-carrying node (which
  // includes every node a z2 ring touches) invalidates them; a surviving
  // node whose raw load exceeds its reduced alive capacity cannot be fixed
  // by an intra re-run alone.
  for (const std::vector<int>* ranks : {&delta.removed_ranks, &delta.added_ranks}) {
    for (int rank : *ranks) {
      if (NodeHasChunks(rank / p)) {
        return FallBackTopology(TopologyFallback::kChunkNodeLiveness);
      }
    }
  }
  // The drift guard's reference is the base plan's balance on the base
  // fabric. Where the degraded rule placed more than the drift budget's
  // share of nodes, that balance says little of what a re-plan reaches on a
  // fabric with more capacity: re-plan a scale-up instead of holding it to
  // the old reference.
  if (scales_up && base_degraded_nodes_ > options_.replan_threshold * cluster_.num_nodes) {
    return FallBackTopology(TopologyFallback::kDegradedBase);
  }
  // The patch plans over the new fabric (a fallback's re-plan rebuilds the
  // view itself).
  scratch_.fabric.Build(cluster_, &topo_);
  const FabricView& fabric = scratch_.fabric;
  int64_t migrations = 0;
  int64_t total_load = 0;
  int64_t total_rate = 0;
  double peak_node_load = 0;  // Highest node load per unit of alive speed.
  for (int node = 0; node < cluster_.num_nodes; ++node) {
    total_load += node_loads_[node];
    if (fabric.alive(node) == 0) {
      migrations += static_cast<int64_t>(node_members_[node].size());
      continue;
    }
    if (node_loads_[node] > static_cast<int64_t>(fabric.alive(node)) * options_.token_capacity) {
      return FallBackTopology(TopologyFallback::kSurvivorOverload);
    }
    total_rate += fabric.rates[node];
    peak_node_load = std::max(peak_node_load, static_cast<double>(node_loads_[node]) /
                                                  static_cast<double>(fabric.rates[node]));
  }
  if (migrations > options_.migration_budget) {
    return FallBack(DeltaOutcome::kRebasedMigration);
  }
  // The patch keeps every surviving node's load, and a node's busiest
  // device carries at least the node's load over its alive speed: a kill
  // that lifts its node's survivors past the drift budget re-plans here,
  // before any patch work.
  if (total_load > 0 &&
      peak_node_load * static_cast<double>(total_rate) / static_cast<double>(total_load) >
          base_imbalance_ + options_.replan_threshold) {
    return FallBack(DeltaOutcome::kRebasedImbalance);
  }

  // ---- Patch path ----------------------------------------------------------
  ++epoch_;
  dirty_nodes_.clear();

  // Every surviving node the delta touches re-runs its intra stage over its
  // alive devices: kills and restores change the device set, speed changes
  // the effective-load balance within the node.
  auto touch = [&](int rank) {
    const int node = rank / p;
    if (fabric.alive(node) > 0) {
      MarkDirty(node);
    }
  };
  for (int rank : delta.removed_ranks) {
    touch(rank);
  }
  for (int rank : delta.added_ranks) {
    touch(rank);
  }
  for (const auto& [rank, factor] : delta.speed_factors) {
    touch(rank);
  }

  // Evict the members of fully-dead nodes into the migration set (copy the
  // member list first: EvictSlot swap-erases the list it walks).
  place_.clear();
  for (int rank : delta.removed_ranks) {
    const int node = rank / p;
    if (fabric.alive(node) > 0 || node_members_[node].empty()) {
      continue;
    }
    const size_t start = place_.size();
    place_.insert(place_.end(), node_members_[node].begin(), node_members_[node].end());
    for (size_t i = start; i < place_.size(); ++i) {
      EvictSlot(place_[i]);
    }
  }
  stats_.migrated_sequences += static_cast<int64_t>(place_.size());

  // Re-pack migrants cross-node, longest first (the shared packing order),
  // through the degraded node pick; then the usual local/dirty split.
  SortPlaceForPacking();
  if (!PickNodes()) {
    return FallBack(DeltaOutcome::kRebasedCapacity);
  }
  return FinishPatch(DeltaOutcome::kAppliedTopology, 0);
}

// --- Arena span management ----------------------------------------------------

uint32_t DeltaPlanner::AllocSpan(uint32_t count) {
  for (size_t i = 0; i < free_spans_.size(); ++i) {
    if (free_spans_[i].count >= count) {
      const uint32_t offset = free_spans_[i].offset;
      free_spans_[i].offset += count;
      free_spans_[i].count -= count;
      if (free_spans_[i].count == 0) {
        free_spans_[i] = free_spans_.back();
        free_spans_.pop_back();
      }
      free_total_ -= count;
      return offset;
    }
  }
  const uint32_t offset = static_cast<uint32_t>(plan_.rank_arena.size());
  plan_.rank_arena.resize(offset + count);
  return offset;
}

void DeltaPlanner::MaybeCompact() {
  // Compact when at least half the arena is dead (amortized O(1) per evicted
  // slot); the floor keeps tiny plans from thrashing.
  if (free_total_ < 64 || free_total_ * 2 <= plan_.rank_arena.size()) {
    return;
  }
  compact_buf_.clear();
  compact_buf_.reserve(live_ranks_);
  auto relocate = [&](std::vector<RingRef>& queue) {
    for (RingRef& ring : queue) {
      const uint32_t new_offset = static_cast<uint32_t>(compact_buf_.size());
      compact_buf_.insert(compact_buf_.end(),
                          plan_.rank_arena.begin() + ring.rank_offset,
                          plan_.rank_arena.begin() + ring.rank_offset + ring.rank_count);
      ring.rank_offset = new_offset;
    }
  };
  relocate(plan_.inter_node);
  relocate(plan_.intra_node);
  ZCHECK_EQ(compact_buf_.size(), live_ranks_) << "compaction lost arena slots";
  plan_.rank_arena.swap(compact_buf_);
  free_spans_.clear();
  free_total_ = 0;
  ++stats_.compactions;
}

// --- Equivalence checking -----------------------------------------------------

namespace {

// All inter-node-zone rings (length >= s1, from either queue) as
// (seq_id, length, rank list), sorted by sequence.
std::vector<std::tuple<int, int64_t, std::vector<int>>> Z2RingSet(const PartitionPlan& plan) {
  std::vector<std::tuple<int, int64_t, std::vector<int>>> out;
  auto collect = [&](const std::vector<RingRef>& queue) {
    for (const RingRef& ring : queue) {
      if (ring.length >= plan.threshold_s1) {
        const std::span<const int> ranks = plan.ranks(ring);
        out.emplace_back(ring.seq_id, ring.length,
                         std::vector<int>(ranks.begin(), ranks.end()));
      }
    }
  };
  collect(plan.inter_node);
  collect(plan.intra_node);
  std::sort(out.begin(), out.end());
  return out;
}

// Max rank load: raw tokens on a clean fabric (`degraded` null), speed-
// weighted effective load over the surviving ranks on a degraded one.
int64_t MaxRankLoad(const PartitionPlan& plan, const RankTopology* degraded) {
  int64_t max_load = 0;
  for (int rank = 0; rank < static_cast<int>(plan.tokens_per_rank.size()); ++rank) {
    if (degraded == nullptr) {
      max_load = std::max(max_load, plan.tokens_per_rank[rank]);
    } else if (degraded->alive[rank]) {
      max_load = std::max(max_load, degraded->EffectiveLoad(rank, plan.tokens_per_rank[rank]));
    }
  }
  return max_load;
}

// Both plans pass VerifyPlan (coverage, arena, conservation and — degraded —
// dead-rank exclusion; the balance and capacity clauses are off), then the
// relational clauses: s1 and z2 ring-set identity on a clean fabric, and the
// patched/replan max-load ratio.
DeltaEquivalenceResult CheckEquivalence(const PartitionPlan& patched,
                                        const PartitionPlan& replan, const Batch& batch,
                                        const RankTopology* degraded, double eps) {
  DeltaEquivalenceResult result;
  PlanVerifyOptions vopts;
  vopts.eps = -1;
  for (const auto& [plan, name] : {std::pair{&patched, "patched plan"},
                                   std::pair{&replan, "replan"}}) {
    const PlanVerifyResult verdict = VerifyPlan(*plan, &batch, degraded, vopts);
    if (!verdict.ok()) {
      result.failure = std::string(name) + " fails VerifyPlan (" +
                       PlanVerifyStatusName(verdict.status) + "): " + verdict.message;
      return result;
    }
  }

  // On a degraded fabric zone thresholds and z2 chunking depend on the
  // surviving ranks, so the patched plan legitimately keeps pre-failure zone
  // structure a from-scratch re-plan would not reproduce.
  if (degraded == nullptr) {
    if (patched.threshold_s1 != replan.threshold_s1) {
      result.failure = "threshold_s1 mismatch (capacity-tight batch refined differently)";
      return result;
    }
    if (Z2RingSet(patched) != Z2RingSet(replan)) {
      result.failure = "inter-node-zone ring sets differ";
      return result;
    }
  }

  const int64_t patched_max = MaxRankLoad(patched, degraded);
  const int64_t replan_max = MaxRankLoad(replan, degraded);
  result.max_load_ratio =
      replan_max > 0 ? static_cast<double>(patched_max) / static_cast<double>(replan_max) : 1.0;
  if (static_cast<double>(patched_max) > (1.0 + eps) * static_cast<double>(replan_max)) {
    result.failure = degraded == nullptr
                         ? "patched max rank load exceeds the eps bound"
                         : "patched max effective rank load exceeds the eps bound";
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace

DeltaEquivalenceResult CheckDeltaEquivalence(const PartitionPlan& patched,
                                             const PartitionPlan& replan,
                                             const Batch& batch, double eps) {
  return CheckEquivalence(patched, replan, batch, nullptr, eps);
}

DeltaEquivalenceResult CheckDeltaEquivalence(const PartitionPlan& patched,
                                             const PartitionPlan& replan,
                                             const Batch& batch,
                                             const RankTopology& topology, double eps) {
  return CheckEquivalence(patched, replan, batch, topology.degraded() ? &topology : nullptr,
                          eps);
}

}  // namespace zeppelin
