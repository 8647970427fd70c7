#include "src/core/delta_planner.h"

#include <algorithm>
#include <numeric>
#include <span>
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
      partitioner_(cluster, options.partitioner) {
  cluster_.Validate();
  ZCHECK_GT(token_capacity(), 0);
  ZCHECK_GE(options_.replan_threshold, 0);
  ZCHECK_GE(options_.migration_budget, 0);
  topo_.Reset(cluster_.world_size());
}

void DeltaPlanner::set_options(DeltaPlannerOptions options) {
  options_ = options;
  ZCHECK_GT(token_capacity(), 0);
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
  if (total_tokens <= world * token_capacity()) {
    return;
  }
  // The service's derivation, over the alive devices and the caller's ceiling.
  options_.partitioner.token_capacity =
      HeadroomCapacity(total_tokens, world, options_.capacity_ceiling);
}

void DeltaPlanner::Rebase(const Batch& batch) {
  batch_ = batch;
  RebaseInternal();
}

void DeltaPlanner::RebaseInternal() {
  ZCHECK_GT(batch_.size(), 0);
  EnsureCapacityFits(batch_.total_tokens());
  partitioner_.set_options(options_.partitioner);
  // The fabric state is a planning input: a degraded topology plans over
  // the alive ranks with speed-normalized loads, a clean one byte for byte
  // as the plain engine.
  partitioner_.Partition(batch_, &scratch_, &plan_, &topo_);
  CaptureState();
}

void DeltaPlanner::CaptureState() {
  const int num_nodes = cluster_.num_nodes;
  const int n = batch_.size();

  node_capacity_ = static_cast<int64_t>(cluster_.gpus_per_node) * token_capacity();
  base_refined_ = plan_.threshold_s1 < scratch_.threshold_s1_initial;
  plan_stale_ = false;
  // The engine's per-node results become the patchable state; the scratch
  // gets the old ones back as storage for the next re-plan.
  node_results_.swap(scratch_.node_results);

  locations_.assign(n, SeqLocation{});
  slot_epoch_.assign(n, 0);
  node_dirty_epoch_.assign(num_nodes, 0);
  epoch_ = 0;
  node_members_.resize(num_nodes);
  node_loads_.assign(num_nodes, 0);
  for (int node = 0; node < num_nodes; ++node) {
    IndexNode(node);
    const std::vector<int64_t>& loads = node_results_[node].device_loads;
    node_loads_[node] = std::accumulate(loads.begin(), loads.end(), int64_t{0});
  }

  live_count_ = 0;
  for (int64_t len : batch_.seq_lens) {
    live_count_ += len > 0 ? 1 : 0;
  }
  base_imbalance_ = Imbalance();
  base_degraded_nodes_ = static_cast<int>(
      std::count(scratch_.fabric.clean.begin(), scratch_.fabric.clean.end(), uint8_t{0}));
  has_base_ = true;
}

void DeltaPlanner::IndexNode(int node) {
  std::vector<int>& members = node_members_[node];
  members.clear();
  const NodeIntraResult& result = node_results_[node];
  auto join = [&](int slot, SeqLocation::Kind kind, size_t pos) {
    locations_[slot] = {kind, node, static_cast<uint32_t>(pos),
                        static_cast<uint32_t>(members.size())};
    members.push_back(slot);
  };
  for (size_t i = 0; i < result.rings.ref_count; ++i) {
    join(result.rings.refs[i].seq_id, SeqLocation::Kind::kIntraRing, i);
  }
  for (size_t i = 0; i < result.locals.size(); ++i) {
    join(result.locals[i].seq_id, SeqLocation::Kind::kLocal, i);
  }
  for (size_t i = 0; i < result.locals_z1.size(); ++i) {
    join(result.locals_z1[i].seq_id, SeqLocation::Kind::kZ1Local, i);
  }
}

const PartitionPlan& DeltaPlanner::plan() const {
  if (plan_stale_) {
    AssemblePlan(&plan_);
    plan_stale_ = false;
  }
  return plan_;
}

void DeltaPlanner::AssemblePlan(PartitionPlan* out) const {
  const size_t prefix_rings = scratch_.intra_ring_count;
  const size_t prefix_slots = scratch_.arena_count;
  if (out != &plan_) {
    out->inter_node = plan_.inter_node;
    out->intra_node.assign(plan_.intra_node.begin(), plan_.intra_node.begin() + prefix_rings);
    out->rank_arena.assign(plan_.rank_arena.begin(), plan_.rank_arena.begin() + prefix_slots);
    out->threshold_s1 = plan_.threshold_s1;
  }
  out->tokens_per_rank.assign(cluster_.world_size(), 0);
  out->threshold_s0.resize(cluster_.num_nodes);
  planner_internal::MergeNodeResults(node_results_, scratch_.fabric, prefix_rings, prefix_slots,
                                     out);
}

double DeltaPlanner::Imbalance() const {
  // Speed-weighted effective loads over the alive ranks: on a clean topology
  // this is exactly max/mean of tokens_per_rank (eff == raw at nominal
  // speed), so the homogeneous guard is unchanged.
  const FabricView& fabric = scratch_.fabric;
  int64_t total = 0;
  int64_t max_load = 0;
  for (int node = 0; node < cluster_.num_nodes; ++node) {
    const std::span<const int> ranks = fabric.node_ranks(node);
    for (size_t d = 0; d < ranks.size(); ++d) {
      const int64_t eff = topo_.EffectiveLoad(ranks[d], node_results_[node].device_loads[d]);
      total += eff;
      max_load = std::max(max_load, eff);
    }
  }
  const double mean =
      static_cast<double>(total) / std::max(static_cast<int>(fabric.ranks.size()), 1);
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

void DeltaPlanner::RemoveMember(int node, uint32_t member_pos) {
  std::vector<int>& members = node_members_[node];
  const uint32_t last = static_cast<uint32_t>(members.size()) - 1;
  if (member_pos != last) {
    members[member_pos] = members[last];
    locations_[members[member_pos]].member_pos = member_pos;
  }
  members.pop_back();
}

void DeltaPlanner::EvictSlot(int slot) {
  ZCHECK(slot >= 0 && slot < batch_.size()) << "delta slot out of range: " << slot;
  SeqLocation& loc = locations_[slot];
  const int64_t old_len = batch_.seq_lens[slot];
  switch (loc.kind) {
    case SeqLocation::Kind::kLocal:
    case SeqLocation::Kind::kZ1Local: {
      NodeIntraResult& result = node_results_[loc.node];
      std::vector<LocalSequence>& locals =
          loc.kind == SeqLocation::Kind::kLocal ? result.locals : result.locals_z1;
      ZCHECK_EQ(locals[loc.pos].seq_id, slot);
      // The result's device order is the node's alive ranks, ascending.
      const std::span<const int> ranks = scratch_.fabric.node_ranks(loc.node);
      result.device_loads[std::lower_bound(ranks.begin(), ranks.end(), locals[loc.pos].rank) -
                          ranks.begin()] -= old_len;
      if (loc.pos + 1 != locals.size()) {
        locals[loc.pos] = locals.back();
        locations_[locals[loc.pos].seq_id].pos = loc.pos;
      }
      locals.pop_back();
      break;
    }
    case SeqLocation::Kind::kIntraRing:
      // The node's remaining z1 fragmentation was computed against a c_avg
      // that just changed: the ring stays in the node's result until the
      // node's intra stage re-runs and replaces it.
      MarkDirty(loc.node);
      break;
    case SeqLocation::Kind::kNone:
    case SeqLocation::Kind::kPending:
      ZCHECK(false) << "duplicate, unplaced or z2 slot in delta: " << slot;
      break;
  }
  RemoveMember(loc.node, loc.member_pos);
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
  NodeIntraResult& result = node_results_[node];
  const std::span<const int> ranks = scratch_.fabric.node_ranks(node);
  const int64_t len = batch_.seq_lens[slot];
  // Least-effective-loaded alive device, ties to the lowest index. On a clean
  // topology effective == raw load and every device is alive, so this is
  // byte-identical to the packing rule every engine shares. p is small (gpus
  // per node); a scan beats a heap here.
  int best = -1;
  int64_t best_eff = 0;
  for (int d = 0; d < static_cast<int>(ranks.size()); ++d) {
    const int64_t eff = topo_.EffectiveLoad(ranks[d], result.device_loads[d]);
    if (best < 0 || eff < best_eff) {
      best = d;
      best_eff = eff;
    }
  }
  if (best < 0 || result.device_loads[best] + len > token_capacity()) {
    return false;  // Device overflow: Alg. 2 refinement (dirty re-run) handles it.
  }
  result.device_loads[best] += len;
  SeqLocation& loc = locations_[slot];
  loc.kind = SeqLocation::Kind::kLocal;
  loc.pos = static_cast<uint32_t>(result.locals.size());
  result.locals.push_back({slot, len, ranks[best]});
  return true;
}

void DeltaPlanner::Admit(int slot, int node) {
  SeqLocation& loc = locations_[slot];
  ZCHECK(loc.kind == SeqLocation::Kind::kNone) << "placing a still-placed slot " << slot;
  loc.kind = SeqLocation::Kind::kPending;
  loc.node = node;
  loc.member_pos = static_cast<uint32_t>(node_members_[node].size());
  node_members_[node].push_back(slot);
  if (batch_.seq_lens[slot] >= node_results_[node].threshold_s0) {
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
                       return static_cast<int64_t>(fabric.alive(node)) * token_capacity();
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

  const double imbalance = Imbalance();
  if (imbalance > base_imbalance_ + options_.replan_threshold) {
    return FallBack(DeltaOutcome::kRebasedImbalance);
  }
  // Ratchet the drift reference downward when a patch improves balance, so
  // the allowance tracks the best achieved quality rather than a stale base
  // (a full re-plan resets it exactly).
  base_imbalance_ = std::min(base_imbalance_, imbalance);
  plan_stale_ = true;
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
  const FabricView& fabric = scratch_.fabric;
  const int m = fabric.alive(node);
  // A dead node's members migrate off before any re-run, and no pick lands
  // on it, so it is never dirty.
  ZCHECK_GT(m, 0) << "dirty node " << node << " has no alive rank";
  ++stats_.repacked_nodes;
  NodeIntraResult& result = node_results_[node];
  stats_.evicted_rings += static_cast<int64_t>(result.rings.ref_count);

  // Alg. 2 packing order: length-descending, id-ascending — ascending
  // packed-key order, which is also the kernel's input form.
  const std::vector<int>& members = node_members_[node];
  ZCHECK_LE(static_cast<uint64_t>(batch_.size()), planner_internal::kIdxMask + 1)
      << "batch too large for packed keys";
  repack_keys_.resize(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    repack_keys_[i] = planner_internal::PackKey(batch_.seq_lens[members[i]], members[i]);
  }
  std::sort(repack_keys_.begin(), repack_keys_.end());

  // Alive-device base loads from the persistent inter-chunk aggregates
  // (recorded with divisor m: ApplyTopology re-plans before any liveness
  // change on a chunk-carrying node), then the sharded engine's own Alg. 2
  // kernel over the node's alive devices, straight into the node's result.
  planner_internal::ExpandChunkBase(scratch_.node_chunk_whole, scratch_.node_chunk_rem, node,
                                    cluster_.gpus_per_node, m, &repack_slab_.chunk_base);
  planner_internal::PackIntraNode(repack_keys_, repack_slab_.chunk_base, fabric, node,
                                  token_capacity(), options_.partitioner.max_local_threshold,
                                  &repack_slab_, &result);
  IndexNode(node);
  ZCHECK_EQ(std::accumulate(result.device_loads.begin(), result.device_loads.end(), int64_t{0}),
            node_loads_[node])
      << "intra re-run must conserve node " << node << " tokens";
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
    if (node_loads_[node] > static_cast<int64_t>(fabric.alive(node)) * token_capacity()) {
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

  // A fully-dead node's members form the migration set. Its result empties
  // (it has no device left to load; its s0 stays) and its load leaves with
  // them: it carries no chunks, or the delta would have re-planned above.
  place_.clear();
  for (int rank : delta.removed_ranks) {
    const int node = rank / p;
    if (fabric.alive(node) > 0) {
      continue;
    }
    NodeIntraResult& result = node_results_[node];
    stats_.evicted_rings += static_cast<int64_t>(result.rings.ref_count);
    result.rings.Reset();
    result.locals.clear();
    result.locals_z1.clear();
    result.device_loads.clear();
    for (int slot : node_members_[node]) {
      locations_[slot] = SeqLocation{};
    }
    place_.insert(place_.end(), node_members_[node].begin(), node_members_[node].end());
    node_members_[node].clear();
    node_loads_[node] = 0;
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
