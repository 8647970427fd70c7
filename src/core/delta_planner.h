// Incremental delta-planning subsystem for streaming / online batches.
//
// Motivation: in online training and continuous-batching serving, consecutive
// iterations' batches differ by a handful of sequences, yet a full
// SequencePartitioner::Partition() re-plans all S sequences from scratch
// every iteration. The DeltaPlanner keeps the planner's decision state alive
// between iterations — per-node loads, per-node membership, the inter-node
// chunk aggregates, the zone thresholds, the base plan's z2 prefix and the
// engine's own per-node intra results — and applies a BatchDelta by evicting
// only the affected entries, re-packing only the changed sequences (through
// the same round-batched GreedyPacker the parallel engine uses), and
// re-running Alg. 2 only on the nodes whose z1 set changed. The flat plan is
// assembled from the prefix and the per-node results by the engine's own
// merge (planner_internal::MergeNodeResults), so every plan is laid out as
// the engine lays out its per-node results. Patch cost is O(|delta| · log P +
// dirty-node work) instead of O((S + P) log P) (bench/planner_delta.cpp,
// BENCH_delta.json); the assembly is one O(plan) pass, paid where the plan
// is read.
//
// Patch granularity follows the coupling structure of Alg. 1/2:
//
//   z0 locals (the bulk of long-tailed batches) are independent: a removed
//   local is subtracted and swap-erased within its node's result; an added
//   one packs onto the globally least-loaded node, then that node's
//   least-loaded device, and appends to the node's locals. O(log P) each.
//
//   z1 rings are coupled *within a node* through c_avg (the quadratic-work
//   average that sets fragment counts): any churn touching a node's z1 set —
//   a ring evicted, a z1-length sequence added, or a local overflowing device
//   capacity — marks the node dirty, and the node's intra-node stage (Alg. 2)
//   re-runs from its persistent inputs for that node only, straight into the
//   node's result. Untouched nodes' results are not rewritten.
//
//   z2 sequences are coupled *globally* through s_avg and the shared node
//   loads that all chunk placement reads; any churn touching the inter-node
//   zone falls back to a full re-plan (Rebase). In long-tailed workloads z2
//   churn is rare by construction.
//
// Full re-plans (Rebase and every fallback) are one call on every fabric:
// SequencePartitioner::Partition with the planner's RankTopology, then
// CaptureState. Fabric churn (ApplyTopology) patches through the same
// dirty-node kernel and the engine's degraded node-pick rule, so the
// degraded fabric has no planning code of its own (docs/ELASTIC.md).
//
// Fallback policy (full re-plan, also exposed in DeltaStats): no base plan
// yet; churn fraction above DeltaPlannerOptions::replan_threshold; delta
// touches the inter-node zone; the base plan's s1 was refined below its
// initial cap (capacity-tight batch — incremental packing could silently
// diverge from what refinement would choose); incremental packing overflows
// node capacity or the batch outgrows the pinned token capacity; or the
// patched plan's token imbalance drifts more than replan_threshold above the
// last full re-plan's. The imbalance guard is what turns the greedy patch
// into a bounded-quality algorithm: a patched plan either stays within the
// drift budget or is replaced by an exact one.
//
// Determinism and equivalence contract: the delta path is deterministic
// (identical delta streams yield identical plans — pinned by StateDigest in
// the soak tests), and a patched plan is *ring-set-equivalent* to a
// from-scratch plan on the same batch at the same capacity: identical
// coverage (every sequence exactly once), identical inter-node (z2) ring set,
// token conservation, and max rank load within ε of the full re-plan's.
// Byte-identity is impossible by design — greedy packing is
// history-dependent, so intra-node assignments legitimately differ — which
// is why the contract is checked through CheckDeltaEquivalence rather than
// operator==. See docs/DELTA_PLANS.md for the state machine and the
// per-node results (a delta plan keeps every arena invariant of
// docs/PLAN_FORMAT.md, tightness and emission order included).
#ifndef SRC_CORE_DELTA_PLANNER_H_
#define SRC_CORE_DELTA_PLANNER_H_

#include <array>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/greedy_packer.h"
#include "src/common/normalized_loads.h"
#include "src/core/partitioner.h"
#include "src/data/stream.h"
#include "src/topology/cluster.h"

namespace zeppelin {

struct DeltaPlannerOptions {
  // Per-device token capacity L. Required (> 0) and *pinned* across deltas:
  // zone thresholds derive from it, so comparing a patched plan against a
  // full re-plan is only meaningful at a fixed capacity. Rebase raises it
  // automatically (avg + 25% headroom, like ZeppelinStrategy) if the batch
  // outgrows world * L.
  int64_t token_capacity = 0;
  // Optional cap on automatic capacity raises (e.g. the memory model's
  // bound); 0 = uncapped. Ignored when even the cap cannot fit the batch.
  int64_t capacity_ceiling = 0;
  // Caps on the initial zone thresholds, mirroring
  // SequencePartitioner::Options (the zone-aware-initialization extension).
  int64_t max_inter_threshold = 0;
  int64_t max_local_threshold = 0;
  // Fallback knob (ZeppelinOptions::delta_replan_threshold): full re-plan
  // when the churn fraction — churned slots / live sequences, where a
  // removal refilled by an addition is one replaced slot — exceeds this, or
  // when the patched plan's token imbalance (max/mean) drifts more than this
  // above the best imbalance since the last full re-plan.
  double replan_threshold = 0.05;
  // Elastic fallback knob: ApplyTopology() migrates at most this many
  // sequences off dead nodes per delta; past the budget it falls back to a
  // full re-plan on the surviving fabric instead (kRebasedMigration) —
  // patching each migrant individually would cost more than re-planning.
  int64_t migration_budget = 256;
};

// Why the last Apply()/ApplyTopology() patched or fell back (also counted in
// DeltaStats).
enum class DeltaOutcome : uint8_t {
  kApplied = 0,       // Patched incrementally.
  kRebasedNoBase,     // No base plan yet (first call or invalidated state).
  kRebasedChurn,      // Churn fraction above replan_threshold.
  kRebasedZone,       // Delta touches the inter-node zone (len >= s1).
  kRebasedRefined,    // Base plan refined s1 (capacity-tight batch).
  kRebasedCapacity,   // Packing overflow or batch outgrew the capacity.
  kRebasedImbalance,  // Patched imbalance drifted past the threshold.
  kAppliedTopology,   // Topology delta patched incrementally.
  kRebasedTopology,   // Topology change was structural (TopologyFallback).
  kRebasedMigration,  // Dead-node migration exceeded migration_budget.
};

inline constexpr int kNumDeltaOutcomes = static_cast<int>(DeltaOutcome::kRebasedMigration) + 1;

const char* DeltaOutcomeName(DeltaOutcome outcome);

// Why an ApplyTopology() call fell back with kRebasedTopology (counted in
// DeltaStats::topology_fallbacks).
enum class TopologyFallback : uint8_t {
  kDeadNodeRestore = 0,  // A rank restored onto a node with no alive rank.
  kChunkNodeLiveness,    // Liveness changed on a node carrying z2 chunks.
  kSurvivorOverload,     // A surviving node's load exceeds its alive capacity.
  kDegradedBase,         // A scale-up on a base planned around many degraded nodes.
};

inline constexpr int kNumTopologyFallbacks =
    static_cast<int>(TopologyFallback::kDegradedBase) + 1;

const char* TopologyFallbackName(TopologyFallback cause);

// Cumulative counters over a DeltaPlanner's lifetime.
struct DeltaStats {
  // Apply()/ApplyTopology() calls per outcome, indexed by DeltaOutcome.
  std::array<int64_t, kNumDeltaOutcomes> outcomes{};
  // kRebasedTopology calls per cause, indexed by TopologyFallback.
  std::array<int64_t, kNumTopologyFallbacks> topology_fallbacks{};
  int64_t migrated_sequences = 0;  // Sequences moved off dead nodes in place.
  int64_t patched_sequences = 0;  // Sequences placed by the delta path.
  int64_t evicted_rings = 0;      // Rings replaced (delta evictions + dirty re-runs).
  int64_t repacked_nodes = 0;     // Dirty-node Alg. 2 re-runs.

  int64_t count(DeltaOutcome outcome) const { return outcomes[static_cast<int>(outcome)]; }
  // Patch calls that fell back to a full re-plan (every kRebased* outcome).
  int64_t rebased() const {
    return std::accumulate(outcomes.begin(), outcomes.end(), int64_t{0}) -
           count(DeltaOutcome::kApplied) - count(DeltaOutcome::kAppliedTopology);
  }
};

// Keeps a PartitionPlan and the planner state that produced it alive across
// iterations, patching both in response to BatchDeltas. Not thread-safe; one
// instance per planning thread.
class DeltaPlanner {
 public:
  DeltaPlanner(const ClusterSpec& cluster, DeltaPlannerOptions options);

  // Full re-plan on `batch`: runs the SequencePartitioner and captures the
  // incremental state the delta path needs. Establishes the base plan and
  // the imbalance reference for the drift guard. Does not count in stats
  // (only Apply() outcomes do).
  void Rebase(const Batch& batch);

  // Advances one iteration: applies `delta` to the internal batch and either
  // patches the plan in place or falls back to a full re-plan, per the
  // policy above. Slot ids must be valid and not repeated within one delta.
  DeltaOutcome Apply(const BatchDelta& delta);

  // Folds a topology change (rank kills/restores/slowdowns) into the planner
  // and patches the plan under the new fabric. The patch policy mirrors
  // Apply(): only the nodes the delta touches change — a node that lost,
  // regained or re-rated a rank but keeps an alive one re-runs its intra
  // stage over its alive devices (its members and node load stay put); a
  // fully-dead node's members are evicted and re-packed cross-node through
  // the degraded node pick — and fall back to a full re-plan on the new
  // fabric (the engine with topology()) when the change is structural:
  //   kRebasedTopology  — a rank restored onto a node with no alive rank
  //                       (it has no members; its work must cross nodes),
  //                       liveness changed on a node carrying inter-node
  //                       chunks (the chunk aggregates are keyed by the alive
  //                       count they were recorded under), a surviving
  //                       node's load exceeds its reduced alive capacity, or
  //                       a restore or speed-up lands on a base plan whose
  //                       fabric had more than replan_threshold of its nodes
  //                       degraded (TopologyFallback names the cause);
  //   kRebasedMigration — dead-node migration exceeds migration_budget;
  // plus the shared capacity/imbalance guards (the imbalance guard also runs
  // before any patch work, on the busiest node's load over its alive speed).
  // The topology state persists across rebases: every subsequent full
  // re-plan passes it to the engine, which excludes dead ranks and balances
  // on speed-weighted loads. With no base plan the state is recorded and
  // kRebasedNoBase is returned without planning (uncounted; the next
  // Apply()/Rebase() plans against the new fabric).
  DeltaOutcome ApplyTopology(const TopologyDelta& delta);

  // The fabric state all planning paths currently honor (dead ranks receive
  // no work; slow ranks are balanced by effective load).
  const RankTopology& topology() const { return topo_; }

  // Drops the base plan; the next Apply() rebases (kRebasedNoBase). Called
  // when external planning bypasses this planner.
  void Invalidate() { has_base_ = false; }

  bool has_base() const { return has_base_; }
  // The current batch (after all applied deltas) and its plan. The plan
  // reference is stable; its contents change with every Rebase/Apply, and
  // the first call after a patch assembles it.
  const Batch& batch() const { return batch_; }
  const PartitionPlan& plan() const;
  // Writes the current plan into `out`, recycling its storage: the z2
  // prefix, then every node's result in node order — the engine's merge.
  void AssemblePlan(PartitionPlan* out) const;
  const DeltaStats& stats() const { return stats_; }
  const ClusterSpec& cluster() const { return cluster_; }
  // Current pinned capacity (may have been auto-raised by a Rebase).
  int64_t token_capacity() const { return options_.token_capacity; }
  const DeltaPlannerOptions& options() const { return options_; }

  // Replaces the options; invalidates the base (thresholds derive from
  // capacity, so patched state cannot be reinterpreted under new options).
  void set_options(DeltaPlannerOptions options);

 private:
  struct SeqLocation {
    enum class Kind : uint8_t {
      kNone = 0,   // Not a z01 member (z2, just evicted, or never placed).
      kIntraRing,  // z1 ring in its node's result.
      kLocal,      // Entry in its node's result.locals.
      kZ1Local,    // Entry in its node's result.locals_z1.
      kPending,    // Node member awaiting placement in this Apply().
    };
    Kind kind = Kind::kNone;
    int node = -1;            // Owning node.
    uint32_t pos = 0;         // kLocal/kZ1Local: index into the local list.
    uint32_t member_pos = 0;  // Index into node_members_[node].
  };

  void RebaseInternal();
  void CaptureState();
  // Re-lists `node`'s members and their locations from its result.
  void IndexNode(int node);
  void EnsureCapacityFits(int64_t total_tokens);

  // True when `node` carries inter-node chunk aggregates (z2 chunk counts are
  // keyed by the alive count they were recorded under, so liveness changes on
  // such a node are structural).
  bool NodeHasChunks(int node) const;
  // Why `delta` cannot be patched in place, or kApplied when it can.
  DeltaOutcome BatchFallbackReason(const BatchDelta& delta) const;
  DeltaOutcome FallBack(DeltaOutcome reason);  // batch_ already holds the delta.
  DeltaOutcome FallBackTopology(TopologyFallback cause);
  void CountOutcome(DeltaOutcome outcome) { ++stats_.outcomes[static_cast<int>(outcome)]; }

  // Drops `slot` from its node: a local is swap-erased from its node's result
  // and its device load subtracted; a z1 ring stays in the result until the
  // node, marked dirty, re-runs. node_loads_ loses the slot's length (a node
  // load never goes negative). Reads the slot's (old) length from batch_, so
  // it must run before the delta lands in batch_.
  void EvictSlot(int slot);
  void RemoveMember(int node, uint32_t member_pos);

  // Places `slot` (length < s0, already a member of `node`) as a z0 local on
  // the node's least-loaded device. Returns false on device-capacity
  // overflow (caller marks the node dirty instead).
  bool PlaceLocal(int slot, int node);
  void MarkDirty(int node);
  // The patch steps Apply() and ApplyTopology() share. PickNodes places
  // place_ by the engine's degraded node rule, charging node_loads_ (false on
  // overflow). Admit makes `slot` a pending member of `node`, then places it
  // as a local or marks the node dirty. FinishPatch admits every place_ slot,
  // re-runs the dirty nodes, and guards the imbalance.
  void SortPlaceForPacking();
  bool PickNodes();
  void Admit(int slot, int node);
  DeltaOutcome FinishPatch(DeltaOutcome applied, size_t patched);
  bool IsDirty(int node) const { return node_dirty_epoch_[node] == epoch_; }

  // Re-runs the intra-node stage (Alg. 2) for one dirty node over its member
  // list: re-derives s0 from the pinned capacity, re-fragments z1 and
  // re-packs z0 with the sharded engine's per-node kernel
  // (planner_internal::PackIntraNode) over the node's alive devices, straight
  // into the node's result — Alg. 2 exactly as a full plan computes it,
  // clean or degraded.
  void RepackNode(int node);

  double Imbalance() const;

  ClusterSpec cluster_;
  DeltaPlannerOptions options_;
  SequencePartitioner partitioner_;
  // The last full re-plan. Its z2 prefix (inter_node, the first
  // scratch_.intra_ring_count intra headers, the first scratch_.arena_count
  // arena slots) and threshold_s1 are what a delta never changes; the rest
  // is re-assembled by plan() after a patch.
  mutable PartitionPlan plan_;
  mutable bool plan_stale_ = false;
  Batch batch_;

  // The engine's state for the base plan, read in place between rebases:
  // threshold_s1_initial, node_chunk_* (a delta never changes z2 chunks),
  // the z2 prefix cursors and fabric (ApplyTopology rebuilds it from topo_).
  // Only RebaseInternal's Partition call writes the rest.
  PlannerScratch scratch_;
  // Per node: the engine's Alg. 2 result, adopted from scratch_ by swap after
  // each re-plan and patched in place since (its device_loads are the live
  // per-rank loads of the node's alive ranks).
  std::vector<NodeIntraResult> node_results_;

  bool has_base_ = false;
  RankTopology topo_;          // Fabric state (persists across rebases).
  int64_t node_capacity_ = 0;  // gpus_per_node * token_capacity.
  bool base_refined_ = false;  // Base plan ended with s1 < threshold_s1_initial.
  double base_imbalance_ = 1.0;
  int base_degraded_nodes_ = 0;  // Nodes not clean on the base plan's fabric.
  int live_count_ = 0;         // Non-tombstone sequences in batch_.

  std::vector<SeqLocation> locations_;        // Per slot.
  std::vector<std::vector<int>> node_members_;  // Per node: its z01 slots.
  std::vector<int64_t> node_loads_;             // Per node: its token total.

  // Apply() scratch (reused, steady-state allocation-free).
  int epoch_ = 0;
  std::vector<int> node_dirty_epoch_;
  std::vector<int> slot_epoch_;
  std::vector<int> dirty_nodes_;
  std::vector<int> added_slots_;
  std::vector<int> place_;       // Slots to (re)place, length-descending.
  std::vector<int> place_node_;  // Node chosen for each placed slot.
  GreedyPacker delta_packer_;
  std::vector<uint64_t> repack_keys_;  // RepackNode: members as packed keys.
  IntraWorkerSlab repack_slab_;        // RepackNode: kernel scratch.
  NormalizedLoads node_picks_;         // Degraded node placement.

  DeltaStats stats_;
};

// --- Equivalence checking (delta soak tests + planner-delta bench) ----------

// Executable form of the delta determinism contract: verifies that `patched`
// is ring-set-equivalent to `replan` (a from-scratch plan on the same batch
// at the same capacity) within load tolerance `eps`. It is VerifyPlan
// (src/core/plan_verify.h) on each plan — against the batch, with the
// capacity and balance clauses off — plus the relational clauses only a pair
// of plans can state:
//   1. both plans pass VerifyPlan: coverage with matching lengths, arena
//      validity, rank validity and token conservation;
//   2. identical s1 and identical inter-node-zone ring set (sequence, length,
//      exact rank list) across both queues;
//   3. ε-bound — max(patched tokens_per_rank) <= (1+eps) * max(replan's).
struct DeltaEquivalenceResult {
  bool ok = false;
  std::string failure;        // Empty when ok; first violated clause otherwise.
  double max_load_ratio = 0;  // patched max rank load / replan max rank load.
};

DeltaEquivalenceResult CheckDeltaEquivalence(const PartitionPlan& patched,
                                             const PartitionPlan& replan,
                                             const Batch& batch, double eps);

// Topology-aware form for post-failure plans. On a clean topology it is the
// check above. On a degraded one, VerifyPlan also receives the topology (so
// neither plan may touch a dead rank or declare load on one), and the
// relational clauses change shape — zone thresholds and z2 chunking are
// load-dependent on the surviving fabric, so s1 identity and z2-ring-set
// identity cannot be required of a patched plan — leaving:
//   3'. ε-bound on speed-weighted *effective* loads over the surviving
//       fabric: max alive eff(patched) <= (1+eps) * max alive eff(replan).
DeltaEquivalenceResult CheckDeltaEquivalence(const PartitionPlan& patched,
                                             const PartitionPlan& replan,
                                             const Batch& batch,
                                             const RankTopology& topology,
                                             double eps);

}  // namespace zeppelin

#endif  // SRC_CORE_DELTA_PLANNER_H_
