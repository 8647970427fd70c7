// Hierarchical sequence partitioner (paper §3.1, Algorithms 1 and 2).
//
// Two-level planning executed once per iteration on the global batch:
//
//   Inter-node stage (Alg. 1): determines the boundary s1 between the
//   inter-node zone z2 and everything shorter (z01), chunks each z2 sequence
//   over ceil(|s| / s_avg) node buckets (communication — the bottleneck at
//   this level — is balanced by giving cross-node sequences the coarsest
//   granularity that still fits), then packs z01 sequences into the
//   least-loaded node buckets. If a z01 sequence overflows node capacity P*L,
//   s1 shrinks to max(z01) and the stage repeats.
//
//   Intra-node stage (Alg. 2): per node, spreads that node's inter-node
//   chunks over all P devices, determines the boundary s0 between intra-node
//   z1 and local z0 sequences, splits each z1 sequence into
//   ceil(|s|^2 / c_avg) fragments (quadratic work, the bottleneck at this
//   level, is balanced) placed round-robin, then packs local sequences onto
//   the least-loaded devices, shrinking s0 and repeating on overflow.
//
// The fabric is an input, like the batch. Partition() takes an optional
// RankTopology (dead ranks, per-rank speeds); a degraded fabric runs the
// same two stages over the alive devices with speed-normalized loads (see
// docs/ELASTIC.md): a node with m alive devices has capacity m*L, s1 starts
// at the largest such capacity, z2 sequences chunk over the alive nodes of
// least normalized load (growing k, or splitting capacity-greedily, when an
// even chunk overflows a node), z01 sequences go to the node of least
// normalized load with raw room, and each node's Alg. 2 runs over its m
// alive devices. A null or clean topology is the clean fabric, planned
// byte for byte as without one.
//
// The output plan lists, per zone, each sequence's ring group (the ordered
// ranks that share it) — exactly what the attention engine (§3.2) executes.
// Rings are stored flat: per-ring headers (RingRef) index into one contiguous
// rank arena owned by the plan, so materializing a 64k-ring plan is a handful
// of bulk array writes instead of 64k vector constructions (see
// docs/PLAN_FORMAT.md for the layout and its invariants).
//
// One engine plans; one oracle checks it. On a clean fabric both produce
// byte-identical plans:
//
//   Sharded engine (Partition()): sequences are kept as
//   packed (length, id) keys sorted by one value radix sort; the z01 packing
//   runs through the round-batched GreedyPacker (bulk-committing blocks of
//   placements instead of per-sequence heap walks) and shards its output
//   directly into per-node key lists; the intra-node stage (Alg. 2) then
//   runs once per node, appending each node's ring store and locals to the
//   plan's flat arrays in node order. Overflow restarts are incremental: the
//   sorted keys and the zone boundary survive a restart, so it only replays
//   placements; the boundary strictly advances, so a restart chain is
//   bounded by the sequence count. The engine runs on the calling thread. It
//   is the only engine that plans degraded fabrics.
//
//   Naive oracle (PartitionNaive()): the reference linear-scan/partial-sort
//   greedy, structurally the seed algorithm, for clean fabrics only. Tests
//   and the scaling bench call it as the equivalence oracle.
//
// Determinism contract: both paths break packing ties identically (lowest
// load, then lowest bucket index), rings are emitted in the same global order
// (so arena offsets match), and per-node results are appended in node order.
// Plans are therefore byte-identical to the oracle — header vectors and the
// rank arena compare equal with the defaulted operator== — and independent
// of what a reused PlannerScratch held before: the properties
// tests/parallel_planner_test.cpp pins (degraded plans: against a fresh
// scratch).
#ifndef SRC_CORE_PARTITIONER_H_
#define SRC_CORE_PARTITIONER_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/greedy_packer.h"
#include "src/common/load_tracker.h"
#include "src/common/normalized_loads.h"
#include "src/core/zones.h"
#include "src/data/sampler.h"
#include "src/topology/cluster.h"

namespace zeppelin {

struct RankTopology;

// Non-owning view of one ring: the header fields plus the resolved rank span.
// This is what plan consumers (attention engine, metrics, baselines) execute;
// position i of `ranks` holds chunks i and 2G-1-i of the sequence.
struct RingView {
  int seq_id = 0;
  int64_t length = 0;
  Zone zone = Zone::kIntraNode;
  std::span<const int> ranks;  // Ring order; valid while the owner is alive.

  int group_size() const { return static_cast<int>(ranks.size()); }
};

// Flat ring header: identifies a sequence's ring group as a span
// [rank_offset, rank_offset + rank_count) into the owning container's rank
// arena (PartitionPlan::rank_arena or RingStore::arena). Plain data — the
// byte-identity contract compares these directly.
struct RingRef {
  int seq_id = 0;
  int64_t length = 0;
  Zone zone = Zone::kIntraNode;
  uint32_t rank_offset = 0;  // First rank slot in the arena.
  uint32_t rank_count = 0;   // Ring group size G.

  int group_size() const { return static_cast<int>(rank_count); }

  bool operator==(const RingRef&) const = default;
};

// Owning ring (header + its own rank vector) for producers that build rings
// outside a plan arena: baselines (hybrid DP's CP groups), ablation
// strategies, and tests. Converts implicitly to the RingView the attention
// engine consumes.
struct RingSequence {
  int seq_id = 0;
  int64_t length = 0;
  Zone zone = Zone::kIntraNode;
  std::vector<int> ranks;  // Ring order; position i holds chunks i and 2G-1-i.

  int group_size() const { return static_cast<int>(ranks.size()); }
  operator RingView() const { return {seq_id, length, zone, ranks}; }

  bool operator==(const RingSequence&) const = default;
};

// A sequence processed entirely on one device (local zone). Built as
// {seq_id, length, rank}; the members are laid out widest first so a local
// takes 16 bytes, not 24 (most of a served plan's memory is its locals).
struct LocalSequence {
  LocalSequence() = default;
  LocalSequence(int seq_id_in, int64_t length_in, int rank_in)
      : length(length_in), seq_id(seq_id_in), rank(rank_in) {}

  int64_t length = 0;
  int seq_id = 0;
  int rank = 0;

  bool operator==(const LocalSequence&) const = default;
};
static_assert(sizeof(LocalSequence) == 16);

// Lazy range adaptor over a ring-header queue: dereferencing yields RingView,
// so range-for over a plan's rings stays ergonomic:
//
//   for (RingView ring : plan.rings(plan.inter_node)) { ... ring.ranks ... }
class RingViewRange {
 public:
  class Iterator {
   public:
    Iterator(const RingRef* ref, const int* arena) : ref_(ref), arena_(arena) {}
    RingView operator*() const {
      return {ref_->seq_id, ref_->length, ref_->zone,
              std::span<const int>(arena_ + ref_->rank_offset, ref_->rank_count)};
    }
    Iterator& operator++() {
      ++ref_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return ref_ == other.ref_; }
    bool operator!=(const Iterator& other) const { return ref_ != other.ref_; }

   private:
    const RingRef* ref_;
    const int* arena_;
  };

  RingViewRange(const std::vector<RingRef>& refs, const std::vector<int>& arena)
      : refs_(&refs), arena_(arena.data()) {}

  Iterator begin() const { return {refs_->data(), arena_}; }
  Iterator end() const { return {refs_->data() + refs_->size(), arena_}; }
  size_t size() const { return refs_->size(); }
  bool empty() const { return refs_->empty(); }

 private:
  const std::vector<RingRef>* refs_;
  const int* arena_;
};

// The planner's output: three sequence queues (two ring queues + locals) in
// engine execution order, the per-rank token layout, and the refined zone
// thresholds. Ring rank lists live in one flat `rank_arena`; headers index
// into it (see docs/PLAN_FORMAT.md). Copying or comparing a plan is therefore
// a few bulk array operations regardless of ring count.
struct PartitionPlan {
  std::vector<RingRef> inter_node;  // Queue order for the engine.
  std::vector<RingRef> intra_node;
  std::vector<LocalSequence> local;

  // All ring rank lists, concatenated in ring emission order. Invariants:
  // spans of live rings are disjoint, gap-free, and cover the arena exactly.
  std::vector<int> rank_arena;

  // Attention-layout token count per rank (input to the remapping layer).
  std::vector<int64_t> tokens_per_rank;

  // Final thresholds after iterative refinement (diagnostics / tests).
  int64_t threshold_s1 = 0;               // Inter-node boundary.
  std::vector<int64_t> threshold_s0;      // Per-node local boundary.

  // Resolves a header of THIS plan to its rank span (valid until the plan's
  // arena is next mutated).
  std::span<const int> ranks(const RingRef& ring) const {
    return {rank_arena.data() + ring.rank_offset, ring.rank_count};
  }
  // Header + span in one view (what EmitRingSequence consumes).
  RingView view(const RingRef& ring) const {
    return {ring.seq_id, ring.length, ring.zone, ranks(ring)};
  }
  // Iteration adaptor over one of THIS plan's header queues.
  RingViewRange rings(const std::vector<RingRef>& queue) const {
    return {queue, rank_arena};
  }

  // Producer API: appends a ring to `queue` (which must be this plan's
  // inter_node or intra_node), copying `ring_ranks` into the arena. Used by
  // external producers (ablation strategies, tests); the planner engines emit
  // through cursor-recycled storage instead (PlannerScratch).
  void AddRing(std::vector<RingRef>& queue, int seq_id, int64_t length, Zone zone,
               std::span<const int> ring_ranks);

  int64_t total_tokens() const;
  // max/mean of tokens_per_rank (1.0 = perfectly token-balanced).
  double TokenImbalance() const;

  // FNV-1a digest of the plan's logical content: ring headers with their
  // resolved rank spans (content-addressed through the arena), locals, the
  // per-rank token layout, and the thresholds. Per-queue entries combine
  // order-independently, so the digest is invariant to arena layout and to
  // queue permutation: two plans digest equal iff they describe the same ring
  // set, local set, rank loads, and thresholds — the equivalence currency of
  // the delta planner, where byte-identity is impossible by design (see
  // docs/DELTA_PLANS.md). O(plan), no materialized copies. Byte-identical
  // plans always digest equal, so full-replan engines can also use it as a
  // cheap identity probe.
  uint64_t StateDigest() const;

  // Byte-identity across planner paths (the engine-vs-oracle equivalence
  // contract): headers compare field-wise, the rank arena as one flat array.
  bool operator==(const PartitionPlan&) const = default;
};

// Growable flat ring storage (headers + one rank arena) with cursor-recycled
// slots: Reset() rewinds the cursors without freeing, Append() reuses slots.
// The sharded engine packs each node's intra rings into one, whose contents
// are then offset-shifted into the plan arena.
struct RingStore {
  std::vector<RingRef> refs;
  std::vector<int> arena;
  size_t ref_count = 0;   // Live headers; refs beyond this are recycled slots.
  size_t rank_count = 0;  // Live rank slots in `arena`.

  void Reset() {
    ref_count = 0;
    rank_count = 0;
  }
  // Appends a header and reserves `count` rank slots at the cursor; returns
  // the slot pointer (valid until the next Append grows the arena).
  int* Append(int seq_id, int64_t length, Zone zone, int count);
};

// The fabric one Partition() call plans for, built once per call from the
// caller's RankTopology (every rank alive at nominal speed when there is
// none): per node, its alive ranks in ascending order with their quantized
// speeds, and the node's speed rate (the sum of those speeds; 0 = dead).
// Rings copy a node's rank row, the intra stage packs over it, and the
// delta planner's patches read it from its scratch.
struct FabricView {
  bool degraded = false;         // Some rank is dead or off nominal speed.
  int alive_nodes = 0;           // Nodes with at least one alive rank.
  std::vector<int> ranks;        // Alive ranks, node-major, ascending.
  std::vector<int64_t> speeds;   // speeds[i]: speed_q of ranks[i].
  std::vector<int> offsets;      // Node n owns [offsets[n], offsets[n + 1]).
  std::vector<int64_t> rates;    // Per node: sum of its alive speeds.
  std::vector<uint8_t> clean;    // Per node: all devices alive at nominal speed.

  // (Re)builds the view; a null topology is the clean fabric.
  void Build(const ClusterSpec& cluster, const RankTopology* topology);

  int alive(int node) const { return offsets[node + 1] - offsets[node]; }
  std::span<const int> node_ranks(int node) const {
    return {ranks.data() + offsets[node], static_cast<size_t>(alive(node))};
  }
  std::span<const int64_t> node_speeds(int node) const {
    return {speeds.data() + offsets[node], static_cast<size_t>(alive(node))};
  }
};

// Per-node output of the inter-node stage, input to the intra-node stage.
struct NodeAssignment {
  // (seq_id, chunk length at this node) for inter-node sequences.
  std::vector<std::pair<int, int64_t>> inter_chunks;
  // Ids (into batch) of z01 sequences packed on this node, length-descending
  // (the packing order of Alg. 1).
  std::vector<int> sequences;
};

// One node's output of the intra-node kernel (planner_internal::PackIntraNode),
// appended to the plan before the next node is packed.
struct NodeIntraResult {
  RingStore rings;                       // Multi-fragment z1 rings (node-local offsets).
  std::vector<LocalSequence> locals;     // z0 locals (truncated on restart).
  std::vector<LocalSequence> locals_z1;  // Single-fragment z1 locals.
  std::vector<int64_t> device_loads;     // Final loads, one per alive device.
  int64_t threshold_s0 = 0;
};

// Scratch for the intra-node kernel, reused node after node and across
// Partition() calls without steady-state allocation.
struct IntraWorkerSlab {
  GreedyPacker packer;              // z0 device packing (clean node).
  NormalizedLoads picks;            // z0 device packing (degraded node).
  std::vector<int64_t> loads;       // Plain per-device loads for the z1 phase.
  std::vector<int64_t> chunk_base;  // Inter-node chunk spreading per device.
};

// Reusable planning workspace. A planner that keeps one of these across
// iterations (see ZeppelinStrategy) runs Partition() without steady-state
// heap allocations: every intermediate lives here and only grows. After
// Partition() returns, a caller may read threshold_s1_initial, node_chunk_*
// and fabric, which describe the plan just made (DeltaPlanner patches from
// them); every other field is meaningless between calls.
struct PlannerScratch {
  // Inter-node stage.
  LoadTracker node_loads;            // z2 chunk placement.
  std::vector<int> least;            // k_least() output.
  std::vector<NodeAssignment> assignments;  // Naive inter-node stage output.
  std::vector<int> placed_node;      // placed_node[i]: node of z01 key i.
  FabricView fabric;                 // The fabric this call plans for.
  // One z2 sequence's placement: (node, chunk) pairs, node-ascending.
  std::vector<std::pair<int, int64_t>> z2_split;
  std::vector<std::pair<int64_t, int>> node_order;  // Degraded: (normalized load, node).
  // Aggregate of each node's inter-node chunks: the intra stage only needs
  // the per-device spread, which is fully determined by the sum of whole
  // shares floor(chunk/p) and a histogram of remainders chunk%p — so chunks
  // are never materialized as (id, len) lists.
  std::vector<int64_t> node_chunk_whole;  // Per node: sum of floor(chunk/p).
  std::vector<int64_t> node_chunk_rem;    // Flat [node*p + r]: count of chunks with chunk%p == r.

  // Plan emission cursors: ring headers and arena slots in the plan are
  // overwritten in place and trimmed once at the end, so header and rank
  // storage survives restarts and whole Partition() calls instead of being
  // freed and reallocated. `arena_count` is the live-int cursor into
  // plan->rank_arena, shared by both ring queues (rings consume consecutive
  // slots in emission order — the gap-free arena invariant).
  size_t inter_ring_count = 0;
  size_t intra_ring_count = 0;
  size_t arena_count = 0;

  // Sequences travel as packed 64-bit keys ((kLenMask - len) << 20 | id):
  // one value radix sort yields the length-descending, id-ascending order,
  // and the keys themselves are what the z01 packing shards into per-node
  // lists — no gather-heavy id indirection anywhere on the hot path.
  std::vector<uint64_t> keys;            // Sorted ascending == length-descending.
  std::vector<uint64_t> keys_tmp;        // Radix scatter buffer.
  std::vector<int> key_count;            // Radix digit histogram.
  GreedyPacker node_packer;              // z01 packing onto nodes.
  std::vector<int64_t> node_loads_tmp;   // Heap -> packer seed buffer.
  NormalizedLoads node_picks;            // Degraded fabric: node loads.
  std::vector<std::vector<uint64_t>> node_items;  // Per node: its z01 keys.
  NodeIntraResult intra_result;          // Alg. 2 output of the node in hand.
  IntraWorkerSlab intra_slab;            // Alg. 2 kernel scratch.
  int64_t batch_total = 0;               // Total tokens, folded into key build.
  int64_t threshold_s1_initial = 0;      // s1 before refinement (the m*L cap).

  // Total GreedyPacker ops of the last Partition() (regression guard: bulk
  // commits keep this near the sequence count instead of S log P).
  int64_t packer_ops() const { return node_packer.ops() + intra_slab.packer.ops(); }
};

// Runs Alg. 1/2 on a batch for a fixed cluster, producing a PartitionPlan.
// On a clean fabric the engine's plans are byte-identical to the naive
// oracle's (see the header comment).
class SequencePartitioner {
 public:
  struct Options {
    // Token capacity L of each device (Alg. 1/2 input).
    int64_t token_capacity = 0;
    // Optional caps on the initial zone thresholds (0 = use the algorithm's
    // capacity-derived defaults P*L and L). Setting these to the Fig. 5
    // overlap crossovers forces sequences into larger rings earlier — the
    // "zone-aware initialization" extension (design ablation D6); the
    // iterative refinement still only ever shrinks the thresholds.
    int64_t max_inter_threshold = 0;  // Caps s1.
    int64_t max_local_threshold = 0;  // Caps s0.
  };

  SequencePartitioner(const ClusterSpec& cluster, Options options);

  // Reuses `options`-compatible state; cheap enough to call per batch when
  // the capacity changes (e.g. capacity derived from batch size).
  void set_options(Options options);
  const Options& options() const { return options_; }
  const ClusterSpec& cluster() const { return cluster_; }

  // `topology` (optional, world-sized) is the fabric state: dead ranks get
  // no work and loads balance by speed. Null or clean = the clean fabric.
  //
  // One-shot form: allocates its own scratch and plan.
  PartitionPlan Partition(const Batch& batch, const RankTopology* topology = nullptr) const;
  // Allocation-hoisted form: all intermediates live in `scratch`.
  PartitionPlan Partition(const Batch& batch, PlannerScratch* scratch,
                          const RankTopology* topology = nullptr) const;
  // Fully hoisted form: additionally recycles `plan`'s storage (pass the
  // previous iteration's plan back in); `plan` is reset, not appended to.
  void Partition(const Batch& batch, PlannerScratch* scratch, PartitionPlan* plan,
                 const RankTopology* topology = nullptr) const;

  // The naive oracle on the clean fabric, byte-identical to Partition()
  // there: a test and bench reference, never a serving path. The two forms
  // mirror Partition()'s one-shot and fully hoisted ones.
  PartitionPlan PartitionNaive(const Batch& batch) const;
  void PartitionNaive(const Batch& batch, PlannerScratch* scratch, PartitionPlan* plan) const;

 private:
  // Naive oracle. Alg. 1 emits z2 rings (inter-node and single-node) into
  // the plan arena and fills `scratch->assignments`; Alg. 2 for one node
  // emits intra rings, appends to plan->local, and accumulates
  // plan->tokens_per_rank.
  void PartitionInterNodeNaive(const Batch& batch, PartitionPlan* plan,
                               PlannerScratch* scratch) const;
  void PartitionIntraNodeNaive(const Batch& batch, int node, const NodeAssignment& assignment,
                               PartitionPlan* plan, PlannerScratch* scratch) const;

  // Sharded engine (partitioner_parallel.cc).
  void PartitionSharded(const Batch& batch, PlannerScratch* scratch, PartitionPlan* plan) const;
  // Alg. 1 over scratch->fabric with z01 packing sharded into
  // scratch->node_items (round-batched on a clean fabric).
  void PartitionInterNodeSharded(const Batch& batch, PartitionPlan* plan,
                                 PlannerScratch* scratch) const;

  ClusterSpec cluster_;
  Options options_;
};

}  // namespace zeppelin

#endif  // SRC_CORE_PARTITIONER_H_
