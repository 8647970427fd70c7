// Helpers shared by the naive oracle (partitioner.cc), the sharded engine
// (partitioner_parallel.cc), and the delta planner's patch paths. The
// chunk/fragment count math lives here so the paths cannot drift apart — the
// bit-identical-plans contract depends on every path computing these
// identically.
#ifndef SRC_CORE_PARTITIONER_INTERNAL_H_
#define SRC_CORE_PARTITIONER_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/check.h"
#include "src/core/partitioner.h"

namespace zeppelin {
namespace planner_internal {

// Packed sequence key layout: high 43 bits (kLenMask - len), low 20 bits id.
// Ascending key order == (length descending, id ascending) — the zone order
// of Alg. 1 with the stable-sort tie-break.
constexpr int kIdxBits = 20;
constexpr uint64_t kIdxMask = (uint64_t{1} << kIdxBits) - 1;
constexpr uint64_t kLenMask = (uint64_t{1} << 43) - 1;

inline uint64_t PackKey(int64_t len, int id) {
  return ((kLenMask - static_cast<uint64_t>(len)) << kIdxBits) | static_cast<uint64_t>(id);
}
inline int64_t KeyLen(uint64_t key) { return static_cast<int64_t>(kLenMask - (key >> kIdxBits)); }
inline int KeyId(uint64_t key) { return static_cast<int>(key & kIdxMask); }

// Number of node buckets a z2 sequence is chunked over (Alg. 1 line 8).
inline int InterNodeChunkCount(int64_t len, double s_avg, int num_nodes) {
  int k = static_cast<int>(std::ceil(static_cast<double>(len) / std::max(s_avg, 1.0)));
  return std::clamp(k, 1, num_nodes);
}

// Number of fragments a z1 sequence is split into (Alg. 2 line 9).
inline int IntraNodeFragmentCount(double len, double c_avg, int p) {
  int fragments = static_cast<int>(std::ceil(len * len / std::max(c_avg, 1.0)));
  return std::clamp(fragments, 1, p);
}

// Records one inter-node chunk of `chunk` tokens on `node` in the aggregate
// form the intra stage consumes: the sum of whole per-device shares
// floor(chunk/m) over the node's m alive devices and a histogram of
// remainders chunk % m, in row `node` of stride p (m == p on a clean node).
// Both engines must encode chunks identically or the bit-identical-plans
// contract breaks.
inline void RecordChunkAggregate(int node, int64_t chunk, int m, int p, std::vector<int64_t>* whole,
                                 std::vector<int64_t>* rem) {
  const int64_t q = chunk / m;
  (*whole)[node] += q;
  ++(*rem)[static_cast<size_t>(node) * p + (chunk - q * m)];
}

// Expands `node`'s recorded chunk aggregates into the exact per-device base
// loads over its m alive devices (the inter-node chunk spreading of Alg. 2
// lines 4-6): the share of a chunk q*m + r on device d is
// q + (floor((d+1)r/m) - floor(dr/m)). The aggregates must have been recorded
// with divisor m, so remainder buckets r >= m are empty (checked). Every
// intra-stage consumer (sharded engine, delta re-pack) must expand
// identically.
inline void ExpandChunkBase(const std::vector<int64_t>& whole, const std::vector<int64_t>& rem,
                            int node, int p, int m, std::vector<int64_t>* out) {
  const int64_t* row = rem.data() + static_cast<size_t>(node) * p;
  for (int r = m; r < p; ++r) {
    ZCHECK_EQ(row[r], 0) << "chunk aggregate divisor drift on node " << node;
  }
  out->resize(m);
  for (int d = 0; d < m; ++d) {
    int64_t share = whole[node];
    for (int r = 1; r < m; ++r) {
      share += row[r] * ((d + 1) * r / m - d * r / m);
    }
    (*out)[d] = share;
  }
}

// Causal-balanced fragment split: calls fn(f, device, share) for each of the
// `fragments` fragments of a length-`len` sequence placed round-robin from
// `cursor`. The edge arithmetic len*(f+1)/F - len*f/F is the emission-time
// split every engine must mirror.
template <typename Fn>
inline void ForEachFragment(int64_t len, int fragments, int cursor, int p, Fn&& fn) {
  int64_t prev_edge = 0;
  for (int f = 0; f < fragments; ++f) {
    const int64_t edge = len * (f + 1) / fragments;
    fn(f, (cursor + f) % p, edge - prev_edge);
    prev_edge = edge;
  }
}

// One z1 fragmentation pass of Alg. 2 (lines 8-12) over the zone-1 prefix
// [0, boundary): derives c_avg from the quadratic work sum, walks the
// round-robin cursor, and routes each sequence to emit_ring(i, len,
// fragments, cursor) or — for single-fragment sequences, which execute as
// local kernels — emit_local(i, len, device). The cursor progression and
// fragment counts are equivalence-critical; engines supply only storage.
template <typename LenFn, typename EmitRingFn, typename EmitLocalFn>
inline void FragmentZone1(int boundary, int p, LenFn&& len_of, EmitRingFn&& emit_ring,
                          EmitLocalFn&& emit_local) {
  if (boundary <= 0) {
    return;
  }
  double c_total = 0;
  for (int i = 0; i < boundary; ++i) {
    const double len = static_cast<double>(len_of(i));
    c_total += len * len;
  }
  const double c_avg = c_total / p;
  int cursor = 0;
  for (int i = 0; i < boundary; ++i) {
    const int64_t len = len_of(i);
    const int fragments = IntraNodeFragmentCount(static_cast<double>(len), c_avg, p);
    if (fragments == 1) {
      emit_local(i, len, cursor);
      cursor = (cursor + 1) % p;
    } else {
      emit_ring(i, len, fragments, cursor);
      cursor = (cursor + fragments) % p;
    }
  }
}

// The overflow-restart rule shared by every packing stage (Alg. 1 line 15 /
// Alg. 2 line 17): shrink the threshold to the overflowing length and
// advance the zone boundary past the contiguous equal-or-longer block (the
// order is length-descending, so promoted sequences are exactly that block).
template <typename LenFn>
inline int AdvanceZoneBoundary(int n, int overflow_index, LenFn&& len_of, int64_t* threshold) {
  *threshold = len_of(overflow_index);
  int nb = overflow_index + 1;
  while (nb < n && len_of(nb) >= *threshold) {
    ++nb;
  }
  return nb;
}

// Cursor-based ring emission into flat storage: writes a header into the
// recycled slot refs[*ref_count] and reserves `count` rank slots at the arena
// cursor, growing both containers only past their high-water mark (the
// cursor-recycling that keeps steady-state planning allocation-free). Rings
// therefore consume consecutive arena slots in emission order — the gap-free
// arena invariant of docs/PLAN_FORMAT.md. Returns the rank slot pointer,
// valid until the next emission grows the arena.
inline int* EmitRing(std::vector<RingRef>* refs, size_t* ref_count, std::vector<int>* arena,
                     size_t* arena_count, int seq_id, int64_t length, Zone zone, int count) {
  if (*ref_count == refs->size()) {
    refs->emplace_back();
  }
  RingRef& ring = (*refs)[(*ref_count)++];
  ring.seq_id = seq_id;
  ring.length = length;
  ring.zone = zone;
  ring.rank_offset = static_cast<uint32_t>(*arena_count);
  ring.rank_count = static_cast<uint32_t>(count);
  const size_t needed = *arena_count + static_cast<size_t>(count);
  if (arena->size() < needed) {
    arena->resize(needed);
  }
  int* slot = arena->data() + *arena_count;
  *arena_count = needed;
  return slot;
}

// Alg. 2 for one node — the intra-node kernel of the sharded engine and of
// the delta planner's dirty-node re-pack, so Alg. 2 exists once. `keys` are
// the node's z01 sequences as packed keys sorted ascending (length-
// descending, id-ascending); the node's alive devices are
// fabric.node_ranks(node), and `chunk_base` holds their inter-node chunk
// loads (ExpandChunkBase output, one per alive device). s0 starts at
// `capacity`, capped by `max_local_threshold` when positive, and shrinks on
// overflow. z1 fragments go round-robin over the alive devices. z0 packs
// through the GreedyPacker on a clean node; on a degraded one each sequence
// goes to the device of least speed-normalized load with room
// (NormalizedLoads). A dead node must own no keys. Writes rings
// (node-local arena offsets), z0 locals, single-fragment z1 locals, final
// per-alive-device loads, and the refined s0 into `out`; `slab` supplies
// the packer and load scratch (`chunk_base` may alias slab->chunk_base).
void PackIntraNode(std::span<const uint64_t> keys, std::span<const int64_t> chunk_base,
                   const FabricView& fabric, int node, int64_t capacity,
                   int64_t max_local_threshold, IntraWorkerSlab* slab, NodeIntraResult* out);

// The sharded engine's merge: appends every node's result to `plan` in node
// order after the z2 prefix (the first `intra_rings` intra headers and
// `arena_slots` arena slots) — locals (z0, then single-fragment z1), ring
// headers shifted to plan-arena offsets with one arena slice per node, each
// node's device loads onto its alive ranks in `fabric`, and its s0 — then
// trims the intra queue and the arena to the merged sizes, so the arena is
// tight. Replaces `plan`'s locals; `plan` must hold a zeroed world-sized
// tokens_per_rank and a node-sized threshold_s0.
void MergeNodeResults(std::span<const NodeIntraResult> results, const FabricView& fabric,
                      size_t intra_rings, size_t arena_slots, PartitionPlan* plan);

}  // namespace planner_internal
}  // namespace zeppelin

#endif  // SRC_CORE_PARTITIONER_INTERNAL_H_
