// The sharded planner engine (see the header comment in partitioner.h).
//
// Layout of one Partition() call, all on the calling thread:
//
//   1. Key build + value radix sort: sequences become packed
//      ((kLenMask - len) << 20 | id) keys; sorting the values directly gives
//      the length-descending, id-ascending order with zero gathers, and the
//      granularity of the lengths (trailing zero bits shared by every length)
//      narrows the digit range — quantized workloads sort in one pass.
//   2. Inter-node stage: Alg. 1. The z2 chunking reuses the LoadTracker
//      (few, long sequences); the z01 packing runs through the round-batched
//      GreedyPacker and emits each sequence's key straight into its node's
//      list — the per-node lists are the shard handoff to stage 3. On a
//      degraded fabric both placements go over the alive nodes by
//      speed-normalized load instead (PlaceZ2Degraded, NormalizedLoads).
//      Greedy list scheduling is P-complete, so the decision stream is
//      sequential; batching is what makes this stage cheap.
//   3. Intra-node stage: Alg. 2 per node (PackIntraNode) into that node's
//      NodeIntraResult (a RingStore with node-local arena offsets, locals,
//      device loads, s0), with one scratch slab reused node after node. The
//      results persist in the scratch: the delta planner adopts them.
//   4. Merge (MergeNodeResults): the results append to the plan's flat
//      arrays after the z2 prefix, in node order — locals, ring headers
//      (offset-shifted), and the arena slice (one memcpy per node). That is
//      the oracle's append order, so the bytes match it, with no per-ring
//      allocation anywhere.
#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/check.h"
#include "src/core/partitioner.h"
#include "src/core/partitioner_internal.h"
#include "src/data/stream.h"

namespace zeppelin {

using planner_internal::AdvanceZoneBoundary;
using planner_internal::EmitRing;
using planner_internal::ExpandChunkBase;
using planner_internal::ForEachFragment;
using planner_internal::FragmentZone1;
using planner_internal::InterNodeChunkCount;
using planner_internal::kIdxBits;
using planner_internal::kIdxMask;
using planner_internal::KeyId;
using planner_internal::KeyLen;
using planner_internal::kLenMask;
using planner_internal::PackKey;

namespace {

// First position in the sorted key list whose length drops below
// `threshold` — the zone boundary index. O(log n).
int KeyBoundary(std::span<const uint64_t> keys, int64_t threshold) {
  if (static_cast<uint64_t>(threshold) > kLenMask) {
    return 0;  // No representable length reaches the threshold.
  }
  const uint64_t limit = ((kLenMask - static_cast<uint64_t>(threshold)) << kIdxBits) | kIdxMask;
  return static_cast<int>(std::partition_point(keys.begin(), keys.end(),
                                               [limit](uint64_t k) { return k <= limit; }) -
                          keys.begin());
}

// Builds scratch->keys sorted ascending. Returns the batch's total tokens
// (folded into the same pass over seq_lens). LSD radix over only the bits
// that actually vary: bits below the common granularity and above
// bit_width(max_len) are constant across all keys and need no pass.
int64_t BuildSortedKeys(const Batch& batch, PlannerScratch* s) {
  const int n = batch.size();
  ZCHECK_LE(static_cast<uint64_t>(n), kIdxMask + 1) << "batch too large for packed keys";
  s->keys.resize(n);
  s->keys_tmp.resize(n);

  int64_t total = 0;
  int64_t max_len = 0;
  uint64_t or_acc = 0;
  for (int i = 0; i < n; ++i) {
    const int64_t len = batch.seq_lens[i];
    total += len;
    max_len = std::max(max_len, len);
    or_acc |= static_cast<uint64_t>(len);
    s->keys[i] = PackKey(len, i);
  }
  // One range check for the whole batch: a negative length sets the high bits
  // of or_acc (two's complement), an oversized one exceeds the mask directly.
  ZCHECK_LE(or_acc, kLenMask) << "sequence length out of key range";

  const int lo = or_acc == 0 ? 0 : std::countr_zero(or_acc);
  const int hi = std::bit_width(static_cast<uint64_t>(max_len));
  for (int shift = lo; shift < hi;) {
    const int digit_bits = std::min(16, hi - shift);
    const uint64_t digit_mask = (uint64_t{1} << digit_bits) - 1;
    const int key_shift = kIdxBits + shift;
    s->key_count.assign(size_t{1} << digit_bits, 0);
    for (uint64_t key : s->keys) {
      ++s->key_count[(key >> key_shift) & digit_mask];
    }
    int running = 0;
    for (int& count : s->key_count) {
      const int c = count;
      count = running;
      running += c;
    }
    for (uint64_t key : s->keys) {
      s->keys_tmp[s->key_count[(key >> key_shift) & digit_mask]++] = key;
    }
    s->keys.swap(s->keys_tmp);
    shift += digit_bits;
  }
  return total;
}

}  // namespace

// --- Inter-node stage (Alg. 1), sharded engine --------------------------------

namespace {

// Chunk c of an even k-way split of `len` (Alg. 1 line 9).
int64_t EvenChunk(int64_t len, int c, int k) { return len * (c + 1) / k - len * c / k; }

// Degraded z2 placement (Alg. 1 lines 7-10 over the alive nodes): the k
// alive nodes of least (speed-normalized load, index) take even chunks, in
// ascending node order; k grows while a chunk overflows its node's m*L.
// When no k fits (nodes of unequal capacity), a capacity-greedy split fills
// the least-loaded nodes first. Leaves (node, chunk > 0) pairs in
// s->z2_split, node-ascending, and charges them to s->node_picks.
void PlaceZ2Degraded(int64_t len, int k, PlannerScratch* s) {
  const FabricView& fabric = s->fabric;
  NormalizedLoads& loads = s->node_picks;
  s->node_order.clear();
  for (int node = 0; node < static_cast<int>(fabric.rates.size()); ++node) {
    if (fabric.rates[node] > 0) {
      s->node_order.emplace_back(loads.key(node), node);
    }
  }
  std::sort(s->node_order.begin(), s->node_order.end());
  const int alive_nodes = static_cast<int>(s->node_order.size());
  for (; k <= alive_nodes; ++k) {
    s->least.resize(k);
    for (int c = 0; c < k; ++c) {
      s->least[c] = s->node_order[c].second;
    }
    std::sort(s->least.begin(), s->least.end());
    bool fits = true;
    for (int c = 0; c < k && fits; ++c) {
      fits = EvenChunk(len, c, k) <= loads.room(s->least[c]);
    }
    if (fits) {
      break;
    }
  }
  s->z2_split.clear();
  if (k <= alive_nodes) {
    for (int c = 0; c < k; ++c) {
      if (const int64_t chunk = EvenChunk(len, c, k); chunk > 0) {
        s->z2_split.emplace_back(s->least[c], chunk);
      }
    }
  } else {
    int64_t unplaced = len;
    for (int c = 0; c < alive_nodes && unplaced > 0; ++c) {
      const int node = s->node_order[c].second;
      const int64_t take = std::min(unplaced, std::max<int64_t>(loads.room(node), 0));
      if (take > 0) {
        s->z2_split.emplace_back(node, take);
        unplaced -= take;
      }
    }
    ZCHECK_EQ(unplaced, 0) << "z2 sequence does not fit the surviving fabric";
    std::sort(s->z2_split.begin(), s->z2_split.end());
  }
  for (const auto& [node, chunk] : s->z2_split) {
    loads.Add(node, chunk);
  }
}

}  // namespace

void SequencePartitioner::PartitionInterNodeSharded(const Batch& batch, PartitionPlan* plan,
                                                    PlannerScratch* s) const {
  const int num_nodes = cluster_.num_nodes;
  const int p = cluster_.gpus_per_node;
  const int64_t capacity = options_.token_capacity;
  const int64_t node_capacity = static_cast<int64_t>(p) * capacity;
  const FabricView& fabric = s->fabric;
  const int n = batch.size();

  const int64_t total = BuildSortedKeys(batch, s);
  s->batch_total = total;
  ZCHECK_GT(fabric.alive_nodes, 0) << "no alive nodes";
  int64_t max_alive = 0;
  for (int node = 0; node < num_nodes; ++node) {
    max_alive = std::max<int64_t>(max_alive, fabric.alive(node));
  }
  ZCHECK_LE(total, static_cast<int64_t>(fabric.ranks.size()) * capacity)
      << "batch does not fit the cluster at capacity L=" << capacity;

  // Alg. 1 line 2: the largest alive-node capacity m*L (P*L when clean).
  int64_t s1 = max_alive * capacity;
  if (options_.max_inter_threshold > 0) {
    s1 = std::min(s1, options_.max_inter_threshold);
  }
  s->threshold_s1_initial = s1;
  int boundary = KeyBoundary(s->keys, s1);
  // Running sum of the first `boundary` lengths; a restart only advances the
  // boundary, so the total decode work stays O(n) across all restarts.
  int64_t z2_total = 0;
  for (int i = 0; i < boundary; ++i) {
    z2_total += KeyLen(s->keys[i]);
  }
  s->placed_node.resize(n);

  // Emits z2 sequence `id` over the (node, chunk) pairs of s->z2_split: one
  // ring over the nodes' alive ranks (a single node makes it a single-node
  // ring in the intra queue), plus each node's chunk aggregate.
  auto emit_z2 = [&](int id, int64_t len) {
    int span = 0;
    for (const auto& [node, chunk] : s->z2_split) {
      span += fabric.alive(node);
    }
    const bool inter = s->z2_split.size() > 1;
    int* out = inter ? EmitRing(&plan->inter_node, &s->inter_ring_count, &plan->rank_arena,
                                &s->arena_count, id, len, Zone::kInterNode, span)
                     : EmitRing(&plan->intra_node, &s->intra_ring_count, &plan->rank_arena,
                                &s->arena_count, id, len, Zone::kIntraNode, span);
    for (const auto& [node, chunk] : s->z2_split) {
      const std::span<const int> ranks = fabric.node_ranks(node);
      std::memcpy(out, ranks.data(), sizeof(int) * ranks.size());
      out += ranks.size();
      planner_internal::RecordChunkAggregate(node, chunk, fabric.alive(node), p,
                                             &s->node_chunk_whole, &s->node_chunk_rem);
    }
  };

  int restarts = 0;
  // Incremental-restart shortcut (clean fabrics: it assumes rings of P
  // ranks): when the aborted pass was pure z01 packing (empty z2) and every
  // promoted sequence still chunks to k == 1 under the new s_avg, a full
  // replay would place those very sequences on the very same nodes — so the
  // restart only re-labels them (shard lists -> single-node z2 rings, read
  // back from placed_node) and resumes where the aborted pass stopped.
  int continue_from = -1;
  for (;;) {
    int z2_start = 0;
    if (continue_from >= 0) {
      // Re-label [0, continue_from) as single-node z2 rings on the nodes
      // the aborted pass packed them onto: ring order matches a replay (it
      // is the key order), chunk aggregates rebuild from zero (z2 was
      // empty), and the packer's loads carry over exactly. The aborted pass
      // emitted no rings, so header slot i and arena slice [i*p, (i+1)*p)
      // belong to sequence i and are written in place, one bulk pass.
      const size_t relabel_rings = static_cast<size_t>(continue_from);
      if (plan->intra_node.size() < relabel_rings) {
        plan->intra_node.resize(relabel_rings);
      }
      if (plan->rank_arena.size() < relabel_rings * p) {
        plan->rank_arena.resize(relabel_rings * p);
      }
      for (size_t i = 0; i < relabel_rings; ++i) {
        const uint64_t key = s->keys[i];
        const int node = s->placed_node[i];
        const int64_t len = KeyLen(key);
        RingRef& ring = plan->intra_node[i];
        ring.seq_id = KeyId(key);
        ring.length = len;
        ring.zone = Zone::kIntraNode;
        ring.rank_offset = static_cast<uint32_t>(i * p);
        ring.rank_count = static_cast<uint32_t>(p);
        std::memcpy(plan->rank_arena.data() + i * p, fabric.node_ranks(node).data(),
                    sizeof(int) * p);
        planner_internal::RecordChunkAggregate(node, len, p, p, &s->node_chunk_whole,
                                               &s->node_chunk_rem);
      }
      s->intra_ring_count = relabel_rings;
      s->arena_count = relabel_rings * p;
      s->node_packer.Loads(&s->node_loads_tmp);
      s->node_loads.Assign(s->node_loads_tmp);
      z2_start = continue_from;
      continue_from = -1;
    } else {
      s->node_chunk_whole.assign(num_nodes, 0);
      s->node_chunk_rem.assign(static_cast<size_t>(num_nodes) * p, 0);
      // Rewind all ring emission (headers + arena slots are recycled).
      s->inter_ring_count = 0;
      s->intra_ring_count = 0;
      s->arena_count = 0;
      if (fabric.degraded) {
        s->node_loads_tmp.assign(num_nodes, 0);
        s->node_picks.Assign(fabric.rates, static_cast<int64_t>(p) * kSpeedScale,
                             s->node_loads_tmp, [&](int node) {
                               return static_cast<int64_t>(fabric.alive(node)) * capacity;
                             });
      } else {
        s->node_loads.Reset(num_nodes);
      }
    }

    // Chunk placement for z2 (lines 7-10): z2 holds few, long sequences.
    // Clean: heap-based k least. Degraded: over the alive nodes by
    // speed-normalized load.
    const double s_avg = static_cast<double>(z2_total) / fabric.alive_nodes;
    for (int i = z2_start; i < boundary; ++i) {
      const uint64_t key = s->keys[i];
      const int id = KeyId(key);
      const int64_t len = KeyLen(key);
      const int k = InterNodeChunkCount(len, s_avg, fabric.alive_nodes);
      s->z2_split.clear();
      if (fabric.degraded) {
        PlaceZ2Degraded(len, k, s);
      } else if (k == 1) {
        s->z2_split.emplace_back(s->node_loads.add_min(len), len);
      } else {
        s->node_loads.k_least(k, &s->least);
        std::sort(s->least.begin(), s->least.end());  // Keep ring order node-ascending.
        for (int c = 0; c < k; ++c) {
          s->z2_split.emplace_back(s->least[c], EvenChunk(len, c, k));
          s->node_loads.add(s->least[c], s->z2_split.back().second);
        }
      }
      emit_z2(id, len);
    }

    const uint64_t* z01 = s->keys.data() + boundary;
    const int count = n - boundary;
    // Packing writes only the placement stream (4 bytes per sequence); the
    // per-node shard lists are built by one scatter pass after the pass
    // succeeds, so an overflow-doomed pass never pays for them.
    int* placed = s->placed_node.data() + boundary;
    int packed = 0;
    if (!fabric.degraded) {
      // Round-batched z01 packing (lines 11-19): bulk-committed placements.
      s->node_loads_tmp.resize(num_nodes);
      for (int node = 0; node < num_nodes; ++node) {
        s->node_loads_tmp[node] = s->node_loads.load(node);
      }
      s->node_packer.Assign(s->node_loads_tmp);
      packed = s->node_packer.Pack(
          count, node_capacity, [z01](int i) { return KeyLen(z01[i]); },
          [&](int i, int node, int64_t /*len*/) { placed[i] = node; });
    } else {
      // Degraded z01 packing: least speed-normalized load with raw room.
      for (; packed < count; ++packed) {
        const int64_t len = KeyLen(z01[packed]);
        const int node = s->node_picks.Pick(len);
        if (node < 0) {
          break;
        }
        s->node_picks.Add(node, len);
        placed[packed] = node;
      }
    }
    if (packed == count) {
      for (int node = 0; node < num_nodes; ++node) {
        s->node_items[node].clear();
      }
      for (int i = 0; i < count; ++i) {
        s->node_items[placed[i]].push_back(z01[i]);
      }
      break;
    }
    // Overflow: shrink s1 to max(z01) = the overflowing length and promote
    // every sequence of length >= it into z2 — a contiguous block, so the
    // boundary just advances (no re-sort, no zone re-split).
    const int nb = AdvanceZoneBoundary(
        n, boundary + packed, [&](int j) { return KeyLen(s->keys[j]); }, &s1);
    for (int i = boundary; i < nb; ++i) {
      z2_total += KeyLen(s->keys[i]);
    }
    // Incremental-continuation test: the aborted pass must have been pure z01
    // packing, and under the new s_avg even the longest promoted sequence
    // must chunk to a single node. Then the replay is a no-op re-labelling.
    const double next_avg = static_cast<double>(z2_total) / num_nodes;
    if (!fabric.degraded && boundary == 0 &&
        static_cast<double>(KeyLen(s->keys[0])) <= std::max(next_avg, 1.0)) {
      continue_from = packed;
    }
    boundary = nb;
    // The boundary strictly advances on every restart, so the chain is
    // bounded by the sequence count.
    ZCHECK_LE(++restarts, n) << "inter-node restart chain exceeded its bound";
  }
  plan->threshold_s1 = s1;
}

// --- Intra-node stage (Alg. 2), sharded engine --------------------------------

void planner_internal::PackIntraNode(std::span<const uint64_t> keys,
                                     std::span<const int64_t> chunk_base,
                                     const FabricView& fabric, int node, int64_t capacity,
                                     int64_t max_local_threshold, IntraWorkerSlab* slab,
                                     NodeIntraResult* out) {
  const std::span<const int> ranks = fabric.node_ranks(node);
  const int m = static_cast<int>(ranks.size());
  const int n = static_cast<int>(keys.size());
  ZCHECK_EQ(chunk_base.size(), ranks.size()) << "chunk base must cover the alive devices";
  ZCHECK(m > 0 || n == 0) << "sequences packed onto dead node " << node;

  int64_t s0 = capacity;  // Alg. 2 line 1.
  if (max_local_threshold > 0) {
    s0 = std::min(s0, max_local_threshold);
  }
  int boundary = KeyBoundary(keys, s0);

  int restarts = 0;
  for (;;) {
    out->rings.Reset();
    out->locals.clear();
    out->locals_z1.clear();
    // Inter-node chunk spreading (lines 4-6) is zone-independent: every pass
    // starts from the same base loads.
    slab->loads.assign(chunk_base.begin(), chunk_base.end());

    // Quadratic-balanced fragmentation of intra-node sequences (lines 8-12),
    // via the shared pass (cursor progression and fragment counts are
    // equivalence-critical across paths).
    FragmentZone1(
        boundary, m, [&](int i) { return KeyLen(keys[i]); },
        [&](int i, int64_t len, int fragments, int cursor) {
          int* ring = out->rings.Append(KeyId(keys[i]), len, Zone::kIntraNode, fragments);
          ForEachFragment(len, fragments, cursor, m, [&](int f, int device, int64_t share) {
            ring[f] = ranks[device];
            slab->loads[device] += share;
          });
        },
        [&](int i, int64_t len, int device) {
          // A single-fragment "ring" is a local kernel (lands after this
          // node's z0 locals, like the oracle's ring conversion).
          out->locals_z1.push_back({KeyId(keys[i]), len, ranks[device]});
          slab->loads[device] += len;
        });

    // z0 packing onto the least-loaded devices (lines 13-21): round-batched
    // on a clean node, by speed-normalized load with room on a degraded one.
    // On equal speeds the two agree: if the least-loaded device has no room,
    // no device has.
    const uint64_t* z0 = keys.data() + boundary;
    const int count = n - boundary;
    int packed = 0;
    if (fabric.clean[node]) {
      slab->packer.Assign(slab->loads);
      packed = slab->packer.Pack(
          count, capacity, [z0](int i) { return KeyLen(z0[i]); },
          [&](int i, int device, int64_t len) {
            out->locals.push_back({KeyId(z0[i]), len, ranks[device]});
          });
    } else {
      slab->picks.Assign(fabric.node_speeds(node), kSpeedScale, slab->loads,
                         [capacity](int) { return capacity; });
      for (; packed < count; ++packed) {
        const int64_t len = KeyLen(z0[packed]);
        const int device = slab->picks.Pick(len);
        if (device < 0) {
          break;
        }
        slab->picks.Add(device, len);
        out->locals.push_back({KeyId(z0[packed]), len, ranks[device]});
      }
    }
    if (packed == count) {
      break;
    }
    // Shrink s0 to max(z0) = the overflowing length; promoted sequences form
    // a contiguous block, so the boundary just advances.
    boundary = AdvanceZoneBoundary(
        n, boundary + packed, [&](int j) { return KeyLen(keys[j]); }, &s0);
    // The boundary strictly advances on every restart, so the chain is
    // bounded by the node's sequence count.
    ZCHECK_LE(++restarts, n) << "intra-node restart chain exceeded its bound";
  }

  if (fabric.clean[node]) {
    slab->packer.Loads(&out->device_loads);
  } else {
    out->device_loads = slab->picks.loads();
  }
  out->threshold_s0 = s0;
}

void planner_internal::MergeNodeResults(std::span<const NodeIntraResult> results,
                                        const FabricView& fabric, size_t intra_rings,
                                        size_t arena_slots, PartitionPlan* plan) {
  size_t rings_end = intra_rings;
  size_t ranks_end = arena_slots;
  for (const NodeIntraResult& res : results) {
    rings_end += res.rings.ref_count;
    ranks_end += res.rings.rank_count;
  }
  plan->intra_node.resize(rings_end);
  plan->rank_arena.resize(ranks_end);
  plan->local.clear();
  for (int node = 0; node < static_cast<int>(results.size()); ++node) {
    const NodeIntraResult& res = results[node];
    plan->local.insert(plan->local.end(), res.locals.begin(), res.locals.end());
    plan->local.insert(plan->local.end(), res.locals_z1.begin(), res.locals_z1.end());
    const uint32_t shift = static_cast<uint32_t>(arena_slots);
    for (size_t i = 0; i < res.rings.ref_count; ++i) {
      RingRef ring = res.rings.refs[i];
      ring.rank_offset += shift;
      plan->intra_node[intra_rings + i] = ring;
    }
    if (res.rings.rank_count > 0) {
      std::memcpy(plan->rank_arena.data() + arena_slots, res.rings.arena.data(),
                  sizeof(int) * res.rings.rank_count);
    }
    intra_rings += res.rings.ref_count;
    arena_slots += res.rings.rank_count;

    const std::span<const int> ranks = fabric.node_ranks(node);
    ZCHECK_EQ(res.device_loads.size(), ranks.size()) << "node " << node << " result is stale";
    for (size_t d = 0; d < ranks.size(); ++d) {
      plan->tokens_per_rank[ranks[d]] = res.device_loads[d];
    }
    plan->threshold_s0[node] = res.threshold_s0;
  }
}

// --- Driver -------------------------------------------------------------------

void SequencePartitioner::PartitionSharded(const Batch& batch, PlannerScratch* s,
                                           PartitionPlan* plan) const {
  const int num_nodes = cluster_.num_nodes;
  IntraWorkerSlab& slab = s->intra_slab;
  s->node_packer.ResetOps();
  slab.packer.ResetOps();
  s->node_items.resize(num_nodes);
  s->node_results.resize(num_nodes);

  PartitionInterNodeSharded(batch, plan, s);

  // Alg. 2 per node, then one merge in node order — identical bytes to the
  // oracle's per-node append order.
  for (int node = 0; node < num_nodes; ++node) {
    ExpandChunkBase(s->node_chunk_whole, s->node_chunk_rem, node, cluster_.gpus_per_node,
                    s->fabric.alive(node), &slab.chunk_base);
    planner_internal::PackIntraNode(s->node_items[node], slab.chunk_base, s->fabric, node,
                                    options_.token_capacity, options_.max_local_threshold,
                                    &slab, &s->node_results[node]);
  }
  planner_internal::MergeNodeResults(s->node_results, s->fabric, s->intra_ring_count,
                                     s->arena_count, plan);
  plan->inter_node.resize(s->inter_ring_count);
}

}  // namespace zeppelin
