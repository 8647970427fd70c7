#include "src/core/partitioner.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/common/stats.h"
#include "src/core/chunking.h"
#include "src/core/partitioner_internal.h"
#include "src/data/stream.h"

namespace zeppelin {

using planner_internal::EmitRing;
using planner_internal::InterNodeChunkCount;
using planner_internal::IntraNodeFragmentCount;

int64_t PartitionPlan::total_tokens() const {
  return std::accumulate(tokens_per_rank.begin(), tokens_per_rank.end(), int64_t{0});
}

double PartitionPlan::TokenImbalance() const {
  std::vector<double> loads(tokens_per_rank.begin(), tokens_per_rank.end());
  return 1.0 + ImbalanceRatio(loads);
}

uint64_t PartitionPlan::StateDigest() const {
  // Per-entry hashes combine by addition within each queue (invariant to
  // queue order and arena layout), then the queue digests chain through one
  // final FNV pass (so content cannot migrate between queues unnoticed).
  auto ring_queue_digest = [&](const std::vector<RingRef>& queue) {
    uint64_t sum = 0;
    for (const RingRef& ring : queue) {
      uint64_t h = kFnvOffset;
      h = FnvMix(h, static_cast<uint64_t>(ring.seq_id));
      h = FnvMix(h, static_cast<uint64_t>(ring.length));
      h = FnvMix(h, static_cast<uint64_t>(ring.zone));
      h = FnvMix(h, ring.rank_count);
      for (int rank : ranks(ring)) {
        h = FnvMix(h, static_cast<uint64_t>(rank));
      }
      sum += h;
    }
    return sum;
  };
  uint64_t local_sum = 0;
  for (const LocalSequence& seq : local) {
    uint64_t h = kFnvOffset;
    h = FnvMix(h, static_cast<uint64_t>(seq.seq_id));
    h = FnvMix(h, static_cast<uint64_t>(seq.length));
    h = FnvMix(h, static_cast<uint64_t>(seq.rank));
    local_sum += h;
  }

  uint64_t digest = kFnvOffset;
  digest = FnvMix(digest, ring_queue_digest(inter_node));
  digest = FnvMix(digest, ring_queue_digest(intra_node));
  digest = FnvMix(digest, local_sum);
  for (int64_t tokens : tokens_per_rank) {
    digest = FnvMix(digest, static_cast<uint64_t>(tokens));
  }
  digest = FnvMix(digest, static_cast<uint64_t>(threshold_s1));
  for (int64_t s0 : threshold_s0) {
    digest = FnvMix(digest, static_cast<uint64_t>(s0));
  }
  return digest;
}

void PartitionPlan::AddRing(std::vector<RingRef>& queue, int seq_id, int64_t length, Zone zone,
                            std::span<const int> ring_ranks) {
  ZCHECK(&queue == &inter_node || &queue == &intra_node)
      << "AddRing queue must belong to this plan";
  RingRef& ring = queue.emplace_back();
  ring.seq_id = seq_id;
  ring.length = length;
  ring.zone = zone;
  ring.rank_offset = static_cast<uint32_t>(rank_arena.size());
  ring.rank_count = static_cast<uint32_t>(ring_ranks.size());
  rank_arena.insert(rank_arena.end(), ring_ranks.begin(), ring_ranks.end());
}

int* RingStore::Append(int seq_id, int64_t length, Zone zone, int count) {
  return EmitRing(&refs, &ref_count, &arena, &rank_count, seq_id, length, zone, count);
}

void FabricView::Build(const ClusterSpec& cluster, const RankTopology* topology) {
  const int num_nodes = cluster.num_nodes;
  const int p = cluster.gpus_per_node;
  if (topology != nullptr) {
    ZCHECK_EQ(topology->world(), cluster.world_size()) << "topology/cluster world mismatch";
  }
  degraded = false;
  alive_nodes = 0;
  ranks.clear();
  speeds.clear();
  offsets.assign(num_nodes + 1, 0);
  rates.assign(num_nodes, 0);
  clean.assign(num_nodes, 1);
  for (int node = 0; node < num_nodes; ++node) {
    for (int d = 0; d < p; ++d) {
      const int rank = node * p + d;
      const bool alive = topology == nullptr || topology->alive[rank] != 0;
      const int64_t speed = topology == nullptr ? kSpeedScale : topology->speed_q[rank];
      if (!alive || speed != kSpeedScale) {
        clean[node] = 0;
        degraded = true;
      }
      if (alive) {
        ranks.push_back(rank);
        speeds.push_back(speed);
        rates[node] += speed;
      }
    }
    offsets[node + 1] = static_cast<int>(ranks.size());
    alive_nodes += alive(node) > 0 ? 1 : 0;
  }
}

SequencePartitioner::SequencePartitioner(const ClusterSpec& cluster, Options options)
    : cluster_(cluster), options_(options) {
  cluster_.Validate();
  ZCHECK_GT(options_.token_capacity, 0);
}

void SequencePartitioner::set_options(Options options) {
  options_ = options;
  ZCHECK_GT(options_.token_capacity, 0);
}

namespace {

// Index of the least-loaded bucket (ties -> lowest index, deterministic).
int ArgMinLoad(const std::vector<int64_t>& loads) {
  int best = 0;
  for (int i = 1; i < static_cast<int>(loads.size()); ++i) {
    if (loads[i] < loads[best]) {
      best = i;
    }
  }
  return best;
}

// Indices of the k least-loaded buckets, ascending by (load, index); the
// final order is node-ascending to keep rings node-ordered. Selection only
// needs a partial sort; the explicit (load, index) comparator reproduces
// what the seed's stable full sort by load alone would select.
std::vector<int> LeastLoaded(const std::vector<int64_t>& loads, int k) {
  std::vector<int> order(loads.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](int a, int b) { return loads[a] != loads[b] ? loads[a] < loads[b] : a < b; });
  order.resize(k);
  std::sort(order.begin(), order.end());  // Keep ring order node-ascending.
  return order;
}

// Sequence ids by length, descending (Alg. 1 line 1 / Alg. 2 inherited order).
void BuildDescendingOrder(const Batch& batch, std::vector<int>* order) {
  order->resize(batch.seq_lens.size());
  std::iota(order->begin(), order->end(), 0);
  std::stable_sort(order->begin(), order->end(), [&](int a, int b) {
    return batch.seq_lens[a] > batch.seq_lens[b];
  });
}

}  // namespace

// --- Inter-node stage (Alg. 1), reference greedy ------------------------------
//
// Structurally the seed implementation: fresh workspaces per pass, zone
// re-splits, and whole-stage restarts on overflow. Kept (modulo the
// partial-sort LeastLoaded and the flat-arena emission every path shares)
// as the clean-fabric equivalence oracle and the bench baseline.

void SequencePartitioner::PartitionInterNodeNaive(const Batch& batch, PartitionPlan* plan,
                                                  PlannerScratch* s) const {
  const int num_nodes = cluster_.num_nodes;
  const int p = cluster_.gpus_per_node;
  const int64_t node_capacity = static_cast<int64_t>(p) * options_.token_capacity;

  // Sort sequence ids by length, descending (Alg. 1 line 1).
  std::vector<int> order;
  BuildDescendingOrder(batch, &order);

  int64_t total = batch.total_tokens();
  ZCHECK_LE(total, static_cast<int64_t>(num_nodes) * node_capacity)
      << "batch does not fit the cluster at capacity L=" << options_.token_capacity;

  int64_t s1 = node_capacity;  // Alg. 1 line 2.
  if (options_.max_inter_threshold > 0) {
    s1 = std::min(s1, options_.max_inter_threshold);
  }
  s->threshold_s1_initial = s1;
  for (bool retry = true; retry;) {
    retry = false;
    s->assignments.assign(num_nodes, NodeAssignment{});
    // A retry rewinds every ring emitted so far (including single-node z2
    // rings routed to the intra queue): reset all three cursors.
    s->inter_ring_count = 0;
    s->intra_ring_count = 0;
    s->arena_count = 0;
    std::vector<int64_t> node_loads(num_nodes, 0);

    // Zone split at the current threshold (lines 5-6).
    std::vector<int> z2;   // |s| >= s1.
    std::vector<int> z01;  // |s| < s1, still sorted descending.
    for (int id : order) {
      (batch.seq_lens[id] >= s1 ? z2 : z01).push_back(id);
    }

    // Chunk inter-node sequences over ceil(|s| / s_avg) node buckets
    // (lines 7-10).
    int64_t z2_total = 0;
    for (int id : z2) {
      z2_total += batch.seq_lens[id];
    }
    if (!z2.empty()) {
      const double s_avg = static_cast<double>(z2_total) / num_nodes;
      for (int id : z2) {
        const int64_t len = batch.seq_lens[id];
        const int k = InterNodeChunkCount(len, s_avg, num_nodes);
        const std::vector<int> nodes = LeastLoaded(node_loads, k);

        // A z2 sequence that lands in a single node bucket (k == 1, e.g. on
        // a one-node cluster) never crosses the network: it is an intra-node
        // ring over that node's devices, not an inter-node one.
        const bool inter = nodes.size() > 1;
        int* out = inter ? EmitRing(&plan->inter_node, &s->inter_ring_count, &plan->rank_arena,
                                    &s->arena_count, id, len, Zone::kInterNode,
                                    static_cast<int>(nodes.size()) * p)
                         : EmitRing(&plan->intra_node, &s->intra_ring_count, &plan->rank_arena,
                                    &s->arena_count, id, len, Zone::kIntraNode, p);
        for (int node : nodes) {
          for (int local = 0; local < p; ++local) {
            *out++ = cluster_.GlobalRank(node, local);
          }
        }
        // Record per-node chunk loads (even split across the k nodes).
        for (int c = 0; c < k; ++c) {
          const int64_t chunk = len * (c + 1) / k - len * c / k;
          s->assignments[nodes[c]].inter_chunks.emplace_back(id, chunk);
          node_loads[nodes[c]] += chunk;
        }
      }
    }

    // Pack the rest onto least-loaded nodes (lines 11-19).
    for (int id : z01) {
      const int64_t len = batch.seq_lens[id];
      const int idx = ArgMinLoad(node_loads);
      if (len + node_loads[idx] > node_capacity) {
        s1 = len;  // len == max(z01): z01 is sorted descending, and any
                   // earlier sequence was placed successfully.
        retry = true;
        break;
      }
      node_loads[idx] += len;
      s->assignments[idx].sequences.push_back(id);
    }
  }
  plan->threshold_s1 = s1;
}

// --- Intra-node stage (Alg. 2), reference greedy -------------------------------

void SequencePartitioner::PartitionIntraNodeNaive(const Batch& batch, int node,
                                                  const NodeAssignment& assignment,
                                                  PartitionPlan* plan,
                                                  PlannerScratch* s) const {
  const int p = cluster_.gpus_per_node;
  const int64_t capacity = options_.token_capacity;

  // Sequence ids on this node, longest first (inherited from Alg. 1 order).
  std::vector<int> seqs = assignment.sequences;
  std::stable_sort(seqs.begin(), seqs.end(), [&](int a, int b) {
    return batch.seq_lens[a] > batch.seq_lens[b];
  });

  int64_t s0 = capacity;  // Alg. 2 line 1.
  if (options_.max_local_threshold > 0) {
    s0 = std::min(s0, options_.max_local_threshold);
  }
  // Emission snapshots: a restart rewinds this node's rings (headers + arena
  // slots), leaving earlier nodes' output untouched; locals buffer in the
  // pass-local vectors below and only reach the plan after the final pass.
  const size_t ring_base = s->intra_ring_count;
  const size_t arena_base = s->arena_count;
  std::vector<LocalSequence> locals;      // z0 locals of the current pass.
  std::vector<LocalSequence> locals_z1;   // Single-fragment z1 conversions.
  std::vector<int64_t> device_loads;

  for (bool retry = true; retry;) {
    retry = false;
    s->intra_ring_count = ring_base;
    s->arena_count = arena_base;
    locals.clear();
    locals_z1.clear();
    device_loads.assign(p, 0);

    // Inter-node chunks are spread evenly over all P devices (lines 4-6).
    for (const auto& [seq_id, chunk_len] : assignment.inter_chunks) {
      for (int d = 0; d < p; ++d) {
        device_loads[d] += chunk_len * (d + 1) / p - chunk_len * d / p;
      }
    }

    // Zone split at the current threshold (line 7).
    std::vector<int> z0;
    std::vector<int> z1;
    for (int id : seqs) {
      (batch.seq_lens[id] >= s0 ? z1 : z0).push_back(id);
    }

    // Quadratic-balanced fragmentation of intra-node sequences (lines 8-12).
    double c_total = 0;
    for (int id : z1) {
      const double len = static_cast<double>(batch.seq_lens[id]);
      c_total += len * len;
    }
    int cursor = 0;  // Round-robin start for fragment placement.
    if (!z1.empty()) {
      const double c_avg = c_total / p;
      for (int id : z1) {
        const int64_t len = batch.seq_lens[id];
        const int fragments = IntraNodeFragmentCount(static_cast<double>(len), c_avg, p);

        if (fragments == 1) {
          // A size-1 "ring" needs no communication: it executes as a local
          // kernel, after this node's z0 locals (the seed's end-of-stage
          // ring conversion, applied at emission time).
          locals_z1.push_back({id, len, cluster_.GlobalRank(node, cursor)});
          device_loads[cursor] += len;
          cursor = (cursor + 1) % p;
          continue;
        }

        int* out = EmitRing(&plan->intra_node, &s->intra_ring_count, &plan->rank_arena,
                            &s->arena_count, id, len, Zone::kIntraNode, fragments);
        for (int f = 0; f < fragments; ++f) {
          const int device = (cursor + f) % p;
          out[f] = cluster_.GlobalRank(node, device);
          device_loads[device] += len * (f + 1) / fragments - len * f / fragments;
        }
        cursor = (cursor + fragments) % p;
      }
    }

    // Local sequences onto least-loaded devices (lines 13-21).
    for (int id : z0) {
      const int64_t len = batch.seq_lens[id];
      const int idx = ArgMinLoad(device_loads);
      if (len + device_loads[idx] > capacity) {
        s0 = len;  // max(z0): z0 is sorted descending.
        retry = true;
        break;
      }
      device_loads[idx] += len;
      locals.push_back({id, len, cluster_.GlobalRank(node, idx)});
    }
  }

  // z0 locals land first, then the single-fragment z1 conversions (matching
  // the seed's locals-then-converted-rings order).
  plan->local.insert(plan->local.end(), locals.begin(), locals.end());
  plan->local.insert(plan->local.end(), locals_z1.begin(), locals_z1.end());
  for (int d = 0; d < p; ++d) {
    plan->tokens_per_rank[cluster_.GlobalRank(node, d)] += device_loads[d];
  }
  plan->threshold_s0[node] = s0;
}

// --- Driver -----------------------------------------------------------------

namespace {

// Resets `plan` and rewinds the scratch's emission cursors: ring headers and
// arena slots are cursor-managed (storage recycled across calls), then
// trimmed to the live counts at the end.
void BeginPlan(const ClusterSpec& cluster, const Batch& batch, PlannerScratch* scratch,
               PartitionPlan* plan) {
  ZCHECK_GT(batch.size(), 0);
  ZCHECK(scratch != nullptr);
  ZCHECK(plan != nullptr);
  plan->local.clear();
  plan->tokens_per_rank.assign(cluster.world_size(), 0);
  plan->threshold_s0.assign(cluster.num_nodes, 0);
  plan->threshold_s1 = 0;
  scratch->inter_ring_count = 0;
  scratch->intra_ring_count = 0;
  scratch->arena_count = 0;
}

}  // namespace

PartitionPlan SequencePartitioner::Partition(const Batch& batch,
                                             const RankTopology* topology) const {
  PlannerScratch scratch;
  return Partition(batch, &scratch, topology);
}

PartitionPlan SequencePartitioner::Partition(const Batch& batch, PlannerScratch* scratch,
                                             const RankTopology* topology) const {
  PartitionPlan plan;
  Partition(batch, scratch, &plan, topology);
  return plan;
}

void SequencePartitioner::Partition(const Batch& batch, PlannerScratch* scratch,
                                    PartitionPlan* plan, const RankTopology* topology) const {
  BeginPlan(cluster_, batch, scratch, plan);
  scratch->fabric.Build(cluster_, topology);
  PartitionSharded(batch, scratch, plan);
  // The key-build pass already summed the batch; skip the O(S) re-sum.
  ZCHECK_EQ(plan->total_tokens(), scratch->batch_total) << "partitioner must conserve tokens";
}

PartitionPlan SequencePartitioner::PartitionNaive(const Batch& batch) const {
  PlannerScratch scratch;
  PartitionPlan plan;
  PartitionNaive(batch, &scratch, &plan);
  return plan;
}

void SequencePartitioner::PartitionNaive(const Batch& batch, PlannerScratch* scratch,
                                         PartitionPlan* plan) const {
  BeginPlan(cluster_, batch, scratch, plan);
  PartitionInterNodeNaive(batch, plan, scratch);
  for (int node = 0; node < cluster_.num_nodes; ++node) {
    PartitionIntraNodeNaive(batch, node, scratch->assignments[node], plan, scratch);
  }
  plan->inter_node.resize(scratch->inter_ring_count);
  plan->intra_node.resize(scratch->intra_ring_count);
  plan->rank_arena.resize(scratch->arena_count);
  ZCHECK_EQ(plan->total_tokens(), batch.total_tokens()) << "partitioner must conserve tokens";
}

}  // namespace zeppelin
