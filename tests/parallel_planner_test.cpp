// Sharded planner engine: the determinism contract and the bulk packing
// kernel.
//
// The contract (partitioner.h): plans are byte-identical between the naive
// oracle and the sharded engine, whatever a reused scratch held before —
// including batches that force overflow restarts and degenerate clusters.
// These tests pin the contract (on clean fabrics, with or without a clean
// topology; on degraded ones, against a fresh scratch) and the
// GreedyPacker's placement-for-placement equivalence with
// LoadTracker::pack_min, and NormalizedLoads' pick-for-pick equivalence with
// the degraded packing rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/greedy_packer.h"
#include "src/common/load_tracker.h"
#include "src/common/normalized_loads.h"
#include "src/common/rng.h"
#include "src/core/partitioner.h"
#include "src/core/plan_verify.h"
#include "src/data/datasets.h"
#include "src/data/sampler.h"
#include "src/data/stream.h"
#include "src/topology/cluster.h"

namespace zeppelin {
namespace {

// --- GreedyPacker vs LoadTracker -----------------------------------------------

struct PackTrace {
  std::vector<int> buckets;
  int stop = 0;
};

PackTrace ReferencePack(const std::vector<int64_t>& loads, const std::vector<int64_t>& weights,
                        int64_t cap) {
  LoadTracker tracker;
  tracker.Assign(loads);
  PackTrace trace;
  for (size_t i = 0; i < weights.size(); ++i) {
    const int bucket = tracker.pack_min(weights[i], cap);
    if (bucket < 0) {
      trace.stop = static_cast<int>(i);
      return trace;
    }
    trace.buckets.push_back(bucket);
  }
  trace.stop = static_cast<int>(weights.size());
  return trace;
}

PackTrace PackerPack(const std::vector<int64_t>& loads, const std::vector<int64_t>& weights,
                     int64_t cap, GreedyPacker* packer) {
  packer->Assign(loads);
  PackTrace trace;
  trace.buckets.resize(weights.size(), -1);
  trace.stop = packer->Pack(
      static_cast<int>(weights.size()), cap, [&](int i) { return weights[i]; },
      [&](int i, int bucket, int64_t w) {
        EXPECT_EQ(w, weights[i]);
        trace.buckets[i] = bucket;
      });
  trace.buckets.resize(trace.stop);
  return trace;
}

// Random non-increasing weight streams with heavy duplication (uniform runs),
// random starting loads, and caps from "never binds" to "binds early".
TEST(GreedyPackerTest, MatchesLoadTrackerOnRandomStreams) {
  Rng rng(20260728);
  for (int n : {1, 2, 7, 8, 64, 100}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<int64_t> loads(n);
      for (int64_t& l : loads) {
        l = static_cast<int64_t>(rng.NextBounded(5000));
      }
      const int count = 1 + static_cast<int>(rng.NextBounded(2000));
      std::vector<int64_t> weights(count);
      int64_t w = 64 * (1 + static_cast<int64_t>(rng.NextBounded(512)));
      int64_t total = 0;
      for (int i = 0; i < count; ++i) {
        // Decay in runs: ~30% chance to drop, quantized to 64.
        if (rng.NextBounded(10) < 3 && w > 64) {
          w -= 64 * (1 + static_cast<int64_t>(rng.NextBounded(4)));
          w = std::max<int64_t>(w, 64);
        }
        weights[i] = w;
        total += w;
      }
      for (int cap_case = 0; cap_case < 3; ++cap_case) {
        int64_t cap = INT64_MAX / 4;
        if (cap_case == 1) {
          cap = total / n + weights[0];  // Tight: may or may not bind.
        } else if (cap_case == 2) {
          cap = total / (2 * n) + weights[0];  // Binds partway through.
        }
        GreedyPacker packer;
        const PackTrace ref = ReferencePack(loads, weights, cap);
        const PackTrace got = PackerPack(loads, weights, cap, &packer);
        ASSERT_EQ(got.stop, ref.stop) << "n=" << n << " trial=" << trial << " cap=" << cap_case;
        ASSERT_EQ(got.buckets, ref.buckets)
            << "n=" << n << " trial=" << trial << " cap=" << cap_case;
        if (ref.stop == count) {
          // Final loads must match the reference too.
          LoadTracker tracker;
          tracker.Assign(loads);
          for (int i = 0; i < count; ++i) {
            tracker.add(ref.buckets[i], weights[i]);
          }
          std::vector<int64_t> got_loads;
          packer.Loads(&got_loads);
          for (int b = 0; b < n; ++b) {
            ASSERT_EQ(got_loads[b], tracker.load(b)) << "bucket " << b;
          }
        }
      }
    }
  }
}

// Valley regime: a few huge weights spread the loads far beyond the following
// tiny weights, forcing the round condition to fail and the packer into its
// heap fallback — placements must still match exactly.
TEST(GreedyPackerTest, MatchesLoadTrackerInValleyRegime) {
  for (int n : {8, 64}) {
    std::vector<int64_t> loads(n, 0);
    std::vector<int64_t> weights;
    for (int i = 0; i < n / 2; ++i) {
      weights.push_back(1 << 20);  // Cliff: half the buckets get huge loads.
    }
    for (int i = 0; i < 4000; ++i) {
      weights.push_back(64);  // Tiny items must fill the valleys one by one.
    }
    GreedyPacker packer;
    const PackTrace ref = ReferencePack(loads, weights, INT64_MAX / 4);
    const PackTrace got = PackerPack(loads, weights, INT64_MAX / 4, &packer);
    ASSERT_EQ(got.stop, ref.stop);
    ASSERT_EQ(got.buckets, ref.buckets) << "n=" << n;
  }
}

// Bulk behavior: on a quantized descending stream the op counter must stay
// near the item count — a per-item O(log n) walk would show up as a multiple.
TEST(GreedyPackerTest, BulkCommitsKeepOpsNearItemCount) {
  const int n = 64;
  const int count = 65536;
  Rng rng(7);
  std::vector<int64_t> weights(count);
  for (int i = 0; i < count; ++i) {
    weights[i] = 64 * (1 + static_cast<int64_t>(rng.NextBounded(4096)));
  }
  std::sort(weights.begin(), weights.end(), std::greater<>());
  GreedyPacker packer;
  packer.Assign(std::vector<int64_t>(n, 0));
  packer.ResetOps();
  const int stop = packer.Pack(count, INT64_MAX / 4, [&](int i) { return weights[i]; },
                               [](int, int, int64_t) {});
  ASSERT_EQ(stop, count);
  EXPECT_LE(packer.ops(), static_cast<int64_t>(8) * count)
      << "round batching degraded to per-item work";
}

// --- NormalizedLoads vs the rule it caches --------------------------------------

// The degraded packing rule computed from its definition on every pick:
// least raw * nominal / rate among live buckets with raw room, lowest index
// on ties.
int ReferenceNormalizedPick(const std::vector<int64_t>& rates, int64_t nominal,
                            const std::vector<int64_t>& loads, const std::vector<int64_t>& caps,
                            int64_t len) {
  int best = -1;
  int64_t best_key = 0;
  for (size_t b = 0; b < rates.size(); ++b) {
    if (rates[b] == 0 || loads[b] + len > caps[b]) {
      continue;
    }
    const int64_t key = loads[b] * nominal / rates[b];
    if (best < 0 || key < best_key) {
      best = static_cast<int>(b);
      best_key = key;
    }
  }
  return best;
}

// Random rates (dead, the slowest quantized speed, nominal, fast), uneven
// capacities and starting loads, and streams that run the buckets full: the
// cached keys must reproduce the definition pick for pick.
TEST(NormalizedLoadsTest, PicksMatchTheRuleOnRandomStreams) {
  Rng rng(20261017);
  for (int n : {1, 3, 8, 32}) {
    for (int trial = 0; trial < 50; ++trial) {
      const int64_t nominal = kSpeedScale * (1 + static_cast<int64_t>(rng.NextBounded(8)));
      std::vector<int64_t> rates(n);
      std::vector<int64_t> caps(n);
      std::vector<int64_t> loads(n);
      for (int b = 0; b < n; ++b) {
        const int64_t speeds[] = {0, 1, kSpeedScale / 2, kSpeedScale, 3 * kSpeedScale};
        rates[b] = speeds[rng.NextBounded(5)] * (1 + static_cast<int64_t>(rng.NextBounded(4)));
        caps[b] = 1000 * (1 + static_cast<int64_t>(rng.NextBounded(8)));
        loads[b] = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(caps[b])));
      }
      NormalizedLoads picks;
      picks.Assign(rates, nominal, loads, [&](int b) { return caps[b]; });
      for (int i = 0; i < 200; ++i) {
        const int64_t len = static_cast<int64_t>(rng.NextBounded(600));
        const int want = ReferenceNormalizedPick(rates, nominal, loads, caps, len);
        ASSERT_EQ(picks.Pick(len), want) << "n=" << n << " trial=" << trial << " item " << i;
        if (want < 0) {
          break;
        }
        picks.Add(want, len);
        loads[want] += len;
        ASSERT_EQ(picks.room(want), caps[want] - loads[want]);
      }
      EXPECT_EQ(picks.loads(), loads);
    }
  }
}

// --- Plan equivalence across engines --------------------------------------------

void ExpectPlansIdentical(const PartitionPlan& got, const PartitionPlan& want,
                          const std::string& context) {
  ASSERT_EQ(got.inter_node.size(), want.inter_node.size()) << context;
  ASSERT_EQ(got.intra_node.size(), want.intra_node.size()) << context;
  ASSERT_EQ(got.local.size(), want.local.size()) << context;
  EXPECT_EQ(got.rank_arena, want.rank_arena) << context;
  EXPECT_EQ(got.tokens_per_rank, want.tokens_per_rank) << context;
  EXPECT_EQ(got.threshold_s1, want.threshold_s1) << context;
  EXPECT_EQ(got.threshold_s0, want.threshold_s0) << context;
  // The defaulted operator== covers every field byte-for-byte.
  EXPECT_TRUE(got == want) << context;
}

// Runs the naive oracle, then the sharded engine without a topology and with
// an all-alive nominal-speed one; every plan must be byte-identical. One
// scratch serves every run (the engine's twice each): steady-state reuse
// across paths and fabric views must not leak.
void CheckAllEngines(const ClusterSpec& cluster, const Batch& batch, int64_t capacity,
                     const std::string& context) {
  PlannerScratch scratch;
  SequencePartitioner engine(cluster, {.token_capacity = capacity});
  PartitionPlan naive_plan;
  engine.PartitionNaive(batch, &scratch, &naive_plan);
  RankTopology clean;
  clean.Reset(cluster.world_size());
  const RankTopology* const topologies[] = {nullptr, &clean};

  for (const RankTopology* topology : topologies) {
    PartitionPlan engine_plan;
    for (int run = 0; run < 2; ++run) {
      engine.Partition(batch, &scratch, &engine_plan, topology);
      ExpectPlansIdentical(engine_plan, naive_plan,
                           context + " [engine run " + std::to_string(run) +
                               (topology != nullptr ? " clean topology]" : "]"));
    }
  }
}

TEST(ParallelPlannerTest, IdenticalOnEvaluationDatasets) {
  const std::vector<ClusterSpec> clusters = {MakeClusterA(2), MakeClusterA(8), MakeClusterC(4)};
  for (const auto& dist : EvaluationDatasets()) {
    for (const ClusterSpec& cluster : clusters) {
      const int world = cluster.num_nodes * cluster.gpus_per_node;
      for (uint64_t seed = 1; seed <= 5; ++seed) {
        BatchSampler sampler(dist, static_cast<int64_t>(world) * 4096, seed);
        const Batch batch = sampler.NextBatch();
        CheckAllEngines(cluster, batch, 4096,
                        dist.name() + " " + cluster.name + " seed " + std::to_string(seed));
      }
    }
  }
}

// Zero-slack capacity forces overflow restarts in both stages; the engine's
// restart paths (boundary advance + replay, and the incremental re-label
// shortcut) must land on the same thresholds and placements as the oracle's
// whole-stage restarts.
TEST(ParallelPlannerTest, IdenticalUnderForcedOverflowRestarts) {
  const std::vector<ClusterSpec> clusters = {MakeClusterA(4), MakeClusterC(8)};
  for (const auto& dist : EvaluationDatasets()) {
    for (const ClusterSpec& cluster : clusters) {
      const int world = cluster.num_nodes * cluster.gpus_per_node;
      for (uint64_t seed = 11; seed <= 14; ++seed) {
        BatchSampler sampler(dist, static_cast<int64_t>(world) * 8192, seed);
        const Batch batch = sampler.NextBatch();
        const int64_t tight = (batch.total_tokens() + world - 1) / world;
        // The tight capacity must actually shrink a threshold somewhere.
        SequencePartitioner probe(cluster, {.token_capacity = tight});
        const PartitionPlan plan = probe.PartitionNaive(batch);
        bool restarted = plan.threshold_s1 < tight * cluster.gpus_per_node;
        for (int64_t s0 : plan.threshold_s0) {
          restarted = restarted || (s0 > 0 && s0 < tight);
        }
        EXPECT_TRUE(restarted) << dist.name() << " seed " << seed;
        CheckAllEngines(cluster, batch, tight,
                        dist.name() + " tight " + cluster.name + " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(ParallelPlannerTest, IdenticalWithZoneThresholdCaps) {
  const ClusterSpec cluster = MakeClusterA(4);
  for (const auto& dist : EvaluationDatasets()) {
    BatchSampler sampler(dist, 32 * 8192, 99);
    const Batch batch = sampler.NextBatch();
    for (int64_t inter_cap : {int64_t{8192}, int64_t{32768}}) {
      const SequencePartitioner partitioner(cluster, {.token_capacity = 8192,
                                                      .max_inter_threshold = inter_cap,
                                                      .max_local_threshold = 2048});
      const PartitionPlan naive_plan = partitioner.PartitionNaive(batch);
      const PartitionPlan got = partitioner.Partition(batch);
      ExpectPlansIdentical(got, naive_plan,
                           dist.name() + " capped s1<=" + std::to_string(inter_cap));
      // The caps force nonempty z2 / z1 zones — make sure rings exist so
      // the ring-merge path is actually exercised.
      EXPECT_FALSE(got.inter_node.empty() && got.intra_node.empty()) << dist.name();
    }
  }
}

TEST(ParallelPlannerTest, IdenticalOnEdgeBatches) {
  const ClusterSpec one_node = MakeClusterA(1);
  const ClusterSpec cluster = MakeClusterA(2);
  auto make = [](std::vector<int64_t> lens) {
    Batch b;
    b.seq_lens = std::move(lens);
    return b;
  };
  // Degenerate 1-node cluster: every z2 sequence is a single-node ring.
  CheckAllEngines(one_node, make({16384, 8192, 2048, 512, 512}), 4096, "one node");
  // Two sequences: most of the engine's per-node work is empty.
  CheckAllEngines(cluster, make({4096, 64}), 4096, "tiny batch");
  // Single sequence filling the cluster exactly.
  CheckAllEngines(cluster, make({16 * 4096}), 4096, "single full");
  // All-equal lengths: pure tie-breaking through the uniform-block path.
  CheckAllEngines(cluster, make(std::vector<int64_t>(64, 1024)), 4096, "uniform");
  // Duplicates around the promotion boundary.
  CheckAllEngines(cluster, make({8192, 8192, 8192, 4096, 4096, 4096, 4096, 64, 64, 64}), 4096,
                  "duplicates");
}

// A degraded fabric plans through the same engine: the plan is byte-
// identical on a fresh scratch and (twice) on one reused across every case,
// passes the certifier with the topology, puts nothing on dead ranks, and
// keeps every alive node's raw load within its alive capacity m*L.
TEST(ParallelPlannerTest, DegradedPlansCertifiedAndScratchInvariant) {
  const ClusterSpec cluster = MakeClusterA(4);  // 4 nodes x 8 GPUs.
  const int p = cluster.gpus_per_node;
  RankTopology topology;
  topology.Reset(cluster.world_size());
  TopologyDelta faults;
  faults.removed_ranks = {p + 1, p + 4, p + 7};  // Node 1: 5 of 8 alive.
  for (int d = 0; d < p; ++d) {
    faults.removed_ranks.push_back(2 * p + d);  // Node 2: dead.
  }
  faults.speed_factors = {{2, 0.5}, {3 * p + 5, 0.5}};  // Nodes 0 and 3.
  topology.Apply(faults);
  const int64_t alive = topology.alive_count();

  bool saw_inter = false;
  PlannerScratch reused;
  for (const auto& dist : EvaluationDatasets()) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      BatchSampler sampler(dist, alive * 4096, seed);
      const Batch batch = sampler.NextBatch();
      const int64_t average = (batch.total_tokens() + alive - 1) / alive;
      for (int64_t capacity : {average + average / 4, average + average / 32}) {
        const std::string context = dist.name() + " seed " + std::to_string(seed) +
                                    " L=" + std::to_string(capacity);
        SequencePartitioner engine(cluster, {.token_capacity = capacity});
        const PartitionPlan plan = engine.Partition(batch, &topology);
        PartitionPlan reused_plan;
        for (int run = 0; run < 2; ++run) {
          engine.Partition(batch, &reused, &reused_plan, &topology);
          ExpectPlansIdentical(reused_plan, plan,
                               context + " reused scratch run " + std::to_string(run));
        }

        const PlanVerifyResult verdict = VerifyPlan(plan, &batch, &topology, {.eps = -1});
        EXPECT_TRUE(verdict.ok()) << context << ": " << verdict.message;
        for (int node = 0; node < cluster.num_nodes; ++node) {
          int64_t node_load = 0;
          int m = 0;
          for (int d = 0; d < p; ++d) {
            const int rank = node * p + d;
            if (!topology.alive[rank]) {
              EXPECT_EQ(plan.tokens_per_rank[rank], 0) << context << " dead rank " << rank;
            }
            node_load += plan.tokens_per_rank[rank];
            m += topology.alive[rank];
          }
          EXPECT_LE(node_load, m * capacity) << context << " node " << node;
        }
        saw_inter = saw_inter || !plan.inter_node.empty();
      }
    }
  }
  EXPECT_TRUE(saw_inter) << "no case exercised a multi-node ring on the degraded fabric";
}

// The engine must route its packing through GreedyPacker in bulk: ops near
// the sequence count, not S log P. A reintroduced per-sequence heap walk or
// linear scan blows past this bound.
TEST(ParallelPlannerTest, PackerOpCountStaysBulk) {
  const int kSeqs = 8192;
  const ClusterSpec cluster = MakeClusterA(32);  // P = 256.
  const int world = cluster.num_nodes * cluster.gpus_per_node;
  for (const auto& dist : EvaluationDatasets()) {
    Rng rng(7);
    Batch batch;
    for (int i = 0; i < kSeqs; ++i) {
      batch.seq_lens.push_back(dist.Sample(rng));
    }
    const int64_t average = (batch.total_tokens() + world - 1) / world;
    SequencePartitioner partitioner(cluster, {.token_capacity = average + average / 4});
    PlannerScratch scratch;
    const PartitionPlan plan = partitioner.Partition(batch, &scratch);
    EXPECT_EQ(plan.total_tokens(), batch.total_tokens());
    EXPECT_GT(scratch.packer_ops(), 0) << "engine must route through GreedyPacker";
    EXPECT_LE(scratch.packer_ops(), static_cast<int64_t>(10) * (kSeqs + world))
        << dist.name() << ": packing degraded to per-item heap walks";
  }
}

}  // namespace
}  // namespace zeppelin
