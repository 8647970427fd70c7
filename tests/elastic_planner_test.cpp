// Elastic replanning (docs/ELASTIC.md): the deterministic fault injector
// (twin FaultStreams are bit-identical, schedules respect the liveness
// invariants), RankTopology speed math, seeded kill/restore/slowdown soaks
// holding the degraded equivalence contract on the surviving fabric at every
// step, twin-pipeline digest determinism, the migration-budget fallback
// (byte-identical to a from-scratch elastic plan), restore-to-clean byte
// identity, in-place restores and speed increases with the two restore
// fallbacks (dead node, chunk-carrying node), the rank-universe gate in the
// plan wire format, the PlannerService topology path and its per-cause
// fallback counters, and the registry's +faults= knob.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/delta_planner.h"
#include "src/core/plan_io.h"
#include "src/core/plan_service.h"
#include "src/core/plan_verify.h"
#include "src/core/registry.h"
#include "src/core/zeppelin.h"
#include "src/data/datasets.h"
#include "src/data/stream.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"
#include "src/topology/path.h"

namespace zeppelin {
namespace {

constexpr double kThreshold = 0.08;
// The delta-path eps budget plus the documented stationarity margin
// (docs/DELTA_PLANS.md, docs/ELASTIC.md).
constexpr double kEps = kThreshold + 0.05;
// Elastic soaks budget one extra notch: the topology imbalance guard bounds
// drift against the *base* plan's imbalance, while the equivalence check
// compares against a from-scratch elastic plan that can balance the
// surviving fabric strictly better (bench/planner_elastic.cpp uses the
// same budget).
constexpr double kElasticEps = 0.15;

Batch SampleBatch(const LengthDistribution& dist, int num_seqs, uint64_t seed) {
  Rng rng(seed);
  Batch batch;
  batch.seq_lens.reserve(num_seqs);
  for (int i = 0; i < num_seqs; ++i) {
    batch.seq_lens.push_back(dist.Sample(rng));
  }
  return batch;
}

int64_t SlackCapacity(const Batch& batch, const ClusterSpec& cluster) {
  const int64_t world = cluster.world_size();
  const int64_t average = (batch.total_tokens() + world - 1) / world;
  return average + average / 4;
}

DeltaPlannerOptions MakeOptions(const Batch& batch, const ClusterSpec& cluster,
                                double threshold = kThreshold) {
  DeltaPlannerOptions options;
  options.partitioner.token_capacity = SlackCapacity(batch, cluster);
  options.replan_threshold = threshold;
  return options;
}

// Kills every rank of `node` in one delta.
TopologyDelta KillNode(const ClusterSpec& cluster, int node) {
  TopologyDelta delta;
  for (int d = 0; d < cluster.gpus_per_node; ++d) {
    delta.removed_ranks.push_back(node * cluster.gpus_per_node + d);
  }
  return delta;
}

// From-scratch reference on the surviving fabric: advance the twin's
// topology without patching (no base), then re-plan the current batch
// (the partitioner, given the planner's topology).
void FullElasticReplan(DeltaPlanner* twin, const TopologyDelta& topo, const Batch& batch) {
  twin->Invalidate();
  twin->ApplyTopology(topo);
  twin->Rebase(batch);
}

// The topology delta that takes a fresh planner from the clean fabric to
// `topology`: every dead rank killed, every off-nominal speed re-rated.
TopologyDelta FromClean(const RankTopology& topology) {
  TopologyDelta delta;
  for (int rank = 0; rank < topology.world(); ++rank) {
    if (!topology.alive[rank]) {
      delta.removed_ranks.push_back(rank);
    }
    if (topology.speed_q[rank] != kSpeedScale) {
      delta.speed_factors.emplace_back(rank, topology.speed(rank));
    }
  }
  return delta;
}

// Rank slots the rings of both queues reference: a tight arena holds exactly
// these (docs/PLAN_FORMAT.md invariant 3).
size_t RingRankSlots(const PartitionPlan& plan) {
  size_t slots = 0;
  for (const std::vector<RingRef>* queue : {&plan.inter_node, &plan.intra_node}) {
    for (const RingRef& ring : *queue) {
      slots += ring.rank_count;
    }
  }
  return slots;
}

bool IsTopologyOutcome(DeltaOutcome outcome) {
  return outcome == DeltaOutcome::kAppliedTopology ||
         outcome == DeltaOutcome::kRebasedTopology ||
         outcome == DeltaOutcome::kRebasedMigration;
}

// --- FaultStream ---------------------------------------------------------------

TEST(FaultStreamTest, TwinStreamsBitIdentical) {
  const FaultStreamOptions opts{.fault_rate = 0.05,
                                .restore_after = 3,
                                .slowdown_rate = 0.02,
                                .min_speed = 0.5,
                                .min_alive = 8};
  FaultStream a(64, opts, 0xfee1);
  FaultStream b(64, opts, 0xfee1);
  for (int iter = 0; iter < 200; ++iter) {
    const TopologyDelta da = a.Next();
    const TopologyDelta db = b.Next();
    ASSERT_EQ(da.removed_ranks, db.removed_ranks) << "iter " << iter;
    ASSERT_EQ(da.added_ranks, db.added_ranks) << "iter " << iter;
    ASSERT_EQ(da.speed_factors, db.speed_factors) << "iter " << iter;
    ASSERT_EQ(a.topology(), b.topology()) << "iter " << iter;
  }
}

TEST(FaultStreamTest, ScheduleRespectsLivenessInvariants) {
  const int world = 16;
  const FaultStreamOptions opts{.fault_rate = 0.3,
                                .restore_after = 2,
                                .slowdown_rate = 0.1,
                                .min_speed = 0.5,
                                .min_alive = 4};
  FaultStream stream(world, opts, 0xdead);
  RankTopology mirror;
  mirror.Reset(world);
  bool saw_kill = false;
  bool saw_restore = false;
  for (int iter = 0; iter < 300; ++iter) {
    const TopologyDelta delta = stream.Next();
    for (int rank : delta.removed_ranks) {
      // A rank never dies and revives in the same delta.
      ASSERT_EQ(std::count(delta.added_ranks.begin(), delta.added_ranks.end(), rank), 0);
    }
    // The emitted delta folds cleanly into an external mirror (Apply ZCHECKs
    // kills hit live ranks and restores hit dead ones) and lands on the
    // stream's own topology.
    mirror.Apply(delta);
    ASSERT_EQ(mirror, stream.topology()) << "iter " << iter;
    ASSERT_GE(stream.topology().alive_count(), opts.min_alive) << "iter " << iter;
    saw_kill = saw_kill || !delta.removed_ranks.empty();
    saw_restore = saw_restore || !delta.added_ranks.empty();
  }
  EXPECT_TRUE(saw_kill);
  EXPECT_TRUE(saw_restore);
}

TEST(RankTopologyTest, SpeedMathAndDegradedTrigger) {
  RankTopology topo;
  topo.Reset(4);
  EXPECT_FALSE(topo.degraded());
  EXPECT_EQ(topo.alive_count(), 4);
  // Nominal speed is exact: effective load == raw tokens.
  EXPECT_EQ(topo.EffectiveLoad(0, 1000), 1000);

  TopologyDelta slow;
  slow.speed_factors.emplace_back(1, 0.5);
  topo.Apply(slow);
  EXPECT_TRUE(topo.degraded());
  EXPECT_EQ(topo.speed_q[1], kSpeedScale / 2);
  EXPECT_EQ(topo.EffectiveLoad(1, 1000), 2000);

  TopologyDelta kill;
  kill.removed_ranks.push_back(2);
  topo.Apply(kill);
  EXPECT_EQ(topo.alive_count(), 3);
  EXPECT_EQ(topo.alive[2], 0);

  TopologyDelta restore;
  restore.added_ranks.push_back(2);
  topo.Apply(restore);
  EXPECT_EQ(topo.alive_count(), 4);
}

// --- Seeded fault soaks --------------------------------------------------------

// The acceptance soak: at fault rates {0.1%, 1%, 5%} every iteration's
// patched plan must hold the degraded equivalence contract against a full
// elastic re-plan on the surviving fabric.
TEST(ElasticSoakTest, EquivalentOnSurvivingFabricAtEveryStep) {
  const LengthDistribution dist = DatasetByName("github");
  const ClusterSpec cluster = MakeClusterA(4);
  const double rates[] = {0.001, 0.01, 0.05};
  for (int r = 0; r < 3; ++r) {
    const Batch initial = SampleBatch(dist, 512, 0xe1a57 + r);
    DeltaPlanner dp(cluster, MakeOptions(initial, cluster));
    DeltaPlanner full(cluster, MakeOptions(initial, cluster));
    dp.Rebase(initial);

    FaultStream faults(cluster.world_size(),
                       FaultStreamOptions{.fault_rate = rates[r],
                                          .restore_after = 4,
                                          .slowdown_rate = rates[r] / 2,
                                          .min_speed = 0.5,
                                          .min_alive = cluster.world_size() / 2},
                       0xfa17 + r);
    WorkloadStream stream(dist, initial, StreamOptions{.churn_fraction = 0.005}, 0xdeadbeef);
    for (int iter = 0; iter < 30; ++iter) {
      const TopologyDelta topo = faults.Next();
      dp.ApplyTopology(topo);
      const BatchDelta delta = stream.Next();
      dp.Apply(delta);

      FullElasticReplan(&full, topo, dp.batch());
      const DeltaEquivalenceResult result =
          CheckDeltaEquivalence(dp.plan(), full.plan(), dp.batch(), dp.topology(), kElasticEps);
      ASSERT_TRUE(result.ok) << "rate " << rates[r] << " iter " << iter << ": "
                             << result.failure << " (ratio " << result.max_load_ratio << ")";
      ASSERT_LE(result.max_load_ratio, 1.0 + kElasticEps)
          << "rate " << rates[r] << " iter " << iter;
      ASSERT_EQ(RingRankSlots(dp.plan()), dp.plan().rank_arena.size())
          << "rate " << rates[r] << " iter " << iter;
    }
  }
}

// Every topology patch that restores or speeds up a rank holds the degraded
// equivalence contract, over consecutive seeds of a restore-heavy stream
// (restores three steps after each fault): on 4 nodes at 5% faults, where
// the fabric a base plan was made on is often degraded, and on 16 nodes at
// 1%, where most scale-ups patch.
TEST(ElasticSoakTest, PatchedScaleUpsHoldTheContractOverSeeds) {
  const LengthDistribution dist = DatasetByName("github");
  struct Case {
    int nodes;
    double fault_rate;
    int num_seqs;
    int seeds;
  };
  int patched_scale_ups = 0;
  for (const Case& c : {Case{4, 0.05, 512, 8}, Case{16, 0.01, 1024, 4}}) {
    const ClusterSpec cluster = MakeClusterA(c.nodes);
    for (int seed = 0; seed < c.seeds; ++seed) {
      const Batch initial = SampleBatch(dist, c.num_seqs, 0x5e5 + seed);
      DeltaPlanner dp(cluster, MakeOptions(initial, cluster));
      dp.Rebase(initial);
      FaultStream faults(cluster.world_size(),
                         FaultStreamOptions{.fault_rate = c.fault_rate,
                                            .restore_after = 3,
                                            .slowdown_rate = c.fault_rate / 2,
                                            .min_speed = 0.5,
                                            .min_alive = cluster.world_size() / 2},
                         0x7e57 + seed);
      WorkloadStream stream(dist, initial, StreamOptions{.churn_fraction = 0.005}, 0xbeef + seed);
      for (int iter = 0; iter < 30; ++iter) {
        const TopologyDelta topo = faults.Next();
        bool scales_up = !topo.added_ranks.empty();
        for (const auto& [rank, factor] : topo.speed_factors) {
          scales_up = scales_up || QuantizeSpeed(factor) > dp.topology().speed_q[rank];
        }
        if (dp.ApplyTopology(topo) == DeltaOutcome::kAppliedTopology && scales_up) {
          ++patched_scale_ups;
          DeltaPlanner full(cluster, dp.options());
          FullElasticReplan(&full, FromClean(dp.topology()), dp.batch());
          const DeltaEquivalenceResult result = CheckDeltaEquivalence(
              dp.plan(), full.plan(), dp.batch(), dp.topology(), kElasticEps);
          ASSERT_TRUE(result.ok) << c.nodes << " nodes, seed " << seed << ", iter " << iter
                                 << ": " << result.failure << " (ratio "
                                 << result.max_load_ratio << ")";
        }
        dp.Apply(stream.Next());
      }
    }
  }
  EXPECT_GT(patched_scale_ups, 0);
}

// Twin pipelines (same planner options, fault seed, and workload seed) must
// report identical outcomes and byte-identical plans every iteration — the
// digest determinism currency extended to fabric churn.
TEST(ElasticSoakTest, TwinPipelinesDigestIdentical) {
  const LengthDistribution dist = DatasetByName("github");
  const ClusterSpec cluster = MakeClusterA(2);
  const Batch initial = SampleBatch(dist, 384, 0x7717);

  DeltaPlanner dp(cluster, MakeOptions(initial, cluster));
  DeltaPlanner twin(cluster, MakeOptions(initial, cluster));
  dp.Rebase(initial);
  twin.Rebase(initial);

  const FaultStreamOptions fopts{.fault_rate = 0.02,
                                 .restore_after = 3,
                                 .slowdown_rate = 0.01,
                                 .min_speed = 0.5,
                                 .min_alive = 4};
  FaultStream faults(cluster.world_size(), fopts, 0xabcd);
  FaultStream twin_faults(cluster.world_size(), fopts, 0xabcd);
  WorkloadStream stream(dist, initial, StreamOptions{.churn_fraction = 0.01}, 0xc0ffee);
  WorkloadStream twin_stream(dist, initial, StreamOptions{.churn_fraction = 0.01}, 0xc0ffee);

  for (int iter = 0; iter < 25; ++iter) {
    const DeltaOutcome topo_a = dp.ApplyTopology(faults.Next());
    const DeltaOutcome topo_b = twin.ApplyTopology(twin_faults.Next());
    ASSERT_EQ(topo_a, topo_b) << "iter " << iter;
    const DeltaOutcome batch_a = dp.Apply(stream.Next());
    const DeltaOutcome batch_b = twin.Apply(twin_stream.Next());
    ASSERT_EQ(batch_a, batch_b) << "iter " << iter;
    ASSERT_EQ(dp.topology(), twin.topology()) << "iter " << iter;
    ASSERT_EQ(dp.plan().StateDigest(), twin.plan().StateDigest())
        << "twin pipelines diverged at iter " << iter;
  }
}

// --- Migration budget ----------------------------------------------------------

// A short-sequence batch keeps every plan entry in z0/z1 (no chunk rings),
// so killing a whole node exercises the pure migration path.
Batch ShortBatch(int num_seqs, uint64_t seed) {
  Rng rng(seed);
  Batch batch;
  batch.seq_lens.reserve(num_seqs);
  for (int i = 0; i < num_seqs; ++i) {
    batch.seq_lens.push_back(1024 + 64 * static_cast<int64_t>(rng.NextBounded(32)));
  }
  return batch;
}

TEST(ElasticMigrationTest, BudgetExceededFallsBackByteIdenticalToFromScratch) {
  const ClusterSpec cluster = MakeClusterA(4);
  const Batch batch = ShortBatch(512, 0x5eed);
  DeltaPlannerOptions options = MakeOptions(batch, cluster);
  options.partitioner.token_capacity *= 2;  // Survivors absorb a node.
  options.migration_budget = 0;                         // Force the fallback.

  DeltaPlanner dp(cluster, options);
  dp.Rebase(batch);
  const TopologyDelta kill = KillNode(cluster, 3);
  const DeltaOutcome outcome = dp.ApplyTopology(kill);
  EXPECT_EQ(outcome, DeltaOutcome::kRebasedMigration);
  EXPECT_EQ(dp.stats().count(DeltaOutcome::kRebasedMigration), 1);
  EXPECT_EQ(dp.stats().migrated_sequences, 0);

  // The fallback plan is byte-identical to a from-scratch elastic plan of
  // the same batch on the same surviving fabric.
  DeltaPlanner scratch(cluster, options);
  FullElasticReplan(&scratch, kill, batch);
  EXPECT_EQ(dp.plan().StateDigest(), scratch.plan().StateDigest());
  EXPECT_EQ(SerializePlan(dp.plan()), SerializePlan(scratch.plan()));
}

TEST(ElasticMigrationTest, WithinBudgetMigratesInPlace) {
  const ClusterSpec cluster = MakeClusterA(4);
  const Batch batch = ShortBatch(512, 0x5eed);
  DeltaPlannerOptions options = MakeOptions(batch, cluster);
  options.partitioner.token_capacity *= 2;
  options.migration_budget = 100000;

  DeltaPlanner dp(cluster, options);
  dp.Rebase(batch);
  const TopologyDelta kill = KillNode(cluster, 3);
  const DeltaOutcome outcome = dp.ApplyTopology(kill);
  EXPECT_EQ(outcome, DeltaOutcome::kAppliedTopology);
  EXPECT_EQ(dp.stats().count(DeltaOutcome::kAppliedTopology), 1);
  EXPECT_GT(dp.stats().migrated_sequences, 0);
  // The patched migration, pinned byte for byte (the session golden's
  // whole-node kill ends in an imbalance re-plan).
  EXPECT_EQ(dp.plan().StateDigest(), 0xe6a64e0b152ab1a4ULL);

  // Dead ranks carry nothing.
  for (int rank : kill.removed_ranks) {
    EXPECT_EQ(dp.plan().tokens_per_rank[rank], 0) << "rank " << rank;
  }

  DeltaPlanner full(cluster, options);
  FullElasticReplan(&full, kill, batch);
  const DeltaEquivalenceResult result =
      CheckDeltaEquivalence(dp.plan(), full.plan(), dp.batch(), dp.topology(), kEps);
  EXPECT_TRUE(result.ok) << result.failure;
}

// The killed node owns an intra-node ring (z1) but no chunks: evicting the
// ring marks the dead node dirty, and the dirty-node re-run must skip it.
TEST(ElasticMigrationTest, WithinBudgetMigratesIntraRingOffDeadNode) {
  const ClusterSpec cluster = MakeClusterA(4);
  Batch batch = ShortBatch(512, 0x5eed);
  for (int i = 0; i < 4; ++i) {
    batch.seq_lens.push_back(150000);
  }
  DeltaPlannerOptions options = MakeOptions(batch, cluster);
  options.partitioner.token_capacity *= 2;
  options.migration_budget = 100000;

  DeltaPlanner dp(cluster, options);
  dp.Rebase(batch);
  const int p = cluster.gpus_per_node;
  const int dead_node = 3;
  ASSERT_TRUE(dp.plan().inter_node.empty()) << "precondition: no chunk rings";
  ASSERT_TRUE(std::any_of(dp.plan().intra_node.begin(), dp.plan().intra_node.end(),
                          [&](const RingRef& ring) {
                            return dp.plan().rank_arena[ring.rank_offset] / p == dead_node;
                          }))
      << "precondition: the killed node owns an intra-node ring";

  const TopologyDelta kill = KillNode(cluster, dead_node);
  EXPECT_EQ(dp.ApplyTopology(kill), DeltaOutcome::kAppliedTopology);
  EXPECT_GT(dp.stats().migrated_sequences, 0);
  for (int rank : kill.removed_ranks) {
    EXPECT_EQ(dp.plan().tokens_per_rank[rank], 0) << "rank " << rank;
  }

  DeltaPlanner full(cluster, options);
  FullElasticReplan(&full, kill, batch);
  const DeltaEquivalenceResult result =
      CheckDeltaEquivalence(dp.plan(), full.plan(), dp.batch(), dp.topology(), kEps);
  EXPECT_TRUE(result.ok) << result.failure;
}

TEST(ElasticMigrationTest, WorkOnADeadRankFailsEquivalence) {
  const ClusterSpec cluster = MakeClusterA(4);
  const Batch batch = ShortBatch(512, 0x5eed);
  DeltaPlannerOptions options = MakeOptions(batch, cluster);
  options.partitioner.token_capacity *= 2;
  options.migration_budget = 100000;

  DeltaPlanner dp(cluster, options);
  dp.Rebase(batch);
  const TopologyDelta kill = KillNode(cluster, 3);
  ASSERT_EQ(dp.ApplyTopology(kill), DeltaOutcome::kAppliedTopology);
  DeltaPlanner full(cluster, options);
  FullElasticReplan(&full, kill, batch);
  ASSERT_TRUE(
      CheckDeltaEquivalence(dp.plan(), full.plan(), dp.batch(), dp.topology(), kEps).ok);

  // Move one live local, tokens and all, onto a dead rank.
  PartitionPlan patched = dp.plan();
  const auto live = std::find_if(patched.local.begin(), patched.local.end(),
                                 [](const LocalSequence& seq) { return seq.length > 0; });
  ASSERT_NE(live, patched.local.end());
  const int dead = kill.removed_ranks.front();
  patched.tokens_per_rank[live->rank] -= live->length;
  patched.tokens_per_rank[dead] += live->length;
  live->rank = dead;
  const DeltaEquivalenceResult result =
      CheckDeltaEquivalence(patched, full.plan(), dp.batch(), dp.topology(), kEps);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.failure.find("patched plan fails VerifyPlan (dead-rank)"), std::string::npos)
      << result.failure;
}

TEST(ElasticRestoreTest, FullRestoreReturnsToCleanBytePath) {
  const ClusterSpec cluster = MakeClusterA(4);
  const Batch batch = ShortBatch(512, 0x0dd);
  DeltaPlannerOptions options = MakeOptions(batch, cluster);
  options.partitioner.token_capacity *= 2;

  DeltaPlanner dp(cluster, options);
  dp.Rebase(batch);
  const TopologyDelta kill = KillNode(cluster, 2);
  dp.ApplyTopology(kill);
  EXPECT_TRUE(dp.topology().degraded());

  TopologyDelta restore;
  restore.added_ranks = kill.removed_ranks;
  dp.ApplyTopology(restore);
  EXPECT_FALSE(dp.topology().degraded());

  // Back on the full fabric the planner re-enters the homogeneous path:
  // a re-plan is byte-identical to a planner that never saw the outage.
  dp.Rebase(batch);
  DeltaPlanner clean(cluster, options);
  clean.Rebase(batch);
  EXPECT_EQ(dp.plan().StateDigest(), clean.plan().StateDigest());
  EXPECT_EQ(SerializePlan(dp.plan()), SerializePlan(clean.plan()));
}

// A patched topology step must pass VerifyPlan with every clause on (the
// planner's pinned capacity, the balance certificate, the world) and the
// degraded equivalence contract against a from-scratch elastic re-plan.
void ExpectCertifiedAndEquivalent(const DeltaPlanner& dp) {
  PlanVerifyOptions vopts;
  vopts.token_capacity = dp.token_capacity();
  vopts.world = dp.cluster().world_size();
  const PlanVerifyResult verdict = VerifyPlan(dp.plan(), &dp.batch(), &dp.topology(), vopts);
  EXPECT_TRUE(verdict.ok()) << PlanVerifyStatusName(verdict.status) << ": " << verdict.message;

  DeltaPlanner full(dp.cluster(), dp.options());
  FullElasticReplan(&full, FromClean(dp.topology()), dp.batch());
  ASSERT_EQ(full.topology(), dp.topology());
  const DeltaEquivalenceResult result =
      CheckDeltaEquivalence(dp.plan(), full.plan(), dp.batch(), dp.topology(), kElasticEps);
  EXPECT_TRUE(result.ok) << result.failure << " (ratio " << result.max_load_ratio << ")";
}

// The alive rank of `node` carrying the fewest tokens.
int LeastLoadedRank(const DeltaPlanner& dp, int node) {
  const int p = dp.cluster().gpus_per_node;
  int best = -1;
  for (int rank = node * p; rank < (node + 1) * p; ++rank) {
    if (dp.topology().alive[rank] &&
        (best < 0 || dp.plan().tokens_per_rank[rank] < dp.plan().tokens_per_rank[best])) {
      best = rank;
    }
  }
  return best;
}

int64_t TopologyFallbacks(const DeltaPlanner& dp, TopologyFallback cause) {
  return dp.stats().topology_fallbacks[static_cast<int>(cause)];
}

TEST(ElasticRestoreTest, PartialNodeRestorePatchesAndPutsTheRankToWork) {
  // 16 nodes: one degraded node is within the drift budget's share of the
  // fabric, so the restore patches whether or not the kill re-planned.
  const ClusterSpec cluster = MakeClusterA(16);
  const Batch batch = ShortBatch(2048, 0x0dd);
  DeltaPlanner dp(cluster, MakeOptions(batch, cluster));
  dp.Rebase(batch);
  TopologyDelta kill;
  kill.removed_ranks.push_back(LeastLoadedRank(dp, 1));
  dp.ApplyTopology(kill);  // Patched or re-planned; either leaves the rank idle.
  ASSERT_EQ(dp.plan().tokens_per_rank[kill.removed_ranks[0]], 0);

  TopologyDelta restore;
  restore.added_ranks = kill.removed_ranks;
  EXPECT_EQ(dp.ApplyTopology(restore), DeltaOutcome::kAppliedTopology);
  EXPECT_FALSE(dp.topology().degraded());
  EXPECT_GT(dp.plan().tokens_per_rank[restore.added_ranks[0]], 0);
  ExpectCertifiedAndEquivalent(dp);
}

TEST(ElasticRestoreTest, RestoreOntoADeadNodeRePlans) {
  const ClusterSpec cluster = MakeClusterA(4);
  const Batch batch = ShortBatch(512, 0x0dd);
  DeltaPlanner dp(cluster, MakeOptions(batch, cluster));
  dp.Rebase(batch);
  dp.ApplyTopology(KillNode(cluster, 2));

  // Node 2 has no alive rank and so no members: its work must cross nodes.
  TopologyDelta restore;
  restore.added_ranks.push_back(2 * cluster.gpus_per_node + 3);
  EXPECT_EQ(dp.ApplyTopology(restore), DeltaOutcome::kRebasedTopology);
  EXPECT_EQ(TopologyFallbacks(dp, TopologyFallback::kDeadNodeRestore), 1);
  EXPECT_GT(dp.plan().tokens_per_rank[restore.added_ranks[0]], 0);
  ExpectCertifiedAndEquivalent(dp);
}

// On 4 nodes one degraded node is past the drift budget's share: a re-plan
// made around it says little of what the restored fabric allows.
TEST(ElasticRestoreTest, RestoreOnADegradedBaseRePlans) {
  const ClusterSpec cluster = MakeClusterA(4);
  const Batch batch = ShortBatch(512, 0x0dd);
  DeltaPlanner dp(cluster, MakeOptions(batch, cluster));
  dp.Rebase(batch);
  TopologyDelta kill;
  kill.removed_ranks.push_back(LeastLoadedRank(dp, 1));
  // The kill lifts node 1's survivors by 8/7, past the drift budget: the
  // pre-patch bound re-plans on the degraded fabric.
  ASSERT_EQ(dp.ApplyTopology(kill), DeltaOutcome::kRebasedImbalance);

  TopologyDelta restore;
  restore.added_ranks = kill.removed_ranks;
  EXPECT_EQ(dp.ApplyTopology(restore), DeltaOutcome::kRebasedTopology);
  EXPECT_EQ(TopologyFallbacks(dp, TopologyFallback::kDegradedBase), 1);
  EXPECT_FALSE(dp.topology().degraded());
  EXPECT_GT(dp.plan().tokens_per_rank[restore.added_ranks[0]], 0);
  ExpectCertifiedAndEquivalent(dp);
}

TEST(ElasticRestoreTest, RestoreOnAChunkCarryingNodeRePlans) {
  const ClusterSpec cluster = MakeClusterA(4);
  Batch batch = ShortBatch(512, 0x0dd);
  // One sequence past P*L: an inter-node ring that chunks over every node.
  batch.seq_lens.push_back(batch.total_tokens());
  DeltaPlanner dp(cluster, MakeOptions(batch, cluster));
  dp.Rebase(batch);
  const int p = cluster.gpus_per_node;
  const int rank = LeastLoadedRank(dp, 1);
  auto chunked_on_node = [&] {
    return std::any_of(dp.plan().inter_node.begin(), dp.plan().inter_node.end(),
                       [&](const RingRef& ring) {
                         const std::span<const int> ranks = dp.plan().ranks(ring);
                         return std::any_of(ranks.begin(), ranks.end(),
                                            [&](int r) { return r / p == rank / p; });
                       });
  };
  ASSERT_TRUE(chunked_on_node()) << "precondition: node 1 carries inter-node chunks";

  TopologyDelta kill;
  kill.removed_ranks.push_back(rank);
  EXPECT_EQ(dp.ApplyTopology(kill), DeltaOutcome::kRebasedTopology);
  ASSERT_TRUE(chunked_on_node()) << "precondition: the re-plan keeps node 1's chunks";

  TopologyDelta restore;
  restore.added_ranks.push_back(rank);
  EXPECT_EQ(dp.ApplyTopology(restore), DeltaOutcome::kRebasedTopology);
  EXPECT_EQ(TopologyFallbacks(dp, TopologyFallback::kChunkNodeLiveness), 2);
  ExpectCertifiedAndEquivalent(dp);
}

// One delta kills a rank on node 0 and restores one on node 1: the kill's
// checks, the restore's dirty mark and the shared guards run in one patch.
TEST(ElasticRestoreTest, KillAndRestoreInOneDeltaPatch) {
  const ClusterSpec cluster = MakeClusterA(4);
  const Batch batch = ShortBatch(512, 0x0dd);
  // A kill moves its rank's load onto the node's 7 survivors (+14% on them):
  // a drift budget above that lets the patch stand.
  DeltaPlanner dp(cluster, MakeOptions(batch, cluster, /*threshold=*/0.25));
  dp.Rebase(batch);
  TopologyDelta first;
  first.removed_ranks.push_back(LeastLoadedRank(dp, 1));
  ASSERT_EQ(dp.ApplyTopology(first), DeltaOutcome::kAppliedTopology);

  TopologyDelta mixed;
  mixed.removed_ranks.push_back(LeastLoadedRank(dp, 0));
  mixed.added_ranks = first.removed_ranks;
  const int64_t repacked = dp.stats().repacked_nodes;
  EXPECT_EQ(dp.ApplyTopology(mixed), DeltaOutcome::kAppliedTopology);
  EXPECT_EQ(dp.stats().repacked_nodes, repacked + 2);
  EXPECT_EQ(dp.plan().tokens_per_rank[mixed.removed_ranks[0]], 0);
  EXPECT_GT(dp.plan().tokens_per_rank[mixed.added_ranks[0]], 0);
  ExpectCertifiedAndEquivalent(dp);
}

TEST(ElasticSlowdownTest, SpeedIncreasePatchesAndTheRankTakesLoad) {
  const ClusterSpec cluster = MakeClusterA(4);
  const Batch batch = ShortBatch(512, 0x51);
  DeltaPlanner dp(cluster, MakeOptions(batch, cluster));
  dp.Rebase(batch);
  const int rank = 3;
  TopologyDelta slow;
  slow.speed_factors.emplace_back(rank, 0.5);
  ASSERT_EQ(dp.ApplyTopology(slow), DeltaOutcome::kAppliedTopology);
  const int64_t slowed_tokens = dp.plan().tokens_per_rank[rank];

  TopologyDelta fast;
  fast.speed_factors.emplace_back(rank, 1.0);
  EXPECT_EQ(dp.ApplyTopology(fast), DeltaOutcome::kAppliedTopology);
  EXPECT_FALSE(dp.topology().degraded());
  // At the new speed the rank's effective load is its raw load: the re-run
  // hands it more than it carried while slow.
  EXPECT_GT(dp.topology().EffectiveLoad(rank, dp.plan().tokens_per_rank[rank]),
            dp.topology().EffectiveLoad(rank, slowed_tokens));
  ExpectCertifiedAndEquivalent(dp);
}

TEST(ElasticSlowdownTest, StragglersShedEffectiveLoad) {
  const LengthDistribution dist = DatasetByName("github");
  const ClusterSpec cluster = MakeClusterA(4);
  const Batch batch = SampleBatch(dist, 512, 0x51);
  DeltaPlannerOptions options = MakeOptions(batch, cluster);
  options.partitioner.token_capacity *= 2;

  DeltaPlanner dp(cluster, options);
  dp.Rebase(batch);
  TopologyDelta slow;
  for (int d = 0; d < cluster.gpus_per_node / 2; ++d) {
    slow.speed_factors.emplace_back(d, 0.5);
  }
  dp.ApplyTopology(slow);
  EXPECT_TRUE(dp.topology().degraded());

  DeltaPlanner full(cluster, options);
  FullElasticReplan(&full, slow, batch);
  const DeltaEquivalenceResult result =
      CheckDeltaEquivalence(dp.plan(), full.plan(), dp.batch(), dp.topology(), kEps);
  EXPECT_TRUE(result.ok) << result.failure;
  EXPECT_LE(result.max_load_ratio, 1.0 + kEps);
}

// --- Wire-format rank-universe gate --------------------------------------------

TEST(PlanIoElasticTest, RankUniverseGateRejectsOversizedPlans) {
  const ClusterSpec cluster = MakeClusterA(2);  // 16 ranks.
  const Batch batch = ShortBatch(128, 0x10);
  DeltaPlanner dp(cluster, MakeOptions(batch, cluster));
  dp.Rebase(batch);
  const std::string bytes = SerializePlan(dp.plan());

  PartitionPlan parsed;
  // A smaller fabric must refuse the plan with the typed status.
  const PlanIoResult small = ParsePlan(bytes, &parsed, /*max_world=*/8);
  EXPECT_EQ(small.status, PlanIoStatus::kRankUniverse);
  // An exact-fit bound and the unbounded default both accept it.
  EXPECT_EQ(ParsePlan(bytes, &parsed, /*max_world=*/16).status, PlanIoStatus::kOk);
  EXPECT_EQ(ParsePlan(bytes, &parsed, /*max_world=*/0).status, PlanIoStatus::kOk);
  EXPECT_EQ(parsed.StateDigest(), dp.plan().StateDigest());
}

// --- PlannerService topology path ----------------------------------------------

TEST(PlanServiceElasticTest, SessionAppliesTopologyAndReportsSessionCount) {
  const ClusterSpec cluster = MakeClusterA(2);
  FabricResources fabric(cluster);
  CostModel cost_model(MakeLlama3B(), cluster);
  PlannerService service;

  const LengthDistribution dist = DatasetByName("github");
  WorkloadStream stream(dist, SampleBatch(dist, 384, 0xe5),
                        StreamOptions{.stream_id = "elastic", .churn_fraction = 0.01}, 0x9);

  PlanRequest base;
  base.batch = &stream.batch();
  base.cost_model = &cost_model;
  base.fabric = &fabric;
  base.stream_id = "elastic";
  const PlanResponse based = service.Plan(base);
  EXPECT_EQ(based.stats.delta_outcome, DeltaOutcome::kRebasedNoBase);
  EXPECT_EQ(based.stats.session_count, 1u);

  // Fabric churn rides the session request: the response's plan schedules
  // nothing on the killed rank whether it patched or fell back.
  TopologyDelta kill;
  kill.removed_ranks.push_back(5);
  const BatchDelta delta = stream.Next();
  PlanRequest step;
  step.batch = &stream.batch();
  step.cost_model = &cost_model;
  step.fabric = &fabric;
  step.stream_id = "elastic";
  step.delta = &delta;
  step.topology = &kill;
  const PlanResponse response = service.Plan(step);
  EXPECT_TRUE(IsTopologyOutcome(response.stats.delta_outcome))
      << DeltaOutcomeName(response.stats.delta_outcome);
  EXPECT_EQ(response.plan->tokens_per_rank[5], 0);
  EXPECT_EQ(response.stats.session_count, 1u);

  EXPECT_TRUE(service.CloseSession("elastic"));
  EXPECT_FALSE(service.HasSession("elastic"));
  EXPECT_EQ(service.session_count(), 0u);

  // Stateless requests ignore the topology field entirely.
  PlanRequest stateless;
  stateless.batch = &stream.batch();
  stateless.cost_model = &cost_model;
  stateless.fabric = &fabric;
  stateless.topology = &kill;
  const PlanResponse flat = service.Plan(stateless);
  ASSERT_NE(flat.plan, nullptr);
  EXPECT_NE(flat.stats.engine, PlanEngine::kDeltaPatch);
  EXPECT_EQ(flat.stats.session_count, 0u);
}

// Each topology fallback a session answers bumps delta.rebased:topology and
// exactly one delta.topology_fallback.* counter, named for its cause.
TEST(PlanServiceElasticTest, TopologyFallbacksAreCountedByCause) {
  const ClusterSpec cluster = MakeClusterA(2);
  FabricResources fabric(cluster);
  CostModel cost_model(MakeLlama3B(), cluster);
  PlannerService service;
  const LengthDistribution dist = DatasetByName("github");
  WorkloadStream stream(dist, SampleBatch(dist, 384, 0xe6),
                        StreamOptions{.stream_id = "s", .churn_fraction = 0.01}, 0xa);
  PlanRequest request;
  request.batch = &stream.batch();
  request.cost_model = &cost_model;
  request.fabric = &fabric;
  request.stream_id = "s";
  ASSERT_EQ(service.Plan(request).status, PlanStatus::kOk);

  auto step = [&](const TopologyDelta& topology) {
    const BatchDelta delta = stream.Next();
    request.delta = &delta;
    request.topology = &topology;
    const PlanResponse response = service.Plan(request);
    EXPECT_EQ(response.status, PlanStatus::kOk) << response.error;
    return response.stats.delta_outcome;
  };
  step(KillNode(cluster, 1));
  TopologyDelta restore;
  restore.added_ranks.push_back(cluster.gpus_per_node);
  EXPECT_EQ(step(restore), DeltaOutcome::kRebasedTopology);

  auto counter = [&](const std::string& name) {
    for (const auto& [key, value] : service.metrics().Snapshot().counters) {
      if (key == name) {
        return static_cast<int64_t>(value);
      }
    }
    ADD_FAILURE() << name << " is not registered";
    return int64_t{-1};
  };
  EXPECT_EQ(counter("delta.rebased:topology"), 1);
  EXPECT_EQ(counter("delta.topology_fallback.dead-node-restore"), 1);
  EXPECT_EQ(counter("delta.topology_fallback.chunk-node-liveness"), 0);
  EXPECT_EQ(counter("delta.topology_fallback.survivor-overload"), 0);
  EXPECT_EQ(counter("delta.topology_fallback.degraded-base"), 0);
}

// --- Registry / strategy surface -----------------------------------------------

TEST(RegistryElasticTest, FaultsKnobParsesRateAndSeed) {
  const auto seeded = MakeStrategyByName("zeppelin+faults=0.02@7");
  const auto* zeppelin = dynamic_cast<const ZeppelinStrategy*>(seeded.get());
  ASSERT_NE(zeppelin, nullptr);
  EXPECT_DOUBLE_EQ(zeppelin->options().fault_rate, 0.02);
  EXPECT_EQ(zeppelin->options().fault_seed, 7u);

  const auto unseeded = MakeStrategyByName("zeppelin+faults=0.01");
  const auto* plain = dynamic_cast<const ZeppelinStrategy*>(unseeded.get());
  ASSERT_NE(plain, nullptr);
  EXPECT_DOUBLE_EQ(plain->options().fault_rate, 0.01);
  EXPECT_EQ(plain->options().fault_seed, 0u);
}

TEST(StrategyElasticTest, PlanDeltaTopologyOverloadExcludesDeadRanks) {
  const ClusterSpec cluster = MakeClusterA(2);
  FabricResources fabric(cluster);
  CostModel cost_model(MakeLlama3B(), cluster);
  ZeppelinStrategy strategy;

  const LengthDistribution dist = DatasetByName("github");
  WorkloadStream stream(dist, SampleBatch(dist, 384, 0x77),
                        StreamOptions{.churn_fraction = 0.01}, 0x3);
  // First call establishes the base; the 4-arg form still resolves through
  // the using-declaration.
  const BatchDelta d0 = stream.Next();
  strategy.PlanDelta(stream.batch(), d0, cost_model, fabric);
  ASSERT_NE(strategy.plan_handle(), nullptr);

  TopologyDelta kill;
  kill.removed_ranks.push_back(3);
  const BatchDelta d1 = stream.Next();
  strategy.PlanDelta(stream.batch(), d1, cost_model, fabric, &kill);
  const auto plan = strategy.plan_handle();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->tokens_per_rank[3], 0);
}

}  // namespace
}  // namespace zeppelin
