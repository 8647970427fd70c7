// Delta-planning subsystem (src/core/delta_planner.h): correctness of the
// incremental patch path and its equivalence/fallback contract.
//
// The contract (docs/DELTA_PLANS.md): a patched plan is ring-set-equivalent
// to a from-scratch plan on the same batch at the same capacity — identical
// coverage, identical inter-node-zone ring set, token conservation, arena
// validity — with the max rank load within eps of the full re-plan's; and
// the delta path itself is deterministic (identical streams yield identical
// plans). Fallbacks must rebase to plans byte-identical to a direct full
// partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/delta_planner.h"
#include "src/core/plan_io.h"
#include "src/core/trainer.h"
#include "src/core/zeppelin.h"
#include "src/data/datasets.h"
#include "src/data/stream.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"

namespace zeppelin {
namespace {

constexpr double kThreshold = 0.08;
// The tested eps budget: the imbalance-guard allowance plus the documented
// stationarity margin (docs/DELTA_PLANS.md).
constexpr double kEps = kThreshold + 0.05;

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
  options.token_capacity = SlackCapacity(batch, cluster);
  options.replan_threshold = threshold;
  return options;
}

// Full re-plan at the delta planner's (possibly auto-raised) capacity — the
// comparison side of the equivalence contract.
void FullReplan(const DeltaPlanner& dp, SequencePartitioner* ref, PlannerScratch* scratch,
                PartitionPlan* plan) {
  ref->set_options(SequencePartitioner::Options{.token_capacity = dp.token_capacity()});
  ref->Partition(dp.batch(), scratch, plan);
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

// --- StateDigest ---------------------------------------------------------------

TEST(StateDigestTest, EqualPlansDigestEqualAndContentChangesDigest) {
  const ClusterSpec cluster = MakeClusterA(2);
  const Batch batch = SampleBatch(DatasetByName("github"), 128, 0xfeed);
  SequencePartitioner partitioner(
      cluster, SequencePartitioner::Options{.token_capacity = SlackCapacity(batch, cluster)});
  const PartitionPlan a = partitioner.Partition(batch);
  const PartitionPlan b = partitioner.Partition(batch);
  ASSERT_EQ(a, b);
  EXPECT_EQ(a.StateDigest(), b.StateDigest());

  // Digest is layout-invariant but content-sensitive.
  PartitionPlan c = a;
  ASSERT_FALSE(c.local.empty());
  c.tokens_per_rank[c.local.front().rank] -= c.local.front().length;
  c.local.front().rank = (c.local.front().rank + 1) % cluster.world_size();
  c.tokens_per_rank[c.local.front().rank] += c.local.front().length;
  EXPECT_NE(c.StateDigest(), a.StateDigest());
}

TEST(StateDigestTest, QueueOrderInvariant) {
  const ClusterSpec cluster = MakeClusterA(2);
  const Batch batch = SampleBatch(DatasetByName("prolong64k"), 256, 0xabcd);
  SequencePartitioner partitioner(
      cluster, SequencePartitioner::Options{.token_capacity = SlackCapacity(batch, cluster)});
  const PartitionPlan a = partitioner.Partition(batch);
  PartitionPlan b = a;
  ASSERT_GE(b.local.size(), 2u);
  std::swap(b.local.front(), b.local.back());
  EXPECT_EQ(a.StateDigest(), b.StateDigest())
      << "digest must be invariant to queue permutation (delta plans reorder)";
}

// --- Delta application edge cases ----------------------------------------------

TEST(DeltaPlannerTest, EmptyDeltaIsIdentity) {
  const ClusterSpec cluster = MakeClusterA(4);
  const Batch batch = SampleBatch(DatasetByName("github"), 512, 1);
  DeltaPlanner dp(cluster, MakeOptions(batch, cluster));
  dp.Rebase(batch);
  const PartitionPlan before = dp.plan();
  EXPECT_EQ(dp.Apply(BatchDelta{}), DeltaOutcome::kApplied);
  EXPECT_EQ(dp.plan(), before) << "an empty delta must leave the plan byte-identical";
  EXPECT_EQ(dp.plan().StateDigest(), before.StateDigest());
  EXPECT_EQ(dp.stats().count(DeltaOutcome::kApplied), 1);
}

TEST(DeltaPlannerTest, FirstApplyWithoutBaseRebases) {
  const ClusterSpec cluster = MakeClusterA(2);
  const Batch batch = SampleBatch(DatasetByName("github"), 128, 2);
  DeltaPlanner dp(cluster, MakeOptions(batch, cluster));
  // No Rebase(): Apply must refuse to patch thin air. Seed the batch through
  // a rebase-with-delta: start from the batch itself via Rebase, invalidate,
  // then apply.
  dp.Rebase(batch);
  dp.Invalidate();
  BatchDelta delta;
  delta.resized.emplace_back(0, batch.seq_lens[0] + 64);
  EXPECT_EQ(dp.Apply(delta), DeltaOutcome::kRebasedNoBase);
  EXPECT_TRUE(dp.has_base());
  EXPECT_EQ(dp.batch().seq_lens[0], batch.seq_lens[0] + 64);
  EXPECT_EQ(dp.stats().count(DeltaOutcome::kRebasedNoBase), 1);
}

TEST(DeltaPlannerTest, ChurnAboveThresholdFallsBackToByteIdenticalReplan) {
  const ClusterSpec cluster = MakeClusterA(4);
  const Batch batch = SampleBatch(DatasetByName("github"), 512, 3);
  DeltaPlanner dp(cluster, MakeOptions(batch, cluster, /*threshold=*/0.01));
  dp.Rebase(batch);

  WorkloadStream stream(DatasetByName("github"), batch, StreamOptions{.churn_fraction = 0.2},
                        99);
  const BatchDelta delta = stream.Next();
  EXPECT_EQ(dp.Apply(delta), DeltaOutcome::kRebasedChurn);
  EXPECT_EQ(dp.stats().count(DeltaOutcome::kRebasedChurn), 1);

  // A fallback is a full re-plan: byte-identical to partitioning the new
  // batch directly with the same engine and capacity.
  SequencePartitioner ref(cluster,
                          SequencePartitioner::Options{.token_capacity = dp.token_capacity()});
  PlannerScratch scratch;
  PartitionPlan expected;
  ref.Partition(dp.batch(), &scratch, &expected);
  EXPECT_EQ(dp.plan(), expected);
  EXPECT_EQ(dp.plan().StateDigest(), expected.StateDigest());
}

TEST(DeltaPlannerTest, InterZoneChurnFallsBack) {
  const ClusterSpec cluster = MakeClusterA(4);
  // Hand-built batch with a genuine z2 sequence: one 131072-token sequence
  // against 64 x 2048 fillers at L = 10240 exceeds node capacity 8L = 81920,
  // so it chunks across nodes (capacity is sized so Rebase keeps it pinned:
  // total 262144 <= 32 * 10240).
  Batch batch;
  batch.seq_lens.assign(64, 2048);
  batch.seq_lens.push_back(131072);
  DeltaPlannerOptions options;
  options.token_capacity = 10240;
  options.replan_threshold = kThreshold;
  DeltaPlanner dp(cluster, options);
  dp.Rebase(batch);
  ASSERT_EQ(dp.token_capacity(), 10240) << "capacity must stay pinned for this construction";
  ASSERT_FALSE(dp.plan().inter_node.empty()) << "the long sequence must form an inter-node ring";
  const int z2_slot = 64;

  // Removing the z2 sequence invalidates the whole inter-node stage.
  BatchDelta remove_z2;
  remove_z2.removed.push_back(z2_slot);
  remove_z2.added.push_back(2048);
  EXPECT_EQ(dp.Apply(remove_z2), DeltaOutcome::kRebasedZone);

  // Resizing a short sequence into the z2 zone does too (checked before any
  // patching, so capacity pressure never builds up).
  BatchDelta grow;
  grow.resized.emplace_back(3, 90000);
  EXPECT_EQ(dp.Apply(grow), DeltaOutcome::kRebasedZone);
  EXPECT_EQ(dp.stats().count(DeltaOutcome::kRebasedZone), 2);
}

TEST(DeltaPlannerTest, ImbalanceDriftFallsBack) {
  // One sequence per device, perfectly balanced. Tombstoning k of 32 slots
  // drives the patched imbalance to 32/(32-k) - 1 ~ k/32 + (k/32)^2 — always
  // above the churn fraction k/32 — so a threshold between the two admits
  // the churn but must trip the drift guard.
  const ClusterSpec cluster = MakeClusterA(4);
  Batch batch;
  for (int i = 0; i < cluster.world_size(); ++i) {
    batch.seq_lens.push_back(4096);
  }
  DeltaPlannerOptions options;
  options.token_capacity = 8192;
  options.replan_threshold = 0.28;  // Churn 8/32 = 0.25; drift 32/24-1 = 0.33.
  DeltaPlanner dp(cluster, options);
  dp.Rebase(batch);
  ASSERT_DOUBLE_EQ(dp.plan().TokenImbalance(), 1.0);

  BatchDelta delta;
  delta.removed = {0, 1, 2, 3, 4, 5, 6, 7};  // No refills: tombstones.
  EXPECT_EQ(dp.Apply(delta), DeltaOutcome::kRebasedImbalance);
  EXPECT_EQ(dp.stats().count(DeltaOutcome::kRebasedImbalance), 1);
  // The fallback re-plan heals the hole exactly.
  EXPECT_EQ(dp.plan().total_tokens(), dp.batch().total_tokens());
}

TEST(DeltaPlannerTest, CapacityOverflowFallsBackAndRaisesCapacity) {
  const ClusterSpec cluster = MakeClusterA(2);
  Batch batch;
  for (int i = 0; i < 128; ++i) {
    batch.seq_lens.push_back(4096);
  }
  DeltaPlannerOptions options;
  options.token_capacity = (batch.total_tokens() + 15) / 16 + 2048;  // Tight.
  options.replan_threshold = 0.5;  // Let the capacity check, not churn, decide.
  DeltaPlanner dp(cluster, options);
  dp.Rebase(batch);
  const int64_t pinned = dp.token_capacity();

  // Grow several sequences so the batch no longer fits world * L: the
  // incremental pack must overflow, fall back, and auto-raise the capacity.
  BatchDelta grow;
  for (int i = 0; i < 20; ++i) {
    grow.resized.emplace_back(i, 4096 + 32768);
  }
  const DeltaOutcome outcome = dp.Apply(grow);
  EXPECT_EQ(outcome, DeltaOutcome::kRebasedCapacity);
  EXPECT_GT(dp.token_capacity(), pinned);
  EXPECT_EQ(dp.plan().total_tokens(), dp.batch().total_tokens());
}

TEST(DeltaPlannerTest, TombstonesAndRefillsKeepCoverage) {
  const ClusterSpec cluster = MakeClusterA(2);
  const Batch batch = SampleBatch(DatasetByName("fineweb"), 256, 4);
  DeltaPlanner dp(cluster, MakeOptions(batch, cluster));
  dp.Rebase(batch);

  // More removals than additions: surplus removals tombstone their slots.
  BatchDelta shrink;
  shrink.removed = {3, 17, 42, 99};
  shrink.added = {1024};
  ASSERT_EQ(dp.Apply(shrink), DeltaOutcome::kApplied);
  EXPECT_EQ(dp.batch().seq_lens[3], 1024);  // Lowest freed slot refilled.
  EXPECT_EQ(dp.batch().seq_lens[17], 0);
  EXPECT_EQ(dp.batch().seq_lens[42], 0);
  EXPECT_EQ(dp.batch().seq_lens[99], 0);
  EXPECT_EQ(dp.batch().size(), batch.size());

  // More additions than removals: tombstones refill, surplus extends.
  BatchDelta regrow;
  regrow.removed = {17};
  regrow.resized.emplace_back(42, 512);
  regrow.added = {2048, 4096, 8192};
  ASSERT_EQ(dp.Apply(regrow), DeltaOutcome::kApplied);
  EXPECT_EQ(dp.batch().seq_lens[17], 2048);
  EXPECT_EQ(dp.batch().seq_lens[42], 512);
  EXPECT_EQ(dp.batch().size(), batch.size() + 2);

  SequencePartitioner ref(cluster,
                          SequencePartitioner::Options{.token_capacity = dp.token_capacity()});
  PlannerScratch scratch;
  PartitionPlan replan;
  FullReplan(dp, &ref, &scratch, &replan);
  const DeltaEquivalenceResult eq = CheckDeltaEquivalence(dp.plan(), replan, dp.batch(), kEps);
  EXPECT_TRUE(eq.ok) << eq.failure;
}

// --- Randomized churn soak ------------------------------------------------------

struct SoakConfig {
  const char* dataset;
  int num_seqs;
  int nodes;
  double churn;
  double resize_fraction;
  double drop_fraction;
};

void RunSoak(const SoakConfig& config) {
  const ClusterSpec cluster = MakeClusterA(config.nodes);
  const LengthDistribution dist = DatasetByName(config.dataset);
  const Batch initial = SampleBatch(dist, config.num_seqs, 0x50ac ^ config.num_seqs);

  DeltaPlanner dp(cluster, MakeOptions(initial, cluster));
  dp.Rebase(initial);
  // Determinism witness: an identical second planner fed the identical
  // stream must produce identical plans at every step.
  DeltaPlanner twin(cluster, MakeOptions(initial, cluster));
  twin.Rebase(initial);

  SequencePartitioner ref(cluster,
                          SequencePartitioner::Options{.token_capacity = dp.token_capacity()});
  PlannerScratch scratch;
  PartitionPlan replan;

  StreamOptions sopts;
  sopts.churn_fraction = config.churn;
  sopts.resize_fraction = config.resize_fraction;
  sopts.drop_fraction = config.drop_fraction;
  WorkloadStream stream(dist, initial, sopts, 0xc0ffee);
  WorkloadStream twin_stream(dist, initial, sopts, 0xc0ffee);

  int applied = 0;
  for (int it = 0; it < 200; ++it) {
    const BatchDelta delta = stream.Next();
    const DeltaOutcome outcome = dp.Apply(delta);
    applied += outcome == DeltaOutcome::kApplied ? 1 : 0;

    const BatchDelta twin_delta = twin_stream.Next();
    ASSERT_EQ(twin.Apply(twin_delta), outcome) << "iteration " << it;
    ASSERT_EQ(dp.plan().StateDigest(), twin.plan().StateDigest())
        << "delta path nondeterminism at iteration " << it;

    FullReplan(dp, &ref, &scratch, &replan);
    const DeltaEquivalenceResult eq = CheckDeltaEquivalence(dp.plan(), replan, dp.batch(), kEps);
    ASSERT_TRUE(eq.ok) << config.dataset << " iteration " << it << ": " << eq.failure
                       << " (ratio " << eq.max_load_ratio << ")";
    ASSERT_EQ(RingRankSlots(dp.plan()), dp.plan().rank_arena.size()) << "iteration " << it;
  }
  // The soak must actually exercise the patch path, not just fall back.
  EXPECT_GT(applied, 100) << "delta path barely exercised: " << applied << "/200 applied";
  EXPECT_EQ(dp.stats().count(DeltaOutcome::kApplied), applied);
}

TEST(DeltaPlannerSoakTest, LocalDominatedChurn) {
  // Large S relative to the cluster: everything is z0 locals (the bench
  // regime); add/remove/resize mix with occasional tombstones.
  RunSoak({.dataset = "github",
           .num_seqs = 2048,
           .nodes = 2,
           .churn = 0.02,
           .resize_fraction = 0.4,
           .drop_fraction = 0.1});
}

TEST(DeltaPlannerSoakTest, RingHeavyChurn) {
  // Small S on a large cluster: github's 64-256k tail lands above s0, so
  // churn exercises ring eviction, dirty-node Alg. 2 re-runs, and span
  // recycling alongside the local path.
  RunSoak({.dataset = "github",
           .num_seqs = 512,
           .nodes = 16,
           .churn = 0.02,
           .resize_fraction = 0.5,
           .drop_fraction = 0.0});
}

TEST(DeltaPlannerSoakTest, ResizeOnlyChurn) {
  RunSoak({.dataset = "arxiv",
           .num_seqs = 1024,
           .nodes = 4,
           .churn = 0.03,
           .resize_fraction = 1.0,
           .drop_fraction = 0.0});
}

// --- Arena tightness ------------------------------------------------------------

TEST(DeltaPlannerTest, RingChurnKeepsArenaTight) {
  // Ring-heavy config churned hard enough that rings are evicted and nodes
  // re-run every few steps; every patched plan's arena holds exactly the
  // rank slots its rings reference, like an engine plan's.
  const ClusterSpec cluster = MakeClusterA(16);
  const LengthDistribution dist = DatasetByName("github");
  const Batch initial = SampleBatch(dist, 512, 77);
  DeltaPlanner dp(cluster, MakeOptions(initial, cluster));
  dp.Rebase(initial);
  ASSERT_GT(dp.plan().intra_node.size(), 0u) << "config must produce rings";

  SequencePartitioner ref(cluster,
                          SequencePartitioner::Options{.token_capacity = dp.token_capacity()});
  PlannerScratch scratch;
  PartitionPlan replan;

  WorkloadStream stream(dist, initial, StreamOptions{.churn_fraction = 0.02}, 31337);
  for (int it = 0; it < 300; ++it) {
    dp.Apply(stream.Next());
    FullReplan(dp, &ref, &scratch, &replan);
    const DeltaEquivalenceResult eq = CheckDeltaEquivalence(dp.plan(), replan, dp.batch(), kEps);
    ASSERT_TRUE(eq.ok) << "iteration " << it << ": " << eq.failure;
    ASSERT_EQ(RingRankSlots(dp.plan()), dp.plan().rank_arena.size()) << "iteration " << it;
  }
  const DeltaStats& stats = dp.stats();
  EXPECT_GT(stats.evicted_rings, 0);
  EXPECT_GT(stats.repacked_nodes, 0);
}

// --- Equivalence checker: one failing case per clause ---------------------------

// A delta-patched plan and its from-scratch twin holding all three zones:
// at L = 10240 on 4 nodes (node capacity 8L = 81920) the 131072-token
// sequence chunks across nodes, the 16384-token ones form intra-node rings,
// and the 2048-token fillers stay local. The delta resizes one filler, which
// the planner patches in place.
struct PatchedPair {
  Batch batch;
  PartitionPlan patched;
  PartitionPlan replan;

  DeltaEquivalenceResult Check() const {
    return CheckDeltaEquivalence(patched, replan, batch, kEps);
  }
};

PatchedPair MakePatchedPair() {
  const ClusterSpec cluster = MakeClusterA(4);
  Batch initial;
  initial.seq_lens.assign(64, 2048);
  initial.seq_lens.push_back(131072);
  initial.seq_lens.push_back(16384);
  initial.seq_lens.push_back(16384);
  DeltaPlannerOptions options;
  options.token_capacity = 10240;
  options.replan_threshold = kThreshold;
  DeltaPlanner dp(cluster, options);
  dp.Rebase(initial);
  BatchDelta resize;
  resize.resized.emplace_back(0, 1024);
  EXPECT_EQ(dp.Apply(resize), DeltaOutcome::kApplied);
  SequencePartitioner ref(cluster,
                          SequencePartitioner::Options{.token_capacity = dp.token_capacity()});
  PlannerScratch scratch;
  PatchedPair pair;
  FullReplan(dp, &ref, &scratch, &pair.replan);
  pair.batch = dp.batch();
  pair.patched = dp.plan();
  return pair;
}

TEST(DeltaEquivalenceTest, DroppedRingFailsVerifyPlan) {
  PatchedPair pair = MakePatchedPair();
  ASSERT_TRUE(pair.Check().ok) << pair.Check().failure;
  ASSERT_FALSE(pair.patched.intra_node.empty());
  pair.patched.intra_node.pop_back();
  const DeltaEquivalenceResult eq = pair.Check();
  EXPECT_FALSE(eq.ok);
  EXPECT_NE(eq.failure.find("patched plan fails VerifyPlan (coverage)"), std::string::npos)
      << eq.failure;
}

TEST(DeltaEquivalenceTest, ThresholdMismatchFails) {
  PatchedPair pair = MakePatchedPair();
  ASSERT_TRUE(pair.Check().ok) << pair.Check().failure;
  pair.patched.threshold_s1 += 1;
  const DeltaEquivalenceResult eq = pair.Check();
  EXPECT_FALSE(eq.ok);
  EXPECT_NE(eq.failure.find("threshold_s1"), std::string::npos) << eq.failure;
}

TEST(DeltaEquivalenceTest, ChangedZ2RankListFails) {
  PatchedPair pair = MakePatchedPair();
  ASSERT_TRUE(pair.Check().ok) << pair.Check().failure;
  // Reverse one inter-node-zone ring's rank list: the same ranks carry the
  // same loads, so only the z2 ring-set clause can see it.
  RingRef* z2 = nullptr;
  for (std::vector<RingRef>* queue : {&pair.patched.inter_node, &pair.patched.intra_node}) {
    for (RingRef& ring : *queue) {
      if (z2 == nullptr && ring.length >= pair.patched.threshold_s1 && ring.rank_count >= 2) {
        z2 = &ring;
      }
    }
  }
  ASSERT_NE(z2, nullptr) << "config must produce an inter-node-zone ring";
  const auto span = pair.patched.rank_arena.begin() + z2->rank_offset;
  std::reverse(span, span + z2->rank_count);
  const DeltaEquivalenceResult eq = pair.Check();
  EXPECT_FALSE(eq.ok);
  EXPECT_NE(eq.failure.find("inter-node-zone ring sets differ"), std::string::npos)
      << eq.failure;
}

TEST(DeltaEquivalenceTest, PatchedOverloadFails) {
  PatchedPair pair = MakePatchedPair();
  const DeltaEquivalenceResult clean = pair.Check();
  ASSERT_TRUE(clean.ok) << clean.failure;
  // Pile every declared token onto the busiest rank: conservation and the
  // touch sets still hold, so VerifyPlan (balance clause off) passes and
  // only the relational max-load clause can see it.
  std::vector<int64_t>& loads = pair.patched.tokens_per_rank;
  const auto busiest = std::max_element(loads.begin(), loads.end());
  const int64_t total = pair.patched.total_tokens();
  std::fill(loads.begin(), loads.end(), 0);
  *busiest = total;
  const DeltaEquivalenceResult eq = pair.Check();
  EXPECT_FALSE(eq.ok);
  EXPECT_GT(eq.max_load_ratio, 1.0 + kEps);
  EXPECT_NE(eq.failure.find("patched max rank load exceeds the eps bound"), std::string::npos)
      << eq.failure;
}

// --- Golden byte pins for the delta path ---------------------------------------
//
// One seeded session on one DeltaPlanner: each step folds a FaultStream
// topology delta (rank kills, restores) and then a WorkloadStream batch
// delta; a last step kills a whole node and one more restores one of its
// ranks. Every call's outcome, the FNV-1a of SerializePlan(plan()) after it,
// and the plan's StateDigest are pinned. The digest pins content (rings,
// locals, loads, thresholds) independent of arena layout and queue order,
// so a rewrite of the patch path that only moves bytes keeps it; the byte
// FNV pins the layout too. A digest that moves means the delta planner's
// decisions changed. Print the current values in table syntax with
//   ZEPPELIN_GOLDEN_PRINT=1 ./delta_planner_test --gtest_filter='*Golden*'

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

struct DeltaStepPin {
  const char* outcome;
  uint64_t fnv;
  uint64_t digest;
};

// clang-format off
constexpr DeltaStepPin kDeltaStreamPins[] = {
    {"applied:topology", 0x60f0ec8f38c386e6ULL, 0x47dfa133d410fec2ULL},
    {"applied", 0x44f3d5f3efb4d9fbULL, 0x62dac59010f3408fULL},
    {"applied:topology", 0x44f3d5f3efb4d9fbULL, 0x62dac59010f3408fULL},
    {"applied", 0xbb929aa16de03581ULL, 0xbeb82e53145751faULL},
    {"applied:topology", 0xbb929aa16de03581ULL, 0xbeb82e53145751faULL},
    {"applied", 0xe209a32daf40d2d1ULL, 0x543b78b235d818cdULL},
    {"applied:topology", 0x325139558ab68b81ULL, 0x5e495282a1c02e7aULL},
    {"applied", 0x770acec2fd8a72a6ULL, 0x496cb6f2c38e5a9dULL},
    {"applied:topology", 0x770acec2fd8a72a6ULL, 0x496cb6f2c38e5a9dULL},
    {"applied", 0xf1c8f47addadaffaULL, 0xa5ac9f0d989618b6ULL},
    {"applied:topology", 0xf1c8f47addadaffaULL, 0xa5ac9f0d989618b6ULL},
    {"applied", 0xf04279008e15000cULL, 0xfd44c31a6d525733ULL},
    {"applied:topology", 0xf04279008e15000cULL, 0xfd44c31a6d525733ULL},
    {"applied", 0x1835867efa653aebULL, 0x6ccc0ad4791bb86eULL},
    {"applied:topology", 0x2f2990b830530b5dULL, 0x49d472333019b636ULL},
    {"applied", 0xd54a40a93fabc1f4ULL, 0x9ad8871459fbfd06ULL},
    {"applied:topology", 0xd54a40a93fabc1f4ULL, 0x9ad8871459fbfd06ULL},
    {"rebased:imbalance", 0x403f1773088a24c7ULL, 0xd4d6bb3a8470608fULL},
    {"applied:topology", 0x23569f5da98b8925ULL, 0x05ecfe39a6333405ULL},
    {"applied", 0xb59306cc150a1129ULL, 0x5b2082510574dbabULL},
    {"applied:topology", 0xb59306cc150a1129ULL, 0x5b2082510574dbabULL},
    {"applied", 0x14c573b236cfbc10ULL, 0x50cba2fbe52c4499ULL},
    {"applied:topology", 0xe42ab6ee77d1b1b1ULL, 0xe1c8298b8430d8fbULL},
    {"applied", 0xf553094bb34ac371ULL, 0xf47eff26fef068a5ULL},
    {"applied:topology", 0xf553094bb34ac371ULL, 0xf47eff26fef068a5ULL},
    {"applied", 0x55a045b8183dff82ULL, 0x3fbe4fe4db12461fULL},
    {"applied:topology", 0xc60759eecfdb49a8ULL, 0x85c8a45af220a9a6ULL},
    {"applied", 0xe325025a5978184cULL, 0x98b04e3cfb8a9cbfULL},
    {"applied:topology", 0xe325025a5978184cULL, 0x98b04e3cfb8a9cbfULL},
    {"applied", 0x9b070e6868d22706ULL, 0xc8d31381b7dbf3fcULL},
    {"applied:topology", 0x87bde83dfaf45521ULL, 0xd0d40899faca52e3ULL},
    {"applied", 0xd3292a1f7725ca3cULL, 0xe856459a77badbbaULL},
    {"applied:topology", 0xd3292a1f7725ca3cULL, 0xe856459a77badbbaULL},
    {"applied", 0x2aca245977b1fcf4ULL, 0x894bf45be9c78c2cULL},
    {"applied:topology", 0x6f4e3447a9b5858eULL, 0xf4defa6a1c8b2d80ULL},
    {"rebased:imbalance", 0x741d86ce53d62ee2ULL, 0xe4e5a1cf8fb47f75ULL},
    {"applied:topology", 0x741d86ce53d62ee2ULL, 0xe4e5a1cf8fb47f75ULL},
    {"applied", 0xa461cc862cbf127bULL, 0xcc931ee467c008d6ULL},
    {"applied:topology", 0xc6903596eab77bf6ULL, 0xffd3597391ecbb14ULL},
    {"applied", 0x40e2e47add6bf2ebULL, 0xef8b43d16115846fULL},
    {"applied:topology", 0x40e2e47add6bf2ebULL, 0xef8b43d16115846fULL},
    {"applied", 0xb204a102425eb18aULL, 0x81d7731d3e1f6ba2ULL},
    {"applied:topology", 0x16ec7c7a7d374abaULL, 0xd06aa44380a30332ULL},
    {"applied", 0x9fedd07da6a8797bULL, 0x0b7d73e3631025d9ULL},
    {"applied:topology", 0x9fedd07da6a8797bULL, 0x0b7d73e3631025d9ULL},
    {"applied", 0xdf43d778fa5226f5ULL, 0x7b45a3bddbcb00bfULL},
    {"applied:topology", 0x21fa7d7f5d80e040ULL, 0x7771551130ccb840ULL},
    {"applied", 0x0321f630d6a48ad5ULL, 0x27d2159846593b11ULL},
    {"applied:topology", 0x0321f630d6a48ad5ULL, 0x27d2159846593b11ULL},
    {"applied", 0x7bb486eb8279b0fdULL, 0xdf6bbe2c5b454dc1ULL},
    {"applied:topology", 0x6779ba4ff0103ac2ULL, 0x9fc38c8ee0db384eULL},
    {"applied", 0x6a2cda8c0a1b6590ULL, 0x48778dd32a7efba1ULL},
    {"applied:topology", 0x6a2cda8c0a1b6590ULL, 0x48778dd32a7efba1ULL},
    {"applied", 0x10a27d81a9618733ULL, 0x820a9b101da67649ULL},
    {"applied:topology", 0x3abe9de0d8edcae9ULL, 0xfd04900022b83996ULL},
    {"applied", 0x4201dc861ea73b52ULL, 0x63187c344a08dce8ULL},
    {"applied:topology", 0x4201dc861ea73b52ULL, 0x63187c344a08dce8ULL},
    {"rebased:imbalance", 0x20542cfc43c7c803ULL, 0xfe6ec3352a626384ULL},
    {"applied:topology", 0x900519260f93cab1ULL, 0x44bffaa845eb8785ULL},
    {"applied", 0x79405c7ec214ce86ULL, 0x5c3361aebedcd641ULL},
    {"applied:topology", 0x79405c7ec214ce86ULL, 0x5c3361aebedcd641ULL},
    {"applied", 0x82e1d66989149b3aULL, 0x7409664c55f03ae6ULL},
    {"applied:topology", 0x559abecbbb4af70bULL, 0xe2b26df198486272ULL},
    {"applied", 0x0ab93493426269c8ULL, 0x21e668eafdacb18aULL},
    {"applied:topology", 0x0ab93493426269c8ULL, 0x21e668eafdacb18aULL},
    {"applied", 0x388f3eb30e080f2aULL, 0x59c88e24fb8e8141ULL},
    {"applied:topology", 0xa9d3fdc201c587caULL, 0x14e9eb72ea5552ecULL},
    {"applied", 0x2ee0f35690bce7a8ULL, 0xcf367fb9563a4ee5ULL},
    {"applied:topology", 0x2ee0f35690bce7a8ULL, 0xcf367fb9563a4ee5ULL},
    {"applied", 0x17fce989f01ee5eaULL, 0x636cdc9e06bfe3ebULL},
    {"applied:topology", 0xd372a8328822955eULL, 0x7b3bff729a5b7045ULL},
    {"applied", 0xa931da103f31648cULL, 0xee833876462f3353ULL},
    {"applied:topology", 0xa931da103f31648cULL, 0xee833876462f3353ULL},
    {"applied", 0xca81d7b0e2b55f8eULL, 0x0f91b1548363578eULL},
    {"applied:topology", 0xefcc79ea0973422eULL, 0x4900e99af8417889ULL},
    {"applied", 0x9502d5be96138527ULL, 0xa6f190db8f73ef8aULL},
    {"applied:topology", 0x9502d5be96138527ULL, 0xa6f190db8f73ef8aULL},
    {"applied", 0xfcd47006d0a469e1ULL, 0xfe4640cbe01eaf8aULL},
    {"applied:topology", 0xb6901e39b3ae5bf2ULL, 0xcfcfc4c52f9b3268ULL},
    {"applied", 0x3449d30f475607bdULL, 0x99e40d737a934c26ULL},
    {"applied:topology", 0x3449d30f475607bdULL, 0x99e40d737a934c26ULL},
    {"applied", 0xee7d3d32b6f650b9ULL, 0xa07905b4553d263aULL},
    {"applied:topology", 0x51488e5c2dd0460aULL, 0x80fecda8a0bf3b0fULL},
    {"applied", 0x4c113c1258bca9a2ULL, 0x508fe9c15a741a64ULL},
    {"applied:topology", 0x4c113c1258bca9a2ULL, 0x508fe9c15a741a64ULL},
    {"applied", 0xb95eb469c13bae8bULL, 0xc5249df45a0375fbULL},
    {"applied:topology", 0x64f75bf8fc640eb4ULL, 0x1628cc2987a40981ULL},
    {"applied", 0x9c3509eb65a07822ULL, 0x00f21403e5885839ULL},
    {"applied:topology", 0x9c3509eb65a07822ULL, 0x00f21403e5885839ULL},
    {"applied", 0xdc8ee8bde64f3480ULL, 0x8d3bafd2adfa197eULL},
    {"applied:topology", 0xf48ee114fafe5370ULL, 0x2e39204ccd15f977ULL},
    {"applied", 0x3ce608c85cc2e78eULL, 0xc8a1060af0e03090ULL},
    {"applied:topology", 0x3ce608c85cc2e78eULL, 0xc8a1060af0e03090ULL},
    {"applied", 0x885a98b1c6bdb124ULL, 0x983309263e0800d9ULL},
    {"applied:topology", 0x3e2c26987c37efdfULL, 0x90d2af1f9e6a5cafULL},
    {"applied", 0x3537578d937e0e04ULL, 0x1a3aeab65188f080ULL},
    {"applied:topology", 0x3537578d937e0e04ULL, 0x1a3aeab65188f080ULL},
    {"applied", 0xc4fcea59359e1894ULL, 0x1a705a236b2d14f4ULL},
    {"applied:topology", 0x205e054e654207e2ULL, 0x847ab95fa8aaef16ULL},
    {"applied", 0xa240e72b7ddc300cULL, 0x66c4678705a20ab1ULL},
    {"applied:topology", 0xa240e72b7ddc300cULL, 0x66c4678705a20ab1ULL},
    {"applied", 0xf3c185442ecfc930ULL, 0xf62959858db09b64ULL},
    {"applied:topology", 0x574d4995984999b3ULL, 0x0c306ec6972d79b6ULL},
    {"applied", 0x64cb4923e36ddee4ULL, 0xefa256c99e4a2a9bULL},
    {"applied:topology", 0x64cb4923e36ddee4ULL, 0xefa256c99e4a2a9bULL},
    {"applied", 0x12632e9b10b707ceULL, 0x065c8380f18951d1ULL},
    {"applied:topology", 0x25a20e0b9452a542ULL, 0x8aa68215608c3741ULL},
    {"applied", 0x3773c6a1cc521719ULL, 0x20be09b54cc68188ULL},
    {"applied:topology", 0x3773c6a1cc521719ULL, 0x20be09b54cc68188ULL},
    {"applied", 0xde4d4459abc020f3ULL, 0xa82c708c916ddfa3ULL},
    {"applied:topology", 0x3de13e100abf9f8dULL, 0x1e14acdd53b200a4ULL},
    {"applied", 0xbe84bafb289f3567ULL, 0x980bb23f2e12eadeULL},
    {"applied:topology", 0xbe84bafb289f3567ULL, 0x980bb23f2e12eadeULL},
    {"applied", 0xc0ef329703c8da4fULL, 0xab687a9ac50e1708ULL},
    {"applied:topology", 0x4b1342f80d8deac4ULL, 0x78f610aaba0f7957ULL},
    {"applied", 0x509e0da801dc6500ULL, 0x52902a05d85deed2ULL},
    {"applied:topology", 0x509e0da801dc6500ULL, 0x52902a05d85deed2ULL},
    {"applied", 0x1ef226dfc444446bULL, 0x8042f615db1c0df9ULL},
    {"applied:topology", 0x6e313b361c8a54e3ULL, 0x9a79518dd868ecdfULL},
    {"applied", 0x4124e1c301fdcc42ULL, 0xbd0be137f38e7a10ULL},
    {"rebased:imbalance", 0x192b65e6af688622ULL, 0x974ca55b0e78f213ULL},
    {"rebased:topology", 0x2d5a5f365c135766ULL, 0x49433d01655adbaeULL},
};
// clang-format on

TEST(DeltaPlannerGoldenTest, SessionPlansAreByteIdentical) {
  const ClusterSpec cluster = MakeClusterA(16);
  const LengthDistribution dist = DatasetByName("fineweb");
  // Short fineweb sequences plus 48 z1-length ones: the stream churns the
  // long ones away, so ring evictions and dirty-node re-runs recur.
  Batch initial = SampleBatch(dist, 448, 0x9a1d);
  for (int i = 0; i < 48; ++i) {
    initial.seq_lens.push_back(200000 + 512 * (i % 8));
  }
  DeltaPlanner dp(cluster, MakeOptions(initial, cluster, /*threshold=*/1.0));
  dp.Rebase(initial);
  ASSERT_TRUE(dp.plan().inter_node.empty()) << "precondition: no chunk rings";

  FaultStream faults(cluster.world_size(),
                     FaultStreamOptions{.fault_rate = 0.002,
                                        .restore_after = 6,
                                        .min_alive = cluster.world_size() / 2},
                     0x90d1);
  WorkloadStream stream(dist, initial,
                        StreamOptions{.churn_fraction = 0.06, .drop_fraction = 0.1}, 0x5e55);

  std::vector<DeltaOutcome> outcomes;
  std::vector<uint64_t> fnvs;
  std::vector<uint64_t> digests;
  int batch_fallbacks = 0;
  int topology_fallbacks = 0;
  int restore_patches = 0;
  bool degraded_repack = false;
  auto record = [&](DeltaOutcome outcome) {
    outcomes.push_back(outcome);
    fnvs.push_back(Fnv1a(SerializePlan(dp.plan())));
    digests.push_back(dp.plan().StateDigest());
  };
  for (int step = 0; step < 60; ++step) {
    const int64_t repacked = dp.stats().repacked_nodes;
    const TopologyDelta fault = faults.Next();
    const DeltaOutcome topo = dp.ApplyTopology(fault);
    record(topo);
    topology_fallbacks += topo != DeltaOutcome::kAppliedTopology ? 1 : 0;
    restore_patches += topo == DeltaOutcome::kAppliedTopology && !fault.added_ranks.empty();
    degraded_repack |= topo == DeltaOutcome::kAppliedTopology && dp.topology().degraded() &&
                       dp.stats().repacked_nodes > repacked;
    const DeltaOutcome batch = dp.Apply(stream.Next());
    record(batch);
    batch_fallbacks += batch != DeltaOutcome::kApplied ? 1 : 0;
  }
  // A whole-node kill on a node without chunks migrates its members in place.
  TopologyDelta kill;
  for (int d = 0; d < cluster.gpus_per_node; ++d) {
    const int rank = 3 * cluster.gpus_per_node + d;
    if (dp.topology().alive[rank]) {
      kill.removed_ranks.push_back(rank);
    }
  }
  record(dp.ApplyTopology(kill));
  // Restoring one rank of the dead node cannot re-join a member list: the
  // work has to cross nodes, so the planner re-plans.
  TopologyDelta restore;
  restore.added_ranks.push_back(3 * cluster.gpus_per_node);
  record(dp.ApplyTopology(restore));
  topology_fallbacks += outcomes.back() == DeltaOutcome::kRebasedTopology ? 1 : 0;

  if (std::getenv("ZEPPELIN_GOLDEN_PRINT") != nullptr) {
    for (size_t i = 0; i < outcomes.size(); ++i) {
      std::printf("    {\"%s\", 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},\n",
                  DeltaOutcomeName(outcomes[i]), fnvs[i], digests[i]);
    }
  }
  ASSERT_EQ(outcomes.size(), std::size(kDeltaStreamPins));
  for (size_t i = 0; i < outcomes.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_STREQ(DeltaOutcomeName(outcomes[i]), kDeltaStreamPins[i].outcome);
    EXPECT_EQ(fnvs[i], kDeltaStreamPins[i].fnv);
    EXPECT_EQ(digests[i], kDeltaStreamPins[i].digest);
  }

  // The session reaches every path the pins must cover: batch and topology
  // patches (restores included), a fallback of each kind, an intra re-run
  // on a node the fabric delta degraded, a dead-node migration
  // (which the imbalance guard then replaces with a re-plan; a served
  // migration patch is pinned in elastic_planner_test's
  // WithinBudgetMigratesInPlace) and a dead-node restore.
  const DeltaStats& stats = dp.stats();
  EXPECT_GT(stats.count(DeltaOutcome::kApplied), 0);
  EXPECT_GT(stats.count(DeltaOutcome::kAppliedTopology), 0);
  EXPECT_GT(restore_patches, 0);
  EXPECT_GT(batch_fallbacks, 0);
  EXPECT_GT(topology_fallbacks, 0);
  EXPECT_TRUE(degraded_repack);
  EXPECT_GT(stats.migrated_sequences, 0);
  EXPECT_EQ(outcomes.back(), DeltaOutcome::kRebasedTopology);
  EXPECT_EQ(stats.topology_fallbacks[static_cast<int>(TopologyFallback::kDeadNodeRestore)], 1);
}

// --- Strategy-level integration -------------------------------------------------

TEST(ZeppelinPlanDeltaTest, StreamedPlansExecuteAndConserveTokens) {
  const TransformerConfig model = MakeLlama3B();
  const ClusterSpec cluster = MakeClusterA(2);
  const Trainer trainer(model, cluster);
  const LengthDistribution dist = DatasetByName("github");
  const Batch initial = SampleBatch(dist, 512, 5);

  ZeppelinOptions zopts;
  zopts.delta_replan_threshold = kThreshold;
  ZeppelinStrategy strategy(zopts);
  strategy.PlanDelta(initial, BatchDelta{}, trainer.cost_model(), trainer.fabric());
  ASSERT_EQ(strategy.last_delta_outcome(), DeltaOutcome::kRebasedNoBase);

  WorkloadStream stream(dist, initial, StreamOptions{.churn_fraction = 0.01}, 6);
  int applied = 0;
  for (int it = 0; it < 20; ++it) {
    const BatchDelta delta = stream.Next();
    strategy.PlanDelta(stream.batch(), delta, trainer.cost_model(), trainer.fabric());
    applied += strategy.last_delta_outcome() == DeltaOutcome::kApplied ? 1 : 0;
    EXPECT_EQ(strategy.partition_plan().total_tokens(), stream.batch().total_tokens());

    // The streamed plan must execute: emit one forward layer.
    TaskGraph graph;
    const std::vector<TaskId> done = strategy.EmitLayer(graph, Direction::kForward);
    EXPECT_EQ(static_cast<int>(done.size()), cluster.world_size());

    // The linear-stage layout stays token-conserving through remapping.
    int64_t linear_total = 0;
    for (int64_t tokens : strategy.LinearTokensPerRank()) {
      linear_total += tokens;
    }
    EXPECT_EQ(linear_total, stream.batch().total_tokens());
  }
  EXPECT_GT(applied, 0) << "strategy-level delta path never engaged";
  ASSERT_TRUE(strategy.delta_stats().has_value());
  EXPECT_EQ(strategy.delta_stats()->count(DeltaOutcome::kApplied), applied);

  // Plan() invalidates the streamed state; the next PlanDelta re-bases.
  strategy.Plan(stream.batch(), trainer.cost_model(), trainer.fabric());
  strategy.PlanDelta(stream.batch(), BatchDelta{}, trainer.cost_model(), trainer.fabric());
  EXPECT_EQ(strategy.last_delta_outcome(), DeltaOutcome::kRebasedNoBase);
}

TEST(ZeppelinPlanDeltaTest, BaselineDefaultPlansFully) {
  // The Strategy default PlanDelta ignores the delta and re-plans: the CLI's
  // stream mode must work for every registered strategy.
  const TransformerConfig model = MakeLlama3B();
  const ClusterSpec cluster = MakeClusterA(2);
  const Trainer trainer(model, cluster);
  const Batch batch = SampleBatch(DatasetByName("github"), 64, 8);

  ZeppelinOptions zopts;
  zopts.hierarchical_partitioning = false;  // Forces the PlanDelta -> Plan fallback.
  ZeppelinStrategy strategy(zopts);
  strategy.PlanDelta(batch, BatchDelta{}, trainer.cost_model(), trainer.fabric());
  EXPECT_EQ(strategy.partition_plan().total_tokens(), batch.total_tokens());
}

}  // namespace
}  // namespace zeppelin
