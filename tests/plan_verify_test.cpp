// Adversarial certifier suite (src/core/plan_verify.h): valid plans from
// every engine pass with the default options, and every single-fault
// mutation — dropped ring, duplicated coverage, arena overlap / escape,
// token inflation, load concentration, dead-rank placement, length drift,
// rank out of range — yields exactly the matching typed rejection while the
// unmutated twin keeps passing. The certifier must never need a re-plan to
// reach its verdict, so every case here judges one plan in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/core/partitioner.h"
#include "src/core/plan_service.h"
#include "src/core/plan_verify.h"
#include "src/data/datasets.h"
#include "src/data/stream.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"
#include "src/topology/path.h"

namespace zeppelin {
namespace {

Batch SampleBatch(int num_seqs, uint64_t seed) {
  const LengthDistribution dist = DatasetByName("github");
  Rng rng(seed);
  Batch batch;
  batch.seq_lens.reserve(num_seqs);
  for (int i = 0; i < num_seqs; ++i) {
    batch.seq_lens.push_back(dist.Sample(rng));
  }
  return batch;
}

// Two explicit multi-node heads push work above node capacity so the plan
// carries inter-node AND intra-node rings, giving the mutations ring
// material to corrupt (same recipe as plan_io_test.cpp).
Batch RingHeavyBatch(int num_seqs, uint64_t seed) {
  Batch batch = SampleBatch(num_seqs, seed);
  batch.seq_lens.insert(batch.seq_lens.begin(), {1500000, 1400000});
  return batch;
}

int64_t SlackCapacity(const Batch& batch, const ClusterSpec& cluster) {
  const int64_t world = cluster.world_size();
  const int64_t average = (batch.total_tokens() + world - 1) / world;
  return average + average / 4;
}

struct Rig {
  // 16 nodes: the ring-heavy heads must exceed node capacity to force
  // inter-node rings into the plan (same sizing as plan_io_test.cpp).
  ClusterSpec cluster = MakeClusterA(16);
  FabricResources fabric{cluster};
  CostModel cost_model{MakeLlama3B(), cluster};
  Batch batch = RingHeavyBatch(512, 0xce7);
  int64_t capacity = SlackCapacity(batch, cluster);

  PartitionPlan Plan(bool naive) const {
    SequencePartitioner partitioner(cluster,
                                    SequencePartitioner::Options{.token_capacity = capacity});
    return naive ? partitioner.PartitionNaive(batch) : partitioner.Partition(batch);
  }

  PlanVerifyOptions Options() const {
    PlanVerifyOptions options;
    options.token_capacity = capacity;
    options.world = cluster.world_size();
    return options;
  }
};

// `mutate` applies one fault to a copy; the copy must be rejected with
// `expect` and the untouched twin must still certify clean.
void ExpectSingleFault(const Rig& rig, const PartitionPlan& plan,
                       PlanVerifyStatus expect, const RankTopology* topology,
                       void (*mutate)(PartitionPlan*)) {
  PartitionPlan mutated = plan;
  mutate(&mutated);
  const PlanVerifyResult bad =
      VerifyPlan(mutated, &rig.batch, topology, rig.Options());
  EXPECT_EQ(bad.status, expect) << PlanVerifyStatusName(bad.status) << ": " << bad.message;
  EXPECT_FALSE(bad.ok());
  const PlanVerifyResult good =
      VerifyPlan(plan, &rig.batch, topology, rig.Options());
  EXPECT_TRUE(good.ok()) << good.message;
}

TEST(PlanVerifyTest, ValidPlansAcrossAllEnginesCertify) {
  Rig rig;
  const PartitionPlan naive = rig.Plan(/*naive=*/true);
  const PartitionPlan sharded = rig.Plan(/*naive=*/false);
  for (const PartitionPlan* plan : {&naive, &sharded}) {
    const PlanVerifyResult verdict = VerifyPlan(*plan, &rig.batch, nullptr, rig.Options());
    EXPECT_TRUE(verdict.ok()) << verdict.message;
    EXPECT_GT(verdict.max_load_ratio, 0);
    // The balance diagnostic itself sits inside the certificate.
    EXPECT_LE(verdict.max_load_ratio, 1.0 + rig.Options().eps + 1.0);
  }
}

TEST(PlanVerifyTest, DeltaPatchedPlansCertify) {
  Rig rig;
  PlannerService service;

  PlanRequest base = {};
  base.batch = &rig.batch;
  base.cost_model = &rig.cost_model;
  base.fabric = &rig.fabric;
  base.stream_id = "verify";
  const PlanResponse based = service.Plan(base);
  ASSERT_NE(based.plan, nullptr);

  Batch patched = rig.batch;
  BatchDelta delta;
  delta.resized.emplace_back(3, patched.seq_lens[3] + 512);
  patched.seq_lens[3] += 512;
  PlanRequest next = base;
  next.batch = &patched;
  next.delta = &delta;
  const PlanResponse response = service.Plan(next);
  ASSERT_NE(response.plan, nullptr);
  // Delta-patched plans may legally sit slightly above the derived capacity
  // (the churn threshold, not the capacity, decides when to rebase), so the
  // capacity clause stays off here; coverage/arena/conservation/eps all run.
  PlanVerifyOptions patched_opts;
  patched_opts.world = rig.cluster.world_size();
  const PlanVerifyResult verdict =
      VerifyPlan(*response.plan, &patched, nullptr, patched_opts);
  EXPECT_TRUE(verdict.ok()) << verdict.message;
}

TEST(PlanVerifyTest, DroppedRingIsCoverage) {
  Rig rig;
  const PartitionPlan plan = rig.Plan(true);
  ASSERT_FALSE(plan.inter_node.empty());
  ExpectSingleFault(rig, plan, PlanVerifyStatus::kCoverage, nullptr,
                    [](PartitionPlan* p) { p->inter_node.pop_back(); });
}

TEST(PlanVerifyTest, DuplicatedTokenIsCoverage) {
  Rig rig;
  const PartitionPlan plan = rig.Plan(true);
  ASSERT_FALSE(plan.local.empty());
  ExpectSingleFault(rig, plan, PlanVerifyStatus::kCoverage, nullptr,
                    [](PartitionPlan* p) { p->local.push_back(p->local.front()); });
}

TEST(PlanVerifyTest, ArenaOverlapIsTyped) {
  Rig rig;
  const PartitionPlan plan = rig.Plan(true);
  ASSERT_GE(plan.inter_node.size() + plan.intra_node.size(), 2u);
  ExpectSingleFault(rig, plan, PlanVerifyStatus::kArenaOverlap, nullptr,
                    [](PartitionPlan* p) {
                      RingRef& a = p->inter_node.empty() ? p->intra_node[0] : p->inter_node[0];
                      RingRef& b = p->intra_node.empty() ? p->inter_node[1] : p->intra_node.back();
                      b.rank_offset = a.rank_offset;  // Two live spans alias.
                    });
}

TEST(PlanVerifyTest, ArenaEscapeIsBounds) {
  Rig rig;
  const PartitionPlan plan = rig.Plan(true);
  ASSERT_FALSE(plan.inter_node.empty());
  ExpectSingleFault(rig, plan, PlanVerifyStatus::kArenaBounds, nullptr,
                    [](PartitionPlan* p) {
                      p->inter_node[0].rank_offset =
                          static_cast<uint32_t>(p->rank_arena.size()) - 1;
                    });
}

TEST(PlanVerifyTest, InflatedDeclaredLoadIsTokenMismatch) {
  Rig rig;
  const PartitionPlan plan = rig.Plan(true);
  ExpectSingleFault(rig, plan, PlanVerifyStatus::kTokenMismatch, nullptr,
                    [](PartitionPlan* p) { p->tokens_per_rank[0] += 7; });
}

TEST(PlanVerifyTest, UntouchedRankDeclaringLoadIsTokenMismatch) {
  // Conserving the sum is not enough: load may only sit on ranks some entry
  // actually touches. Shrink the arena to one ring's span so at least one
  // rank goes untouched, then move tokens onto it.
  Rig rig;
  Batch tiny;
  tiny.seq_lens = {900000};  // One inter-node ring over a strict rank subset.
  SequencePartitioner partitioner(
      rig.cluster, SequencePartitioner::Options{.token_capacity = 120000});
  const PartitionPlan plan = partitioner.Partition(tiny);
  std::vector<uint8_t> touched(rig.cluster.world_size(), 0);
  for (const RingRef& ring : plan.inter_node) {
    for (int rank : plan.ranks(ring)) touched[rank] = 1;
  }
  for (const RingRef& ring : plan.intra_node) {
    for (int rank : plan.ranks(ring)) touched[rank] = 1;
  }
  for (const LocalSequence& seq : plan.local) touched[seq.rank] = 1;
  int loaded = -1, idle = -1;
  for (int rank = 0; rank < rig.cluster.world_size(); ++rank) {
    if (touched[rank] && plan.tokens_per_rank[rank] > 0) loaded = rank;
    if (!touched[rank]) idle = rank;
  }
  ASSERT_GE(loaded, 0);
  ASSERT_GE(idle, 0);
  PartitionPlan mutated = plan;
  mutated.tokens_per_rank[idle] = mutated.tokens_per_rank[loaded];
  mutated.tokens_per_rank[loaded] = 0;
  PlanVerifyOptions opts;
  opts.world = rig.cluster.world_size();
  opts.eps = -1;
  const PlanVerifyResult bad = VerifyPlan(mutated, &tiny, nullptr, opts);
  EXPECT_EQ(bad.status, PlanVerifyStatus::kTokenMismatch) << bad.message;
  const PlanVerifyResult good = VerifyPlan(plan, &tiny, nullptr, opts);
  EXPECT_TRUE(good.ok()) << good.message;
}

TEST(PlanVerifyTest, CapacityOverflowIsTyped) {
  // Shift load between two touched ranks: conservation and coverage hold, so
  // only the capacity clause can see the fault — exactly its job.
  Rig rig;
  const PartitionPlan plan = rig.Plan(true);
  ExpectSingleFault(rig, plan, PlanVerifyStatus::kCapacityOverflow, nullptr,
                    [](PartitionPlan* p) {
                      auto max_it = std::max_element(p->tokens_per_rank.begin(),
                                                     p->tokens_per_rank.end());
                      for (auto it = p->tokens_per_rank.begin();
                           it != p->tokens_per_rank.end(); ++it) {
                        if (it != max_it && *it > 0) {
                          *max_it += *it;  // Past capacity; sum preserved.
                          *it = 0;
                          return;
                        }
                      }
                    });
}

TEST(PlanVerifyTest, ConcentratedLoadIsEpsImbalance) {
  Rig rig;
  const PartitionPlan plan = rig.Plan(true);
  PartitionPlan mutated = plan;
  // Pour every declared token onto the currently-busiest rank (touched by
  // construction): sum preserved, but the max load explodes.
  auto max_it =
      std::max_element(mutated.tokens_per_rank.begin(), mutated.tokens_per_rank.end());
  int64_t sum = 0;
  for (int64_t& tokens : mutated.tokens_per_rank) {
    sum += tokens;
    tokens = 0;
  }
  *max_it = sum;
  PlanVerifyOptions opts;
  opts.world = rig.cluster.world_size();
  opts.token_capacity = 0;  // Isolate the balance clause.
  const PlanVerifyResult bad = VerifyPlan(mutated, &rig.batch, nullptr, opts);
  EXPECT_EQ(bad.status, PlanVerifyStatus::kEpsImbalance) << bad.message;
  EXPECT_GT(bad.max_load_ratio, 1.0 + opts.eps);
  const PlanVerifyResult good = VerifyPlan(plan, &rig.batch, nullptr, opts);
  EXPECT_TRUE(good.ok()) << good.message;
}

TEST(PlanVerifyTest, DeadRankPlacementIsTyped) {
  Rig rig;
  const PartitionPlan plan = rig.Plan(true);
  RankTopology all_alive;
  all_alive.Reset(rig.cluster.world_size());
  const PlanVerifyResult good = VerifyPlan(plan, &rig.batch, &all_alive, rig.Options());
  EXPECT_TRUE(good.ok()) << good.message;

  // Kill a rank the plan actually uses; the same plan must now be refused.
  int victim = -1;
  for (int rank = 0; rank < rig.cluster.world_size(); ++rank) {
    if (plan.tokens_per_rank[rank] > 0) {
      victim = rank;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  RankTopology degraded = all_alive;
  degraded.alive[victim] = 0;
  const PlanVerifyResult bad = VerifyPlan(plan, &rig.batch, &degraded, rig.Options());
  EXPECT_EQ(bad.status, PlanVerifyStatus::kDeadRank) << bad.message;
}

TEST(PlanVerifyTest, LengthDriftIsTyped) {
  Rig rig;
  const PartitionPlan plan = rig.Plan(true);
  ASSERT_FALSE(plan.local.empty());
  ExpectSingleFault(rig, plan, PlanVerifyStatus::kLengthMismatch, nullptr,
                    [](PartitionPlan* p) { p->local.front().length += 64; });
}

TEST(PlanVerifyTest, RankOutOfRangeIsTyped) {
  Rig rig;
  const PartitionPlan plan = rig.Plan(true);
  ASSERT_FALSE(plan.local.empty());
  ExpectSingleFault(rig, plan, PlanVerifyStatus::kRankRange, nullptr,
                    [](PartitionPlan* p) {
                      p->local.front().rank = static_cast<int>(p->tokens_per_rank.size());
                    });
}

TEST(PlanVerifyTest, StructuralModeCoversImpliedUniverse) {
  // No batch: the plan's own entries define the universe. Valid plans pass;
  // dropping an interior sequence leaves a hole the certifier reports.
  Rig rig;
  const PartitionPlan plan = rig.Plan(true);
  PlanVerifyOptions opts;
  opts.world = rig.cluster.world_size();
  opts.eps = -1;
  const PlanVerifyResult good = VerifyPlan(plan, nullptr, nullptr, opts);
  EXPECT_TRUE(good.ok()) << good.message;

  PartitionPlan mutated = plan;
  // Remove a local whose seq_id is not the maximum, so the implied universe
  // keeps the hole visible.
  ASSERT_GE(mutated.local.size(), 2u);
  auto victim = mutated.local.begin();
  for (auto it = mutated.local.begin(); it != mutated.local.end(); ++it) {
    if (it->seq_id < victim->seq_id) victim = it;
  }
  mutated.local.erase(victim);
  const PlanVerifyResult bad = VerifyPlan(mutated, nullptr, nullptr, opts);
  EXPECT_EQ(bad.status, PlanVerifyStatus::kCoverage) << bad.message;
}

TEST(PlanVerifyTest, FabricOverloadMatchesTopologyForm) {
  Rig rig;
  const PartitionPlan plan = rig.Plan(true);
  PlanVerifyOptions opts;
  opts.token_capacity = rig.capacity;
  const PlanVerifyResult verdict = VerifyPlan(plan, rig.batch, rig.fabric, opts);
  EXPECT_TRUE(verdict.ok()) << verdict.message;

  PartitionPlan mutated = plan;
  mutated.tokens_per_rank.push_back(0);  // Wrong universe for this fabric.
  const PlanVerifyResult bad = VerifyPlan(mutated, rig.batch, rig.fabric, opts);
  EXPECT_EQ(bad.status, PlanVerifyStatus::kMalformed) << bad.message;
}

TEST(PlanVerifyTest, EmptyRingHeaderIsMalformed) {
  Rig rig;
  const PartitionPlan plan = rig.Plan(true);
  ASSERT_FALSE(plan.inter_node.empty());
  ExpectSingleFault(rig, plan, PlanVerifyStatus::kMalformed, nullptr,
                    [](PartitionPlan* p) { p->inter_node[0].rank_count = 0; });
}

}  // namespace
}  // namespace zeppelin
