// Edge cases and adversarial shapes for the hierarchical partitioner —
// cluster geometries and batches the main property suite does not reach.
#include <gtest/gtest.h>

#include <set>

#include "src/common/rng.h"
#include "src/core/partitioner.h"
#include "src/data/datasets.h"

namespace zeppelin {
namespace {

Batch MakeBatch(std::vector<int64_t> lens) {
  Batch b;
  b.seq_lens = std::move(lens);
  return b;
}

// A cluster with few GPUs per node (common in PCIe boxes).
ClusterSpec TinyNodes(int num_nodes, int gpus_per_node) {
  ClusterSpec spec = MakeClusterA(num_nodes);
  spec.gpus_per_node = gpus_per_node;
  spec.nics_per_node = 1;
  spec.gpu_to_nic.assign(gpus_per_node, 0);
  spec.Validate();
  return spec;
}

TEST(PartitionerEdgeTest, SingleNodeClusterNeverGoesInterNode) {
  SequencePartitioner partitioner(MakeClusterA(1), {.token_capacity = 8192});
  BatchSampler sampler(MakeGithubDistribution(), 65536, 3);
  for (int i = 0; i < 5; ++i) {
    const PartitionPlan plan = partitioner.Partition(sampler.NextBatch());
    EXPECT_TRUE(plan.inter_node.empty());
  }
}

TEST(PartitionerEdgeTest, SingleGpuNodes) {
  // 4 nodes x 1 GPU: no intra-node rings are possible; everything is local
  // or inter-node.
  const ClusterSpec spec = TinyNodes(4, 1);
  SequencePartitioner partitioner(spec, {.token_capacity = 16384});
  const PartitionPlan plan = partitioner.Partition(MakeBatch({32768, 8192, 8192, 8192}));
  EXPECT_TRUE(plan.intra_node.empty());
  EXPECT_EQ(plan.total_tokens(), 57344);
  for (const auto& ring : plan.inter_node) {
    EXPECT_GT(ring.group_size(), 1);
  }
}

TEST(PartitionerEdgeTest, SingleSequenceExactlyFillsCluster) {
  const ClusterSpec spec = MakeClusterA(2);
  SequencePartitioner partitioner(spec, {.token_capacity = 4096});
  const PartitionPlan plan = partitioner.Partition(MakeBatch({65536}));
  ASSERT_EQ(plan.inter_node.size(), 1u);
  EXPECT_EQ(plan.inter_node[0].group_size(), 16);
}

TEST(PartitionerEdgeTest, ManyIdenticalSequences) {
  // 16 sequences of exactly L: the argmin packer must place one per device.
  const ClusterSpec spec = MakeClusterA(2);
  SequencePartitioner partitioner(spec, {.token_capacity = 4096});
  const PartitionPlan plan = partitioner.Partition(MakeBatch(std::vector<int64_t>(16, 4096)));
  EXPECT_EQ(plan.intra_node.size() + plan.local.size(), 16u);
  for (int64_t t : plan.tokens_per_rank) {
    EXPECT_EQ(t, 4096);
  }
}

TEST(PartitionerEdgeTest, OneTokenSequences) {
  const ClusterSpec spec = MakeClusterA(1);
  SequencePartitioner partitioner(spec, {.token_capacity = 64});
  std::vector<int64_t> lens(64, 1);
  const PartitionPlan plan = partitioner.Partition(MakeBatch(lens));
  EXPECT_EQ(plan.total_tokens(), 64);
  EXPECT_EQ(plan.local.size(), 64u);
}

TEST(PartitionerEdgeTest, ThresholdCascadeTerminates) {
  // Adversarial: node capacity 4*1024, sequences just over half capacity so
  // at most one fits per node; the rest must cascade into the inter-node
  // zone through repeated threshold shrinks.
  const ClusterSpec spec = TinyNodes(2, 4);
  SequencePartitioner partitioner(spec, {.token_capacity = 1024});
  const PartitionPlan plan =
      partitioner.Partition(MakeBatch({2400, 2300, 2200, 1292}));  // = 8192 total.
  EXPECT_EQ(plan.total_tokens(), 8192);
  // The cascade forced at least one sequence out of the local zone into a
  // ring (single-node z2 rings are classified intra-node).
  EXPECT_FALSE(plan.inter_node.empty() && plan.intra_node.empty());
  EXPECT_LT(plan.threshold_s1, 4096);
}

TEST(PartitionerEdgeTest, ZoneLabelsMatchStructure) {
  const ClusterSpec spec = MakeClusterA(2);
  SequencePartitioner partitioner(spec, {.token_capacity = 8192});
  const PartitionPlan plan = partitioner.Partition(MakeBatch({65536, 12288, 1024, 1024,
                                                              1024, 1024}));
  for (RingView ring : plan.rings(plan.inter_node)) {
    EXPECT_EQ(ring.zone, Zone::kInterNode);
    std::set<int> nodes;
    for (int r : ring.ranks) {
      nodes.insert(spec.NodeOf(r));
    }
    EXPECT_GT(nodes.size(), 1u);
  }
  for (RingView ring : plan.rings(plan.intra_node)) {
    EXPECT_EQ(ring.zone, Zone::kIntraNode);
    std::set<int> nodes;
    for (int r : ring.ranks) {
      nodes.insert(spec.NodeOf(r));
    }
    EXPECT_EQ(nodes.size(), 1u);
  }
}

TEST(PartitionerEdgeTest, CapacityMuchLargerThanBatch) {
  // Huge L: everything fits anywhere; all sequences should stay local (no
  // communication needed at all).
  const ClusterSpec spec = MakeClusterA(2);
  SequencePartitioner partitioner(spec, {.token_capacity = 1 << 20});
  const PartitionPlan plan = partitioner.Partition(MakeBatch({8192, 8192, 4096, 4096}));
  EXPECT_TRUE(plan.inter_node.empty());
  EXPECT_TRUE(plan.intra_node.empty());
  EXPECT_EQ(plan.local.size(), 4u);
}

TEST(PartitionerEdgeTest, ThresholdCapsComposeWithCascade) {
  // Caps below the capacity defaults interact with the shrink loop: the
  // final thresholds can only be <= the caps.
  const ClusterSpec spec = MakeClusterA(2);
  SequencePartitioner::Options opts;
  opts.token_capacity = 8192;
  opts.max_inter_threshold = 20000;
  opts.max_local_threshold = 3000;
  SequencePartitioner partitioner(spec, opts);
  BatchSampler sampler(MakeArxivDistribution(), 98304, 11);
  for (int i = 0; i < 5; ++i) {
    const PartitionPlan plan = partitioner.Partition(sampler.NextBatch());
    EXPECT_LE(plan.threshold_s1, 20000);
    for (int64_t s0 : plan.threshold_s0) {
      EXPECT_LE(s0, 3000);
    }
  }
}

// --- Flat rank-arena invariants (docs/PLAN_FORMAT.md) -------------------------

// Every live ring's span must lie inside the arena, spans must be disjoint
// and gap-free, and the trimmed arena must hold exactly the live ranks.
void ExpectArenaTight(const PartitionPlan& plan) {
  std::vector<bool> covered(plan.rank_arena.size(), false);
  size_t total = 0;
  for (const std::vector<RingRef>* queue : {&plan.inter_node, &plan.intra_node}) {
    for (const RingRef& ring : *queue) {
      ASSERT_LE(static_cast<size_t>(ring.rank_offset) + ring.rank_count,
                plan.rank_arena.size());
      for (uint32_t i = ring.rank_offset; i < ring.rank_offset + ring.rank_count; ++i) {
        EXPECT_FALSE(covered[i]) << "overlapping ring spans at arena slot " << i;
        covered[i] = true;
      }
      total += ring.rank_count;
    }
  }
  EXPECT_EQ(total, plan.rank_arena.size()) << "arena not trimmed to the live rank count";
}

TEST(PartitionerArenaTest, LocalOnlyPlanHasEmptyArena) {
  // Huge L: no rings at all, so both header queues and the arena trim to
  // empty — the "empty plan" shape downstream consumers must tolerate.
  const ClusterSpec spec = MakeClusterA(2);
  SequencePartitioner partitioner(spec, {.token_capacity = 1 << 20});
  const PartitionPlan plan = partitioner.Partition(MakeBatch({4096, 2048, 1024}));
  EXPECT_TRUE(plan.inter_node.empty());
  EXPECT_TRUE(plan.intra_node.empty());
  EXPECT_TRUE(plan.rank_arena.empty());
  EXPECT_TRUE(plan.rings(plan.inter_node).empty());
  ExpectArenaTight(plan);
}

TEST(PartitionerArenaTest, SingleLocalOnlySequence) {
  const ClusterSpec spec = MakeClusterA(1);
  SequencePartitioner partitioner(spec, {.token_capacity = 8192});
  const PartitionPlan plan = partitioner.Partition(MakeBatch({1024}));
  ASSERT_EQ(plan.local.size(), 1u);
  EXPECT_TRUE(plan.rank_arena.empty());
  ExpectArenaTight(plan);
}

TEST(PartitionerArenaTest, ArenaTightAcrossShapes) {
  // Mixed-zone batches on every engine: the trimmed arena must stay exactly
  // the concatenation of the live ring spans.
  const ClusterSpec spec = MakeClusterA(2);
  BatchSampler sampler(MakeGithubDistribution(), 16 * 8192, 17);
  const SequencePartitioner partitioner(spec, {.token_capacity = 8192});
  for (bool naive : {true, false}) {
    for (int i = 0; i < 3; ++i) {
      const Batch batch = sampler.NextBatch();
      const PartitionPlan plan =
          naive ? partitioner.PartitionNaive(batch) : partitioner.Partition(batch);
      ExpectArenaTight(plan);
    }
  }
}

TEST(PartitionerArenaTest, ForcedRestartRecyclesArena) {
  // Zero-slack capacity forces overflow restarts, which rewind the arena
  // cursor mid-stage; the recycled slots must leave no stale ranks behind.
  const ClusterSpec spec = TinyNodes(2, 4);
  SequencePartitioner partitioner(spec, {.token_capacity = 1024});
  PlannerScratch scratch;
  PartitionPlan plan;
  const Batch batch = MakeBatch({2400, 2300, 2200, 1292});
  partitioner.Partition(batch, &scratch, &plan);
  ExpectArenaTight(plan);
  const PartitionPlan first = plan;  // Deep copy (headers + flat arrays).
  // Re-plan through the same scratch and recycled plan storage: the restart
  // chain replays into reused slots and must reproduce identical bytes.
  partitioner.Partition(batch, &scratch, &plan);
  ExpectArenaTight(plan);
  EXPECT_TRUE(plan == first);
}

TEST(PartitionerArenaTest, SpansStableAcrossPlanCallsWithScratchReuse) {
  // Interleave batches of very different ring footprints through one scratch
  // and one recycled plan: header counts and arena offsets must depend only
  // on the batch, never on what a previous call left in the recycled storage.
  const ClusterSpec spec = MakeClusterA(2);
  SequencePartitioner partitioner(spec, {.token_capacity = 8192});
  PlannerScratch scratch;
  PartitionPlan plan;
  const Batch big = MakeBatch({65536, 12288, 12288, 12288, 12288, 8192, 2048, 2048});
  const Batch small = MakeBatch({1024, 512});

  partitioner.Partition(big, &scratch, &plan);
  ExpectArenaTight(plan);
  const PartitionPlan big_first = plan;
  // Record the resolved rank lists through the span accessor.
  std::vector<std::vector<int>> big_ranks;
  for (RingView ring : plan.rings(plan.inter_node)) {
    big_ranks.emplace_back(ring.ranks.begin(), ring.ranks.end());
  }

  partitioner.Partition(small, &scratch, &plan);
  ExpectArenaTight(plan);
  EXPECT_TRUE(plan.inter_node.empty());

  partitioner.Partition(big, &scratch, &plan);
  ExpectArenaTight(plan);
  EXPECT_TRUE(plan == big_first) << "recycled storage leaked into the plan bytes";
  size_t i = 0;
  for (RingView ring : plan.rings(plan.inter_node)) {
    EXPECT_EQ(std::vector<int>(ring.ranks.begin(), ring.ranks.end()), big_ranks[i]) << "ring " << i;
    ++i;
  }
}

// Wider random geometry sweep: nodes x gpus_per_node x capacity.
class GeometryTest : public ::testing::TestWithParam<int> {};

TEST_P(GeometryTest, InvariantsAcrossGeometries) {
  Rng rng(GetParam());
  ClusterSpec spec = MakeClusterA(1);
  spec.num_nodes = 1 + static_cast<int>(rng.NextBounded(5));
  spec.gpus_per_node = 1 << rng.NextBounded(4);  // 1, 2, 4, 8.
  spec.nics_per_node = 1;
  spec.gpu_to_nic.assign(spec.gpus_per_node, 0);
  spec.Validate();

  const int64_t capacity = 2048 << rng.NextBounded(3);
  SequencePartitioner partitioner(spec, {.token_capacity = capacity});
  const int64_t budget = capacity * spec.world_size();

  // Random batch within budget.
  Batch batch;
  int64_t remaining = budget - budget / 8;  // Keep headroom.
  while (remaining > 0) {
    const int64_t len = std::min<int64_t>(remaining, 64 + rng.NextBounded(capacity * 2));
    batch.seq_lens.push_back(len);
    remaining -= len;
  }
  const PartitionPlan plan = partitioner.Partition(batch);
  EXPECT_EQ(plan.total_tokens(), batch.total_tokens());
  for (const auto& ring : plan.inter_node) {
    EXPECT_EQ(ring.group_size() % spec.gpus_per_node, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeometryTest, ::testing::Range(1, 31));

}  // namespace
}  // namespace zeppelin
