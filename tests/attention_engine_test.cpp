#include <gtest/gtest.h>

#include "src/core/attention_engine.h"
#include "src/core/chunking.h"
#include "src/model/transformer.h"
#include "src/sim/engine.h"

namespace zeppelin {
namespace {

class AttentionEngineTest : public ::testing::Test {
 protected:
  AttentionEngineTest()
      : fabric_(MakeClusterA(2)),
        cost_model_(MakeLlama7B(), fabric_.cluster()),
        routing_(fabric_, {}),
        engine_(cost_model_, fabric_, routing_, {}),
        sim_(fabric_) {}

  PartitionPlan MakePlanWithRing(std::vector<int> ranks, int64_t length, Zone zone) {
    PartitionPlan plan;
    plan.tokens_per_rank.assign(fabric_.cluster().world_size(), 0);
    plan.AddRing(plan.inter_node, /*seq_id=*/0, length, zone, ranks);
    return plan;
  }

  FabricResources fabric_;
  CostModel cost_model_;
  RoutingLayer routing_;
  AttentionEngine engine_;
  Engine sim_;
};

TEST_F(AttentionEngineTest, RingComputeCoversFullTriangle) {
  const PartitionPlan plan = MakePlanWithRing({0, 1, 2, 3}, 16384, Zone::kIntraNode);
  TaskGraph g;
  engine_.Emit(g, plan, Direction::kForward, {}, "t");
  double attn_flops_time = 0;
  int computes = 0;
  for (const Task& t : g.tasks()) {
    if (t.category == TaskCategory::kAttentionCompute) {
      attn_flops_time += t.duration_us;
      ++computes;
    }
  }
  EXPECT_EQ(computes, 16);  // G rounds x G ranks.
  // Sum of compute times ~= full causal time + launch overheads.
  const double expected =
      cost_model_.CausalAttentionFlops(16384) / fabric_.cluster().flops_per_us() +
      16 * fabric_.cluster().kernel_launch_us;
  EXPECT_NEAR(attn_flops_time, expected, 1.0);
}

TEST_F(AttentionEngineTest, RingSendsGMinusOneRoundsPerRank) {
  const PartitionPlan plan = MakePlanWithRing({0, 1, 2, 3}, 16384, Zone::kIntraNode);
  TaskGraph g;
  engine_.Emit(g, plan, Direction::kForward, {}, "t");
  int transfers = 0;
  int64_t bytes = 0;
  for (const Task& t : g.tasks()) {
    if (t.category == TaskCategory::kIntraComm) {
      ++transfers;
      bytes += t.bytes;
    }
  }
  EXPECT_EQ(transfers, 12);  // (G-1) rounds x G ranks.
  // Each round ships each rank's held KV (1/G of the sequence).
  EXPECT_EQ(bytes, 3 * 16384 * cost_model_.KvBytesPerToken());
}

TEST_F(AttentionEngineTest, BackwardDoublesComputeAndComm) {
  const PartitionPlan plan = MakePlanWithRing({0, 1, 2, 3}, 16384, Zone::kIntraNode);
  TaskGraph fg;
  engine_.Emit(fg, plan, Direction::kForward, {}, "f");
  TaskGraph bg;
  engine_.Emit(bg, plan, Direction::kBackward, {}, "b");
  const SimResult fr = sim_.Run(fg);
  const SimResult br = sim_.Run(bg);
  const double f_busy = fr.CategoryBusy(TaskCategory::kAttentionCompute);
  const double b_busy = br.CategoryBusy(TaskCategory::kAttentionCompute);
  EXPECT_NEAR(b_busy / f_busy, kBackwardMultiplier, 0.05);
}

TEST_F(AttentionEngineTest, InterNodeRingUsesRoutingLayer) {
  std::vector<int> ranks(16);
  for (int i = 0; i < 16; ++i) {
    ranks[i] = i;
  }
  const PartitionPlan plan = MakePlanWithRing(ranks, 65536, Zone::kInterNode);
  TaskGraph g;
  engine_.Emit(g, plan, Direction::kForward, {}, "t");
  int dispatch = 0;
  for (const Task& t : g.tasks()) {
    dispatch += t.category == TaskCategory::kDispatchComm;
  }
  EXPECT_GT(dispatch, 0);  // Node-boundary hops are decomposed.
}

TEST_F(AttentionEngineTest, LocalSequencesFuseIntoOneKernelPerRank) {
  PartitionPlan plan;
  plan.tokens_per_rank.assign(16, 0);
  plan.local = {{0, 1024, 3}, {1, 2048, 3}, {2, 512, 5}};
  TaskGraph g;
  engine_.Emit(g, plan, Direction::kForward, {}, "t");
  int computes = 0;
  for (const Task& t : g.tasks()) {
    computes += t.category == TaskCategory::kAttentionCompute;
  }
  EXPECT_EQ(computes, 2);  // Ranks 3 and 5.
}

TEST_F(AttentionEngineTest, ForwardOrderRunsInterBeforeLocal) {
  // Rank 0 participates in an inter-node ring AND holds a local sequence:
  // its local kernel must start after its ring work (§3.2 ordering).
  std::vector<int> ranks(16);
  for (int i = 0; i < 16; ++i) {
    ranks[i] = i;
  }
  PartitionPlan plan = MakePlanWithRing(ranks, 65536, Zone::kInterNode);
  plan.local = {{1, 2048, 0}};
  TaskGraph g;
  engine_.Emit(g, plan, Direction::kForward, {}, "t");
  const SimResult r = sim_.Run(g);

  double local_start = -1;
  double last_ring_compute_start = -1;
  for (TaskId id = 0; id < g.size(); ++id) {
    const Task& t = g.task(id);
    if (t.category != TaskCategory::kAttentionCompute || t.gpu != 0) {
      continue;
    }
    if (g.Label(id).find("local") != std::string::npos) {
      local_start = r.start_us[id];
    } else {
      last_ring_compute_start = std::max(last_ring_compute_start, r.start_us[id]);
    }
  }
  ASSERT_GE(local_start, 0.0);
  EXPECT_GT(local_start, last_ring_compute_start);
}

TEST_F(AttentionEngineTest, BackwardOrderRunsLocalFirst) {
  std::vector<int> ranks(16);
  for (int i = 0; i < 16; ++i) {
    ranks[i] = i;
  }
  PartitionPlan plan = MakePlanWithRing(ranks, 65536, Zone::kInterNode);
  plan.local = {{1, 2048, 0}};
  TaskGraph g;
  engine_.Emit(g, plan, Direction::kBackward, {}, "t");
  const SimResult r = sim_.Run(g);
  double local_start = -1;
  double first_ring_start = 1e18;
  for (TaskId id = 0; id < g.size(); ++id) {
    const Task& t = g.task(id);
    if (t.category != TaskCategory::kAttentionCompute || t.gpu != 0) {
      continue;
    }
    if (g.Label(id).find("local") != std::string::npos) {
      local_start = r.start_us[id];
    } else {
      first_ring_start = std::min(first_ring_start, r.start_us[id]);
    }
  }
  ASSERT_GE(local_start, 0.0);
  EXPECT_LT(local_start, first_ring_start);
}

TEST_F(AttentionEngineTest, DepsGateFirstRound) {
  const PartitionPlan plan = MakePlanWithRing({0, 1, 2, 3}, 8192, Zone::kIntraNode);
  TaskGraph g;
  const TaskId gate =
      g.AddCompute(fabric_.ComputeLane(0), 100.0, TaskCategory::kOtherCompute, {}, "gate", 0);
  std::vector<std::vector<TaskId>> deps(16);
  deps[0] = {gate};
  const std::vector<TaskId> done = engine_.Emit(g, plan, Direction::kForward, deps, "t");
  const SimResult r = sim_.Run(g);
  // Rank 0's attention cannot finish before the gate.
  EXPECT_GT(r.finish_us[done[0]], 100.0);
}

TEST_F(AttentionEngineTest, IdleRanksGetImmediateBarrier) {
  const PartitionPlan plan = MakePlanWithRing({0, 1}, 8192, Zone::kIntraNode);
  TaskGraph g;
  const std::vector<TaskId> done = engine_.Emit(g, plan, Direction::kForward, {}, "t");
  const SimResult r = sim_.Run(g);
  EXPECT_DOUBLE_EQ(r.finish_us[done[15]], 0.0);
  EXPECT_GT(r.finish_us[done[0]], 0.0);
}

TEST_F(AttentionEngineTest, ContiguousChunkingOptionChangesBalance) {
  AttentionEngineOptions opts;
  opts.chunk_scheme = ChunkScheme::kContiguous;
  const AttentionEngine naive(cost_model_, fabric_, routing_, opts);
  const PartitionPlan plan = MakePlanWithRing({0, 1, 2, 3}, 32768, Zone::kIntraNode);
  TaskGraph balanced_graph;
  engine_.Emit(balanced_graph, plan, Direction::kForward, {}, "b");
  TaskGraph naive_graph;
  naive.Emit(naive_graph, plan, Direction::kForward, {}, "n");
  // The causally-balanced engine finishes earlier (D3 ablation).
  EXPECT_LT(sim_.Run(balanced_graph).makespan_us, sim_.Run(naive_graph).makespan_us);
}

TEST_F(AttentionEngineTest, StripedSchemeMatchesBalancedWork) {
  AttentionEngineOptions opts;
  opts.chunk_scheme = ChunkScheme::kStriped;
  const AttentionEngine striped(cost_model_, fabric_, routing_, opts);
  const PartitionPlan plan = MakePlanWithRing({0, 1, 2, 3}, 32768, Zone::kIntraNode);
  TaskGraph striped_graph;
  striped.Emit(striped_graph, plan, Direction::kForward, {}, "s");
  TaskGraph balanced_graph;
  engine_.Emit(balanced_graph, plan, Direction::kForward, {}, "b");
  // Both balanced schemes cover the same total work and land within a few
  // percent of each other end to end.
  const double t_striped = sim_.Run(striped_graph).makespan_us;
  const double t_balanced = sim_.Run(balanced_graph).makespan_us;
  EXPECT_NEAR(t_striped / t_balanced, 1.0, 0.1);
}

}  // namespace
}  // namespace zeppelin
