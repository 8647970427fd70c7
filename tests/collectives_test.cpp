#include <gtest/gtest.h>

#include <numeric>

#include "src/comm/collectives.h"
#include "src/comm/primitives.h"
#include "src/sim/engine.h"

namespace zeppelin {
namespace {

class CollectivesTest : public ::testing::Test {
 protected:
  CollectivesTest() : fabric_(MakeClusterA(2)), engine_(fabric_) {}

  int64_t TotalBytes(const TaskGraph& g, TaskCategory category) {
    int64_t total = 0;
    for (const Task& t : g.tasks()) {
      if (t.category == category) {
        total += t.bytes;
      }
    }
    return total;
  }

  FabricResources fabric_;
  Engine engine_;
};

TEST_F(CollectivesTest, P2PAutoPicksCategory) {
  TaskGraph g;
  const TaskId intra = AddP2PAuto(g, fabric_, 0, 1, 100, {}, "i");
  const TaskId inter = AddP2PAuto(g, fabric_, 0, 8, 100, {}, "x");
  EXPECT_EQ(g.task(intra).category, TaskCategory::kIntraComm);
  EXPECT_EQ(g.task(inter).category, TaskCategory::kInterComm);
}

TEST_F(CollectivesTest, AllGatherMovesExpectedVolume) {
  TaskGraph g;
  const std::vector<int> ranks = {0, 1, 2, 3};
  const std::vector<int64_t> bytes = {1000, 1000, 1000, 1000};
  const CollectiveResult res =
      RingAllGather(g, fabric_, ranks, bytes, TaskCategory::kIntraComm, {}, "ag");
  ASSERT_EQ(res.done.size(), 4u);
  // r-1 = 3 rounds, 4 sends each, 1000 bytes per send.
  EXPECT_EQ(TotalBytes(g, TaskCategory::kIntraComm), 12000);
  const SimResult sim = engine_.Run(g);
  EXPECT_GT(sim.makespan_us, 0);
}

TEST_F(CollectivesTest, AllGatherSingleRankIsFree) {
  TaskGraph g;
  const CollectiveResult res =
      RingAllGather(g, fabric_, {5}, {1 << 20}, TaskCategory::kIntraComm, {}, "ag1");
  const SimResult sim = engine_.Run(g);
  EXPECT_DOUBLE_EQ(sim.finish_us[res.done[0]], 0.0);
}

TEST_F(CollectivesTest, AllGatherRingTimeMatchesAnalytic) {
  // Single-node ring of 4: rounds serialize; each round's sends run in
  // parallel on distinct channels.
  TaskGraph g;
  const std::vector<int> ranks = {0, 1, 2, 3};
  const int64_t chunk = 1 << 20;
  const CollectiveResult res = RingAllGather(g, fabric_, ranks, {chunk, chunk, chunk, chunk},
                                             TaskCategory::kIntraComm, {}, "ag");
  (void)res;
  const SimResult sim = engine_.Run(g);
  const double per_round =
      chunk / fabric_.cluster().nvswitch_bandwidth + fabric_.cluster().intra_latency_us;
  EXPECT_NEAR(sim.makespan_us, 3 * per_round, 1e-6);
}

TEST_F(CollectivesTest, AllToAllVMatrixVolumes) {
  TaskGraph g;
  const std::vector<int> ranks = {0, 1, 8};
  const std::vector<int64_t> sends = {
      0,   500, 700,  //
      200, 0,   0,    //
      0,   300, 0,
  };
  AllToAllV(g, fabric_, ranks, sends, TaskCategory::kRemapComm, {}, "a2a");
  EXPECT_EQ(TotalBytes(g, TaskCategory::kRemapComm), 1700);
  const SimResult sim = engine_.Run(g);
  EXPECT_GT(sim.makespan_us, 0);
}

TEST_F(CollectivesTest, AllToAllVDoneGatesOnIncoming) {
  TaskGraph g;
  const std::vector<int> ranks = {0, 1};
  const std::vector<int64_t> sends = {0, 1 << 20, 0, 0};
  const CollectiveResult res =
      AllToAllV(g, fabric_, ranks, sends, TaskCategory::kRemapComm, {}, "a2a");
  const SimResult sim = engine_.Run(g);
  // Rank 1's done waits for the incoming transfer; rank 0's is immediate.
  EXPECT_GT(sim.finish_us[res.done[1]], 0.0);
  EXPECT_DOUBLE_EQ(sim.finish_us[res.done[0]], 0.0);
}

TEST_F(CollectivesTest, AllReduceStepCount) {
  TaskGraph g;
  const std::vector<int> ranks = {0, 1, 2, 3};
  RingAllReduce(g, fabric_, ranks, 4000, TaskCategory::kIntraComm, {}, "ar");
  int transfers = 0;
  for (const Task& t : g.tasks()) {
    if (t.category == TaskCategory::kIntraComm) {
      ++transfers;
      EXPECT_EQ(t.bytes, 1000);  // bytes / r chunks.
    }
  }
  EXPECT_EQ(transfers, 2 * 3 * 4);  // 2(r-1) rounds x r ranks.
}

TEST_F(CollectivesTest, DepsGateFirstSends) {
  TaskGraph g;
  const TaskId gate = g.AddCompute(fabric_.ComputeLane(0), 50.0,
                                   TaskCategory::kAttentionCompute, {}, "gate", 0);
  const std::vector<std::vector<TaskId>> deps = {{gate}, {}, {}, {}};
  const CollectiveResult res = RingAllGather(g, fabric_, {0, 1, 2, 3}, {100, 100, 100, 100},
                                             TaskCategory::kIntraComm, deps, "ag");
  const SimResult sim = engine_.Run(g);
  // Everyone's completion waits on rank 0's gated first send propagating.
  EXPECT_GT(sim.finish_us[res.done[1]], 50.0);
}

}  // namespace
}  // namespace zeppelin
