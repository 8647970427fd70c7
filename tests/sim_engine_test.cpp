#include <gtest/gtest.h>

#include <cmath>

#include "src/common/trace_json.h"
#include "src/sim/engine.h"
#include "src/sim/graph.h"
#include "src/sim/trace.h"
#include "src/topology/path.h"

namespace zeppelin {
namespace {

class SimEngineTest : public ::testing::Test {
 protected:
  SimEngineTest() : fabric_(MakeClusterA(2)), engine_(fabric_) {}
  FabricResources fabric_;
  Engine engine_;
};

TEST_F(SimEngineTest, SerializesTasksOnOneResource) {
  TaskGraph g;
  const ResourceId lane = fabric_.ComputeLane(0);
  g.AddCompute(lane, 10.0, TaskCategory::kAttentionCompute, {}, "a", 0);
  g.AddCompute(lane, 5.0, TaskCategory::kAttentionCompute, {}, "b", 0);
  const SimResult r = engine_.Run(g);
  EXPECT_DOUBLE_EQ(r.makespan_us, 15.0);
  EXPECT_DOUBLE_EQ(r.start_us[1], 10.0);
}

TEST_F(SimEngineTest, ParallelOnDistinctResources) {
  TaskGraph g;
  g.AddCompute(fabric_.ComputeLane(0), 10.0, TaskCategory::kAttentionCompute, {}, "a", 0);
  g.AddCompute(fabric_.ComputeLane(1), 8.0, TaskCategory::kAttentionCompute, {}, "b", 1);
  const SimResult r = engine_.Run(g);
  EXPECT_DOUBLE_EQ(r.makespan_us, 10.0);
  EXPECT_DOUBLE_EQ(r.start_us[1], 0.0);
}

TEST_F(SimEngineTest, DependenciesGateStart) {
  TaskGraph g;
  const TaskId a = g.AddCompute(fabric_.ComputeLane(0), 7.0, TaskCategory::kAttentionCompute,
                                {}, "a", 0);
  g.AddCompute(fabric_.ComputeLane(1), 3.0, TaskCategory::kAttentionCompute, {a}, "b", 1);
  const SimResult r = engine_.Run(g);
  EXPECT_DOUBLE_EQ(r.start_us[1], 7.0);
  EXPECT_DOUBLE_EQ(r.makespan_us, 10.0);
}

TEST_F(SimEngineTest, TransferOccupiesWholePath) {
  TaskGraph g;
  const TransferPath path = fabric_.Resolve(0, 8);  // Cross-node, 4 channels.
  const int64_t bytes = 1 << 20;
  g.AddTransfer(path, bytes, TaskCategory::kInterComm, {}, "x", 0);
  // A second transfer on the same NIC serializes even though the source GPU
  // differs (GPUs 0 and 1 share NIC 0 on Cluster A).
  const TransferPath path2 = fabric_.Resolve(1, 9);
  g.AddTransfer(path2, bytes, TaskCategory::kInterComm, {}, "y", 1);
  const SimResult r = engine_.Run(g);
  const double one = bytes / fabric_.cluster().nic_bandwidth +
                     fabric_.cluster().inter_latency_us;
  EXPECT_NEAR(r.makespan_us, 2 * one, 1e-6);
}

TEST_F(SimEngineTest, OppositeNicDirectionsDoNotContend) {
  TaskGraph g;
  const int64_t bytes = 1 << 20;
  g.AddTransfer(fabric_.Resolve(0, 8), bytes, TaskCategory::kInterComm, {}, "fwd", 0);
  g.AddTransfer(fabric_.Resolve(8, 0), bytes, TaskCategory::kInterComm, {}, "rev", 8);
  const SimResult r = engine_.Run(g);
  const double one = bytes / fabric_.cluster().nic_bandwidth +
                     fabric_.cluster().inter_latency_us;
  EXPECT_NEAR(r.makespan_us, one, 1e-6);  // Full duplex.
}

TEST_F(SimEngineTest, BarriersAreFree) {
  TaskGraph g;
  const TaskId a = g.AddCompute(fabric_.ComputeLane(0), 4.0, TaskCategory::kAttentionCompute,
                                {}, "a", 0);
  const TaskId bar = g.AddBarrier({a});
  g.AddCompute(fabric_.ComputeLane(1), 4.0, TaskCategory::kAttentionCompute, {bar}, "b", 1);
  const SimResult r = engine_.Run(g);
  EXPECT_DOUBLE_EQ(r.makespan_us, 8.0);
  EXPECT_DOUBLE_EQ(r.finish_us[bar], 4.0);
}

TEST_F(SimEngineTest, ZeroDurationChainResolvesInstantly) {
  TaskGraph g;
  TaskId prev = g.AddBarrier({});
  for (int i = 0; i < 50; ++i) {
    prev = g.AddBarrier({prev});
  }
  const SimResult r = engine_.Run(g);
  EXPECT_DOUBLE_EQ(r.makespan_us, 0.0);
}

TEST_F(SimEngineTest, ProgramOrderIsFifoPerResource) {
  TaskGraph g;
  const ResourceId lane = fabric_.ComputeLane(0);
  // Task 0 long, task 1 short: short one must still wait (FIFO, no EDF).
  g.AddCompute(lane, 100.0, TaskCategory::kAttentionCompute, {}, "long", 0);
  g.AddCompute(lane, 1.0, TaskCategory::kAttentionCompute, {}, "short", 0);
  const SimResult r = engine_.Run(g);
  EXPECT_DOUBLE_EQ(r.start_us[1], 100.0);
}

TEST_F(SimEngineTest, MultiResourceTaskWaitsForAll) {
  TaskGraph g;
  const ResourceId r0 = fabric_.NvswitchEgress(0);
  const ResourceId r1 = fabric_.NvswitchIngress(1);
  // Occupy r1 first.
  const ResourceId blocker[] = {r1};
  g.AddTask(20.0, TaskCategory::kIntraComm, blocker, {}, 0, -1, "blocker");
  // Multi-resource task needs both r0 and r1.
  const ResourceId both[] = {r0, r1};
  const TaskId both_id = g.AddTask(5.0, TaskCategory::kIntraComm, both, {}, 0, -1, "both");
  const SimResult r = engine_.Run(g);
  EXPECT_DOUBLE_EQ(r.start_us[both_id], 20.0);
}

TEST_F(SimEngineTest, NoDeadlockOnInterleavedMultiResourceTasks) {
  TaskGraph g;
  const ResourceId a = fabric_.NvswitchEgress(0);
  const ResourceId b = fabric_.NvswitchIngress(1);
  for (int i = 0; i < 20; ++i) {
    const std::vector<ResourceId> resources =
        (i % 2 == 0) ? std::vector<ResourceId>{a, b} : std::vector<ResourceId>{b, a};
    g.AddTask(1.0, TaskCategory::kIntraComm, resources, {}, 0, -1,
              std::string("t").append(std::to_string(i)));
  }
  const SimResult r = engine_.Run(g);  // ZCHECK inside fails on deadlock.
  EXPECT_DOUBLE_EQ(r.makespan_us, 20.0);
}

TEST_F(SimEngineTest, CategoryAccounting) {
  TaskGraph g;
  g.AddCompute(fabric_.ComputeLane(0), 10.0, TaskCategory::kAttentionCompute, {}, "a", 0);
  g.AddCompute(fabric_.ComputeLane(0), 4.0, TaskCategory::kLinearCompute, {}, "l", 0);
  const SimResult r = engine_.Run(g);
  EXPECT_DOUBLE_EQ(r.CategoryBusy(TaskCategory::kAttentionCompute), 10.0);
  EXPECT_DOUBLE_EQ(r.CategoryBusy(TaskCategory::kLinearCompute), 4.0);
  EXPECT_DOUBLE_EQ(r.Utilization(fabric_.ComputeLane(0)), 1.0);
  EXPECT_DOUBLE_EQ(r.Utilization(fabric_.ComputeLane(1)), 0.0);
}

TEST_F(SimEngineTest, DeterministicAcrossRuns) {
  TaskGraph g;
  for (int i = 0; i < 200; ++i) {
    g.AddCompute(fabric_.ComputeLane(i % 16), 1.0 + i % 7, TaskCategory::kAttentionCompute,
                 i > 0 ? std::vector<TaskId>{static_cast<TaskId>(i / 2)} : std::vector<TaskId>{},
                 "t", i % 16);
  }
  const SimResult r1 = engine_.Run(g);
  const SimResult r2 = engine_.Run(g);
  EXPECT_EQ(r1.start_us, r2.start_us);
  EXPECT_EQ(r1.makespan_us, r2.makespan_us);
}

TEST_F(SimEngineTest, CountersDescribeTheRun) {
  TaskGraph g;
  const ResourceId lane0 = fabric_.ComputeLane(0);
  const ResourceId lane1 = fabric_.ComputeLane(1);
  const TaskId a = g.AddCompute(lane0, 10.0, TaskCategory::kAttentionCompute, {}, "a", 0);
  g.AddCompute(lane0, 5.0, TaskCategory::kAttentionCompute, {}, "b", 0);
  const TaskId c = g.AddCompute(lane1, 10.0, TaskCategory::kAttentionCompute, {}, "c", 1);
  g.AddBarrier({a, c}, "d");
  // -0.0 durations: t + -0.0 == t, so these finish at the instant they start
  // and neither adds an instant of its own beyond t = 0.
  const TaskId e = g.AddCompute(lane1, -0.0, TaskCategory::kOtherCompute, {c}, "e", 1);
  const TaskId f =
      g.AddCompute(fabric_.ComputeLane(2), -0.0, TaskCategory::kOtherCompute, {}, "f", 2);
  const SimResult r = engine_.Run(g);
  EXPECT_EQ(r.counters.tasks, 6);
  EXPECT_EQ(r.counters.event_instants, 3);  // t = 0, 10 and 15.
  EXPECT_EQ(r.counters.peak_in_flight, 3);  // a, c and f at t = 0.
  EXPECT_EQ(r.counters.peak_queue_depth, 2);  // a and b on lane 0.
  EXPECT_DOUBLE_EQ(r.makespan_us, 15.0);
  EXPECT_EQ(r.finish_us[e], 10.0);
  EXPECT_EQ(r.finish_us[f], 0.0);
  EXPECT_FALSE(std::signbit(r.finish_us[f]));
}

TEST_F(SimEngineTest, TraceCapturesEvents) {
  TaskGraph g;
  g.AddCompute(fabric_.ComputeLane(0), 10.0, TaskCategory::kAttentionCompute, {}, "k", 0);
  g.AddTransfer(fabric_.Resolve(0, 1), 1 << 20, TaskCategory::kIntraComm, {}, "x", 0);
  ChromeTraceWriter trace;
  engine_.Run(g, &trace);
  // 1 compute slice + 2 path-channel slices.
  EXPECT_EQ(trace.event_count(), 3u);
  EXPECT_NE(trace.ToJson().find("\"k\""), std::string::npos);
}

TEST_F(SimEngineTest, TimelineReportMentionsCategories) {
  TaskGraph g;
  g.AddCompute(fabric_.ComputeLane(0), 10.0, TaskCategory::kAttentionCompute, {}, "k", 0);
  const SimResult r = engine_.Run(g);
  const std::string report = FormatTimelineReport(g, fabric_, r);
  EXPECT_NE(report.find("attention_compute"), std::string::npos);
  EXPECT_NE(report.find("makespan"), std::string::npos);
}

TEST_F(SimEngineTest, NicUtilizationComputed) {
  TaskGraph g;
  g.AddTransfer(fabric_.Resolve(0, 8), 1 << 24, TaskCategory::kInterComm, {}, "x", 0);
  const SimResult r = engine_.Run(g);
  const auto nics = ComputeNicUtilization(fabric_, r);
  ASSERT_EQ(nics.size(), 8u);  // 2 nodes x 4 NICs.
  EXPECT_GT(nics[0].tx_utilization, 0.9);  // n0.nic0 busy nearly the whole run.
  EXPECT_DOUBLE_EQ(nics[1].tx_utilization, 0.0);
  EXPECT_GT(MeanNicUtilization(fabric_, r), 0.0);
}

}  // namespace
}  // namespace zeppelin
