// Stress and semantics tests for the discrete-event engine at scale.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/engine.h"
#include "src/sim/validate.h"

namespace zeppelin {
namespace {

TEST(EngineStressTest, FiftyThousandTaskChainExact) {
  const FabricResources fabric(MakeClusterA(1));
  const Engine engine(fabric);
  TaskGraph g;
  TaskId prev = kInvalidTask;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    std::vector<TaskId> deps;
    if (prev != kInvalidTask) {
      deps.push_back(prev);
    }
    prev = g.AddCompute(fabric.ComputeLane(i % 8), 1.0, TaskCategory::kOtherCompute,
                        std::move(deps), "", i % 8);
  }
  const SimResult result = engine.Run(g);
  EXPECT_DOUBLE_EQ(result.makespan_us, static_cast<double>(n));
}

TEST(EngineStressTest, WideFanOutFanIn) {
  const FabricResources fabric(MakeClusterA(2));
  const Engine engine(fabric);
  TaskGraph g;
  const TaskId root = g.AddBarrier({}, "root");
  std::vector<TaskId> leaves;
  const int width = 2000;
  for (int i = 0; i < width; ++i) {
    leaves.push_back(g.AddCompute(fabric.ComputeLane(i % 16), 1.0,
                                  TaskCategory::kOtherCompute, {root}, "", i % 16));
  }
  const TaskId sink = g.AddBarrier(std::move(leaves), "sink");
  const SimResult result = engine.Run(g);
  // 2000 unit tasks over 16 lanes: exactly 125 per lane.
  EXPECT_DOUBLE_EQ(result.finish_us[sink], 125.0);
}

TEST(EngineStressTest, ConcurrentRunsShareOneEngine) {
  // Engine::Run keeps all of its state in per-call workspaces, so one const
  // Engine may simulate one graph from several threads at once.
  Rng rng(77);
  const FabricResources fabric(MakeClusterA(2));
  const Engine engine(fabric);
  TaskGraph g;
  for (int i = 0; i < 3000; ++i) {
    std::vector<TaskId> deps;
    if (g.size() > 0 && rng.NextBounded(4) != 0) {
      deps.push_back(static_cast<TaskId>(rng.NextBounded(g.size())));
    }
    const int src = static_cast<int>(rng.NextBounded(16));
    const int dst = static_cast<int>(rng.NextBounded(16));
    if (i % 3 == 0) {
      g.AddTransfer(fabric.Resolve(src, dst), 1 << 16, TaskCategory::kInterComm, deps, "", src);
    } else {
      g.AddCompute(fabric.ComputeLane(src), 1.0 + static_cast<double>(rng.NextBounded(5)),
                   TaskCategory::kOtherCompute, deps, "", src);
    }
  }
  const SimResult expected = engine.Run(g);
  std::vector<SimResult> results(4);
  std::vector<std::thread> threads;
  for (auto& r : results) {
    threads.emplace_back([&engine, &g, &r] { r = engine.Run(g); });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (const SimResult& r : results) {
    EXPECT_EQ(r.makespan_us, expected.makespan_us);
    EXPECT_EQ(r.start_us, expected.start_us);
    EXPECT_EQ(r.finish_us, expected.finish_us);
  }
}

TEST(EngineStressTest, RandomLayeredDagThroughput) {
  // A large random layered DAG must simulate quickly and legally. This also
  // guards against accidental quadratic blowups in the admission loop.
  Rng rng(4242);
  const FabricResources fabric(MakeClusterA(2));
  const Engine engine(fabric);
  TaskGraph g;
  std::vector<TaskId> prev_layer;
  for (int layer = 0; layer < 60; ++layer) {
    std::vector<TaskId> this_layer;
    for (int i = 0; i < 100; ++i) {
      std::vector<TaskId> deps;
      if (!prev_layer.empty()) {
        deps.push_back(prev_layer[rng.NextBounded(prev_layer.size())]);
        if (rng.NextBounded(2) == 0) {
          deps.push_back(prev_layer[rng.NextBounded(prev_layer.size())]);
        }
      }
      const int gpu = static_cast<int>(rng.NextBounded(16));
      this_layer.push_back(g.AddCompute(fabric.ComputeLane(gpu),
                                        1.0 + static_cast<double>(rng.NextBounded(10)),
                                        TaskCategory::kOtherCompute, std::move(deps), "", gpu));
    }
    prev_layer = std::move(this_layer);
  }
  const SimResult result = engine.Run(g);
  EXPECT_GT(result.makespan_us, 0);
  EXPECT_TRUE(IsLegalSchedule(g, result, fabric.num_resources()));
}

TEST(EngineStressTest, MakespanLowerBoundsHold) {
  // Makespan >= max per-resource busy time, and >= the critical path.
  Rng rng(7);
  const FabricResources fabric(MakeClusterA(1));
  const Engine engine(fabric);
  TaskGraph g;
  std::vector<TaskId> all;
  for (int i = 0; i < 500; ++i) {
    std::vector<TaskId> deps;
    if (!all.empty() && rng.NextBounded(3) > 0) {
      deps.push_back(all[rng.NextBounded(all.size())]);
    }
    const int gpu = static_cast<int>(rng.NextBounded(8));
    all.push_back(g.AddCompute(fabric.ComputeLane(gpu),
                               1.0 + static_cast<double>(rng.NextBounded(20)),
                               TaskCategory::kOtherCompute, std::move(deps), "", gpu));
  }
  const SimResult result = engine.Run(g);
  for (int r = 0; r < fabric.num_resources(); ++r) {
    EXPECT_GE(result.makespan_us + 1e-9, result.ResourceBusy(r));
  }
  // Critical path via longest-path DP.
  std::vector<double> path(g.size(), 0);
  double critical = 0;
  for (TaskId id = 0; id < g.size(); ++id) {
    double start = 0;
    for (TaskId dep : g.task(id).deps) {
      start = std::max(start, path[dep]);
    }
    path[id] = start + g.task(id).duration_us;
    critical = std::max(critical, path[id]);
  }
  EXPECT_GE(result.makespan_us + 1e-9, critical);
}

TEST(EngineStressTest, UtilizationNeverExceedsOne) {
  Rng rng(13);
  const FabricResources fabric(MakeClusterB(2));
  const Engine engine(fabric);
  TaskGraph g;
  for (int i = 0; i < 300; ++i) {
    const int src = static_cast<int>(rng.NextBounded(16));
    const int dst = static_cast<int>(rng.NextBounded(16));
    g.AddTransfer(fabric.Resolve(src, dst), 1 + rng.NextBounded(1 << 20),
                  TaskCategory::kIntraComm, {}, "", src);
  }
  const SimResult result = engine.Run(g);
  for (int r = 0; r < fabric.num_resources(); ++r) {
    EXPECT_LE(result.Utilization(r), 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace zeppelin
