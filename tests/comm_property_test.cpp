// Property sweeps over the collective library: volume conservation, schedule
// legality, and duplex independence across cluster shapes and rank subsets.
#include <gtest/gtest.h>

#include <numeric>

#include "src/comm/collectives.h"
#include "src/common/rng.h"
#include "src/sim/validate.h"

namespace zeppelin {
namespace {

int64_t CategoryBytes(const TaskGraph& g) {
  int64_t total = 0;
  for (const Task& t : g.tasks()) {
    if (IsCommCategory(t.category)) {
      total += t.bytes;
    }
  }
  return total;
}

class CollectivePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectivePropertyTest, AllGatherVolumeAndLegality) {
  Rng rng(GetParam());
  const int nodes = 1 + static_cast<int>(rng.NextBounded(3));
  const FabricResources fabric(MakeClusterA(nodes));
  const Engine engine(fabric);

  // Random rank subset of size >= 1.
  const int world = fabric.cluster().world_size();
  const int r = 1 + static_cast<int>(rng.NextBounded(std::min(world, 8)));
  std::vector<int> ranks;
  std::vector<bool> used(world, false);
  while (static_cast<int>(ranks.size()) < r) {
    const int candidate = static_cast<int>(rng.NextBounded(world));
    if (!used[candidate]) {
      used[candidate] = true;
      ranks.push_back(candidate);
    }
  }
  std::vector<int64_t> bytes(r);
  int64_t total = 0;
  for (auto& b : bytes) {
    b = 1 + static_cast<int64_t>(rng.NextBounded(1 << 22));
    total += b;
  }

  TaskGraph g;
  const auto result =
      RingAllGather(g, fabric, ranks, bytes, TaskCategory::kIntraComm, {}, "ag");
  ASSERT_EQ(result.done.size(), static_cast<size_t>(r));
  // Ring all-gather ships each chunk r-1 times.
  EXPECT_EQ(CategoryBytes(g), (r - 1) * total);

  const SimResult sim = engine.Run(g);
  EXPECT_TRUE(IsLegalSchedule(g, sim, fabric.num_resources()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollectivePropertyTest, ::testing::Range(1, 21));

class AllToAllPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AllToAllPropertyTest, MatrixVolumesConserved) {
  Rng rng(GetParam() + 100);
  const FabricResources fabric(MakeClusterB(2));
  const Engine engine(fabric);
  const int r = 2 + static_cast<int>(rng.NextBounded(10));
  std::vector<int> ranks(r);
  std::iota(ranks.begin(), ranks.end(), 0);

  std::vector<int64_t> sends(r * r, 0);
  int64_t expected = 0;
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < r; ++j) {
      if (i != j && rng.NextBounded(2) == 0) {
        sends[i * r + j] = static_cast<int64_t>(rng.NextBounded(1 << 20));
        expected += sends[i * r + j];
      }
    }
  }
  TaskGraph g;
  AllToAllV(g, fabric, ranks, sends, TaskCategory::kRemapComm, {}, "a2a");
  EXPECT_EQ(CategoryBytes(g), expected);
  const SimResult sim = engine.Run(g);
  EXPECT_TRUE(IsLegalSchedule(g, sim, fabric.num_resources()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllToAllPropertyTest, ::testing::Range(1, 16));

TEST(CommPropertyTest, AllReduceVolumeScalesWithRing) {
  const FabricResources fabric(MakeClusterA(1));
  for (const int r : {2, 4, 8}) {
    std::vector<int> ranks(r);
    std::iota(ranks.begin(), ranks.end(), 0);
    TaskGraph g;
    const int64_t bytes = 1 << 20;
    RingAllReduce(g, fabric, ranks, bytes, TaskCategory::kIntraComm, {}, "ar");
    // 2(r-1) rounds x r ranks x bytes/r chunks = 2(r-1) * bytes.
    EXPECT_NEAR(static_cast<double>(CategoryBytes(g)), 2.0 * (r - 1) * bytes,
                2.0 * r /* per-chunk rounding */)
        << "r=" << r;
  }
}

TEST(CommPropertyTest, CounterRotatingRingsContendOnNvswitchEgress) {
  // NVSwitch egress is a per-GPU port: a counter-rotating intra-node ring
  // shares every port with the forward ring and roughly doubles the time.
  // (NIC tx/rx are independent directions — covered by the duplex test in
  // sim_engine_test — but NVSwitch ports are not direction-paired per peer.)
  const FabricResources fabric(MakeClusterA(1));
  const Engine engine(fabric);
  const std::vector<int> fwd = {0, 1, 2, 3};
  const std::vector<int> rev = {3, 2, 1, 0};
  const std::vector<int64_t> bytes(4, 1 << 22);

  TaskGraph one;
  RingAllGather(one, fabric, fwd, bytes, TaskCategory::kIntraComm, {}, "f");
  const double single = engine.Run(one).makespan_us;

  TaskGraph both;
  RingAllGather(both, fabric, fwd, bytes, TaskCategory::kIntraComm, {}, "f");
  RingAllGather(both, fabric, rev, bytes, TaskCategory::kIntraComm, {}, "r");
  const double dual = engine.Run(both).makespan_us;
  EXPECT_GT(dual, 1.8 * single);
  EXPECT_LT(dual, 2.2 * single);
}

TEST(CommPropertyTest, SameDirectionRingsSerialize) {
  const FabricResources fabric(MakeClusterA(1));
  const Engine engine(fabric);
  const std::vector<int> ranks = {0, 1, 2, 3};
  const std::vector<int64_t> bytes(4, 1 << 22);
  TaskGraph one;
  RingAllGather(one, fabric, ranks, bytes, TaskCategory::kIntraComm, {}, "a");
  const double single = engine.Run(one).makespan_us;
  TaskGraph both;
  RingAllGather(both, fabric, ranks, bytes, TaskCategory::kIntraComm, {}, "a");
  RingAllGather(both, fabric, ranks, bytes, TaskCategory::kIntraComm, {}, "b");
  const double dual = engine.Run(both).makespan_us;
  // Same channels, same direction: roughly double (pipelining saves a bit).
  EXPECT_GT(dual, 1.5 * single);
}

}  // namespace
}  // namespace zeppelin
