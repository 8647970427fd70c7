// Tests for the schedule validator itself, plus randomized fuzzing of the
// discrete-event engine: every schedule the engine produces — over random
// DAGs, random resource sets, and every strategy's real graphs — must be
// legal (dependencies honored, resources exclusive, FIFO respected).
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/baselines/hybrid_dp.h"
#include "src/baselines/llama_cp.h"
#include "src/baselines/te_cp.h"
#include "src/common/rng.h"
#include "src/core/zeppelin.h"
#include "src/data/datasets.h"
#include "src/model/transformer.h"
#include "src/sim/validate.h"

namespace zeppelin {
namespace {

TEST(ValidateTest, AcceptsLegalSchedule) {
  const FabricResources fabric(MakeClusterA(1));
  TaskGraph g;
  const TaskId a =
      g.AddCompute(fabric.ComputeLane(0), 5.0, TaskCategory::kAttentionCompute, {}, "a", 0);
  g.AddCompute(fabric.ComputeLane(0), 3.0, TaskCategory::kAttentionCompute, {a}, "b", 0);
  const Engine engine(fabric);
  const SimResult r = engine.Run(g);
  EXPECT_TRUE(IsLegalSchedule(g, r, fabric.num_resources()));
}

TEST(ValidateTest, DetectsDependencyViolation) {
  const FabricResources fabric(MakeClusterA(1));
  TaskGraph g;
  const TaskId a =
      g.AddCompute(fabric.ComputeLane(0), 5.0, TaskCategory::kAttentionCompute, {}, "a", 0);
  g.AddCompute(fabric.ComputeLane(1), 3.0, TaskCategory::kAttentionCompute, {a}, "b", 1);
  const Engine engine(fabric);
  SimResult r = engine.Run(g);
  r.start_us[1] = 0.0;  // Forge: b starts before a finishes.
  r.finish_us[1] = 3.0;
  const auto violations = ValidateSchedule(g, r, fabric.num_resources());
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].description.find("dependency"), std::string::npos);
}

TEST(ValidateTest, DetectsResourceOverlap) {
  const FabricResources fabric(MakeClusterA(1));
  TaskGraph g;
  g.AddCompute(fabric.ComputeLane(0), 5.0, TaskCategory::kAttentionCompute, {}, "a", 0);
  g.AddCompute(fabric.ComputeLane(0), 5.0, TaskCategory::kAttentionCompute, {}, "b", 0);
  const Engine engine(fabric);
  SimResult r = engine.Run(g);
  r.start_us[1] = 2.0;  // Forge overlap on the shared lane.
  r.finish_us[1] = 7.0;
  const auto violations = ValidateSchedule(g, r, fabric.num_resources());
  ASSERT_FALSE(violations.empty());
}

TEST(ValidateTest, DetectsMissingTask) {
  const FabricResources fabric(MakeClusterA(1));
  TaskGraph g;
  g.AddCompute(fabric.ComputeLane(0), 5.0, TaskCategory::kAttentionCompute, {}, "a", 0);
  const Engine engine(fabric);
  SimResult r = engine.Run(g);
  r.start_us[0] = -1;
  const auto violations = ValidateSchedule(g, r, fabric.num_resources());
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].description.find("never ran"), std::string::npos);
}

// Random-DAG fuzz: arbitrary layered dependency structure over a mix of
// compute lanes and transfer paths.
class EngineFuzzTest : public ::testing::TestWithParam<int> {};

// FNV-1a over the bits of a SimResult: makespan, per-task start/finish, and
// per-resource busy time by category.
uint64_t SimDigest(const SimResult& r) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      hash = (hash ^ ((bits >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  mix(r.makespan_us);
  for (size_t i = 0; i < r.start_us.size(); ++i) {
    mix(r.start_us[i]);
    mix(r.finish_us[i]);
  }
  for (const ResourceUsage& u : r.usage) {
    mix(u.busy_us);
    for (double c : u.by_category) {
      mix(c);
    }
  }
  return hash;
}

// Digests of the fuzz graphs' results, taken from the engine before its
// flat-layout rewrite (seeds 1..30, in order). Any change to the admission
// or tie policy shows up here.
constexpr uint64_t kRandomDagDigest[30] = {
    0x1b7070133d28e77eULL, 0x47878b397eb263b4ULL, 0xfa6c03f289d4abbfULL,
    0x2fbc3a5f0b7af1a6ULL, 0x2b0c64e238cc823cULL, 0x3c2cde0013714fd6ULL,
    0x379151f8bd1149e0ULL, 0x33a503bee2f40c2fULL, 0x1bc73f48557c401bULL,
    0xfbda35be168f3a61ULL, 0x3c8f8c620b769ccfULL, 0x8e0f32b1d11ce685ULL,
    0x41774d929d7937deULL, 0xaa5e96b1db1b9b00ULL, 0x9ed08c415da8fe48ULL,
    0x01894a77ab288376ULL, 0x82ab83c8429eb1f8ULL, 0x2eee16e9650a3c2cULL,
    0x4cbdbbfed177882bULL, 0x72a8e59fb02e6428ULL, 0xe0f3fa920ab649a5ULL,
    0x9e3b9e5a6537a19aULL, 0xf593fd028ee59212ULL, 0x523ce47b3c25c268ULL,
    0x5ff526fc8560c33fULL, 0xcecf50a7377faec8ULL, 0x6b2031c188839692ULL,
    0x8137f8fc45240785ULL, 0xa0d4e56a279ce8edULL, 0x1b6e7dc172ce492aULL,
};
constexpr uint64_t kMixedDigest[30] = {
    0x3a47d72a912ab2f1ULL, 0xd675b9b140ebdacfULL, 0xdd46c2676ad7c413ULL,
    0x72ae0e2933b7e58aULL, 0x94d421a360394283ULL, 0xd421f98bb0860b3fULL,
    0xf3e314f166c0fad1ULL, 0xa27bc84160078029ULL, 0x58ab0a398ff12f1fULL,
    0xc9b37ecb468753dcULL, 0x3aedc17c3ca4407cULL, 0x6fcd30ee5074b200ULL,
    0x91c8c33c2bee9bfbULL, 0xa1a2f35c0bc41d68ULL, 0x86de19e22605ef6bULL,
    0x1548d8068b77b845ULL, 0x47e1776bf76c004cULL, 0xe80804119b5830b4ULL,
    0xa935b7f94fd1c329ULL, 0x0551d5e29247d2f0ULL, 0x07b96ef280e7997bULL,
    0x686ea71511c5c0cdULL, 0x726f682357b14ab3ULL, 0x0ec669a0a4dc6cfeULL,
    0xdb738fa87d8fa69bULL, 0x5c01662183cd0e0dULL, 0x9d33327aacfc1aa9ULL,
    0x665777a9f02d5ef5ULL, 0x8093b1952a9c3ef2ULL, 0x2326d247726a3537ULL,
};

void CheckDigest(const uint64_t (&table)[30], int seed, uint64_t digest) {
  if (std::getenv("ZEPPELIN_GOLDEN_PRINT") != nullptr) {
    std::printf("seed %d digest 0x%016" PRIx64 "ULL\n", seed, digest);
  }
  EXPECT_EQ(digest, table[seed - 1]) << "seed " << seed;
}

TEST_P(EngineFuzzTest, RandomDagsProduceLegalSchedules) {
  Rng rng(GetParam());
  const int nodes = 1 + static_cast<int>(rng.NextBounded(3));
  const ClusterSpec cluster = MakeClusterA(nodes);
  const FabricResources fabric(cluster);
  TaskGraph g;

  const int num_tasks = 60 + static_cast<int>(rng.NextBounded(120));
  for (int i = 0; i < num_tasks; ++i) {
    // Up to 3 random backward dependencies.
    std::vector<TaskId> deps;
    const int ndeps = static_cast<int>(rng.NextBounded(4));
    for (int d = 0; d < ndeps && g.size() > 0; ++d) {
      deps.push_back(static_cast<TaskId>(rng.NextBounded(g.size())));
    }
    const int kind = static_cast<int>(rng.NextBounded(3));
    if (kind == 0) {
      const int gpu = static_cast<int>(rng.NextBounded(cluster.world_size()));
      g.AddCompute(fabric.ComputeLane(gpu), 1.0 + static_cast<double>(rng.NextBounded(50)),
                   TaskCategory::kAttentionCompute, std::move(deps),
                   std::string("c").append(std::to_string(i)), gpu);
    } else if (kind == 1) {
      const int src = static_cast<int>(rng.NextBounded(cluster.world_size()));
      const int dst = static_cast<int>(rng.NextBounded(cluster.world_size()));
      g.AddTransfer(fabric.Resolve(src, dst), 1 + static_cast<int64_t>(rng.NextBounded(1 << 22)),
                    TaskCategory::kIntraComm, std::move(deps),
                    std::string("x").append(std::to_string(i)), src);
    } else {
      g.AddBarrier(std::move(deps), std::string("b").append(std::to_string(i)));
    }
  }

  const Engine engine(fabric);
  const SimResult result = engine.Run(g);
  const auto violations = ValidateSchedule(g, result, fabric.num_resources());
  for (const auto& v : violations) {
    ADD_FAILURE() << v.description;
  }
  CheckDigest(kRandomDagDigest, GetParam(), SimDigest(result));
}

// Mixed fuzz: multi-channel tasks (3-4 distinct resources each), zero-duration
// compute, and durations from a small set so completions tie on time and the
// engine's (time, task id) tie order decides.
TEST_P(EngineFuzzTest, MultiChannelTiesProduceLegalSchedules) {
  Rng rng(1000 + GetParam());
  const int nodes = 1 + static_cast<int>(rng.NextBounded(3));
  const ClusterSpec cluster = MakeClusterA(nodes);
  const FabricResources fabric(cluster);
  const double kDurations[] = {0.0, 1.0, 2.0, 4.0};
  TaskGraph g;

  const int num_tasks = 80 + static_cast<int>(rng.NextBounded(160));
  for (int i = 0; i < num_tasks; ++i) {
    std::vector<TaskId> deps;
    const int ndeps = static_cast<int>(rng.NextBounded(4));
    for (int d = 0; d < ndeps && g.size() > 0; ++d) {
      deps.push_back(static_cast<TaskId>(rng.NextBounded(g.size())));
    }
    const double duration = kDurations[rng.NextBounded(4)];
    const int kind = static_cast<int>(rng.NextBounded(4));
    if (kind == 0) {
      const int gpu = static_cast<int>(rng.NextBounded(cluster.world_size()));
      g.AddCompute(fabric.ComputeLane(gpu), duration, TaskCategory::kAttentionCompute,
                   deps, "c", gpu);
    } else if (kind == 1) {
      std::vector<ResourceId> resources;
      const int channels = 3 + static_cast<int>(rng.NextBounded(2));
      while (static_cast<int>(resources.size()) < channels) {
        const auto r = static_cast<ResourceId>(rng.NextBounded(fabric.num_resources()));
        if (std::find(resources.begin(), resources.end(), r) == resources.end()) {
          resources.push_back(r);
        }
      }
      g.AddTask(duration, TaskCategory::kInterComm, resources, deps, 0, -1, "m");
    } else if (kind == 2) {
      const int src = static_cast<int>(rng.NextBounded(cluster.world_size()));
      const int dst = static_cast<int>(rng.NextBounded(cluster.world_size()));
      g.AddTransfer(fabric.Resolve(src, dst), int64_t{1 << 20} * rng.NextBounded(3),
                    TaskCategory::kIntraComm, deps, "x", src);
    } else {
      g.AddBarrier(deps, "b");
    }
  }

  const Engine engine(fabric);
  const SimResult result = engine.Run(g);
  for (const auto& v : ValidateSchedule(g, result, fabric.num_resources())) {
    ADD_FAILURE() << v.description;
  }
  CheckDigest(kMixedDigest, GetParam(), SimDigest(result));
}

// Digests of the burst graphs' results, taken from the engine that still
// admitted through a dirty-resource rescan and a (time, task id) binary heap
// (seeds 1..30, in order).
constexpr uint64_t kBurstDigest[30] = {
    0x4c4d591d01be69a5ULL, 0x4eebe340478c97c5ULL, 0x18ebc65a22f4b581ULL,
    0x254a2af39ef7f9c5ULL, 0x575a19a8277d297cULL, 0x9136aea330641d37ULL,
    0xdfc8e13a38618245ULL, 0xa71c78c2e3955d38ULL, 0xd97a5c6690123205ULL,
    0x96313f913d32aa02ULL, 0x52889c6aa391a4b9ULL, 0xbe145b70cc16ff45ULL,
    0xb7e4e552b965802fULL, 0xfa48a772be6556c5ULL, 0x48a1ca738d68396eULL,
    0xf5274f2ff0ee7308ULL, 0x4e647a024a1aebc8ULL, 0x165cc2651122bed2ULL,
    0xc22e780cc4fecdacULL, 0x12622a0663418745ULL, 0xb10b3c5687f4cffcULL,
    0x3708251eff0ee5c0ULL, 0x0b350d84bfdb2253ULL, 0x593bc6b450a2203cULL,
    0x6ee5b2e018bae9dcULL, 0x3a7a0eec28557d38ULL, 0x3dc7328941297a12ULL,
    0xc1afa81e7b528e42ULL, 0x87a9fe920e432d45ULL, 0x5e4666d580a104f3ULL,
};

// Burst fuzz: waves of tasks that finish at one instant and free 2-4 shared
// channels each, so admission sees many freed resources and many newly ready
// tasks at once. Durations include -0.0: a task started at t finishes at
// t + -0.0 == t, which must stay in the same instant as t.
TEST_P(EngineFuzzTest, SameInstantBurstsOnSharedChannels) {
  Rng rng(2000 + GetParam());
  const FabricResources fabric(MakeClusterA(1 + static_cast<int>(rng.NextBounded(2))));
  // A small channel pool, so most multi-channel tasks contend.
  const int pool = 4 + static_cast<int>(rng.NextBounded(5));
  const double kDurations[] = {-0.0, 0.0, 1.0, 1.0, 3.0};
  TaskGraph g;

  std::vector<TaskId> wave;
  std::vector<TaskId> next_wave;
  const int waves = 6 + static_cast<int>(rng.NextBounded(6));
  for (int w = 0; w < waves; ++w) {
    next_wave.clear();
    const int width = 4 + static_cast<int>(rng.NextBounded(12));
    for (int i = 0; i < width; ++i) {
      std::vector<TaskId> deps;
      const int ndeps = wave.empty() ? 0 : 1 + static_cast<int>(rng.NextBounded(3));
      for (int d = 0; d < ndeps; ++d) {
        deps.push_back(wave[rng.NextBounded(wave.size())]);
      }
      const double duration = kDurations[rng.NextBounded(std::size(kDurations))];
      if (rng.NextBounded(8) == 0) {
        next_wave.push_back(g.AddBarrier(deps, "b"));
        continue;
      }
      std::vector<ResourceId> resources;
      const int channels = 2 + static_cast<int>(rng.NextBounded(3));
      while (static_cast<int>(resources.size()) < channels) {
        const auto r = static_cast<ResourceId>(rng.NextBounded(pool));
        if (std::find(resources.begin(), resources.end(), r) == resources.end()) {
          resources.push_back(r);
        }
      }
      next_wave.push_back(
          g.AddTask(duration, TaskCategory::kInterComm, resources, deps, 0, -1, "m"));
    }
    wave.swap(next_wave);
  }

  const Engine engine(fabric);
  const SimResult result = engine.Run(g);
  for (const auto& v : ValidateSchedule(g, result, fabric.num_resources())) {
    ADD_FAILURE() << v.description;
  }
  CheckDigest(kBurstDigest, GetParam(), SimDigest(result));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest, ::testing::Range(1, 31));

// Real strategy graphs: every strategy's emitted layer must simulate to a
// legal schedule on every dataset.
class StrategyScheduleTest : public ::testing::TestWithParam<int> {};

TEST_P(StrategyScheduleTest, AllStrategyGraphsAreLegal) {
  const int seed = GetParam();
  const ClusterSpec cluster = MakeClusterA(2);
  const FabricResources fabric(cluster);
  const CostModel cost_model(MakeLlama7B(), cluster);
  const auto datasets = EvaluationDatasets();
  BatchSampler sampler(datasets[seed % datasets.size()], 65536, seed);
  const Batch batch = sampler.NextBatch();

  std::vector<std::unique_ptr<Strategy>> strategies;
  strategies.push_back(std::make_unique<TeCpStrategy>());
  strategies.push_back(std::make_unique<TeCpStrategy>(TeCpOptions{.routing = {.enabled = true}}));
  strategies.push_back(std::make_unique<LlamaCpStrategy>());
  strategies.push_back(std::make_unique<HybridDpStrategy>());
  strategies.push_back(std::make_unique<ZeppelinStrategy>());
  ZeppelinOptions zone_aware;
  zone_aware.planning.zone_aware_thresholds = true;
  strategies.push_back(std::make_unique<ZeppelinStrategy>(zone_aware));

  const Engine engine(fabric);
  for (auto& strategy : strategies) {
    strategy->Plan(batch, cost_model, fabric);
    for (const Direction d : {Direction::kForward, Direction::kBackward}) {
      TaskGraph g;
      strategy->EmitLayer(g, d);
      const SimResult result = engine.Run(g);
      const auto violations = ValidateSchedule(g, result, fabric.num_resources());
      for (const auto& v : violations) {
        ADD_FAILURE() << strategy->name() << ": " << v.description;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyScheduleTest, ::testing::Range(1, 10));

}  // namespace
}  // namespace zeppelin
