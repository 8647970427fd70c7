#include <gtest/gtest.h>

#include "src/core/registry.h"
#include "src/core/trainer.h"
#include "src/core/zeppelin.h"
#include "src/data/datasets.h"
#include "src/data/stream.h"
#include "src/model/transformer.h"

namespace zeppelin {
namespace {

TEST(RegistryTest, AllKnownNamesConstruct) {
  for (const std::string& name : KnownStrategyNames()) {
    const auto strategy = MakeStrategyByName(name);
    ASSERT_NE(strategy, nullptr) << name;
    EXPECT_FALSE(strategy->name().empty());
  }
}

TEST(RegistryTest, BaseNamesMapToExpectedSystems) {
  EXPECT_EQ(MakeStrategyByName("te-cp")->name(), "TE-CP");
  EXPECT_EQ(MakeStrategyByName("te-cp+routing")->name(), "TE-CP[+routing]");
  EXPECT_EQ(MakeStrategyByName("llama-cp")->name(), "LLaMA-CP");
  EXPECT_EQ(MakeStrategyByName("hybrid-dp")->name(), "Hybrid-DP");
  EXPECT_EQ(MakeStrategyByName("pack-ulysses")->name(), "Pack+Ulysses");
  EXPECT_EQ(MakeStrategyByName("zeppelin")->name(), "Zeppelin");
}

TEST(RegistryTest, ZeppelinModifiersApply) {
  EXPECT_EQ(MakeStrategyByName("zeppelin-routing")->name(), "Zeppelin[-routing]");
  EXPECT_EQ(MakeStrategyByName("zeppelin-remap")->name(), "Zeppelin[-remap]");
  EXPECT_EQ(MakeStrategyByName("zeppelin-routing-remap")->name(),
            "Zeppelin[-routing][-remap]");
}

TEST(RegistryTest, ModifiedStrategiesRun) {
  const ClusterSpec cluster = MakeClusterA(2);
  const FabricResources fabric(cluster);
  const CostModel cost_model(MakeLlama3B(), cluster);
  Batch batch;
  batch.seq_lens = {32768, 16384, 8192, 8192};
  for (const char* spec : {"zeppelin+zones", "zeppelin+striped", "zeppelin+contiguous",
                           "zeppelin+localfirst", "te-cp+routing"}) {
    auto strategy = MakeStrategyByName(spec);
    strategy->Plan(batch, cost_model, fabric);
    TaskGraph g;
    strategy->EmitLayer(g, Direction::kForward);
    EXPECT_GT(g.size(), 0) << spec;
  }
}

TEST(RegistryTest, UnknownSpecAborts) {
  EXPECT_DEATH(MakeStrategyByName("megatron"), "unknown strategy");
  EXPECT_DEATH(MakeStrategyByName("zeppelin+warp"), "unknown zeppelin modifier");
}

TEST(RegistryTest, InlineKnobModifiersOverrideDefaults) {
  StrategyDefaults defaults;
  defaults.delta_replan_threshold = 0.10;

  // Defaults flow through when the spec carries no knobs (the alias path).
  auto plain = MakeStrategyByName("zeppelin", defaults);
  const auto* zep = dynamic_cast<const ZeppelinStrategy*>(plain.get());
  ASSERT_NE(zep, nullptr);
  EXPECT_DOUBLE_EQ(zep->options().planning.delta_replan_threshold, 0.10);
  EXPECT_EQ(zep->options().stream_id, "default");

  // Inline knobs win over the defaults and compose with toggles.
  auto knobbed = MakeStrategyByName("zeppelin+delta=0.02+capacity=8192", defaults);
  const auto* kz = dynamic_cast<const ZeppelinStrategy*>(knobbed.get());
  ASSERT_NE(kz, nullptr);
  EXPECT_DOUBLE_EQ(kz->options().planning.delta_replan_threshold, 0.02);
  EXPECT_EQ(kz->options().planning.token_capacity, 8192);

  auto streamed = MakeStrategyByName("zeppelin+zones+stream=decode-7", defaults);
  const auto* sz = dynamic_cast<const ZeppelinStrategy*>(streamed.get());
  ASSERT_NE(sz, nullptr);
  EXPECT_EQ(sz->options().stream_id, "decode-7");  // '-' allowed in knob values.
  EXPECT_TRUE(sz->options().planning.zone_aware_thresholds);
}

TEST(RegistryTest, MalformedKnobValuesAbort) {
  // The planner runs on the calling thread; there is no thread-count knob.
  EXPECT_DEATH(MakeStrategyByName("zeppelin+threads=4"), "unknown zeppelin modifier");
  EXPECT_DEATH(MakeStrategyByName("zeppelin+delta=x"), "bad numeric value");
  EXPECT_DEATH(MakeStrategyByName("zeppelin+delta="), "empty value");
  // Out-of-range values must fail the parse, not silently truncate.
  EXPECT_DEATH(MakeStrategyByName("zeppelin+capacity=1e19"), "capacity out of range");
}

TEST(RegistryTest, KnobbedStrategyPlansAndStreams) {
  const ClusterSpec cluster = MakeClusterA(2);
  const FabricResources fabric(cluster);
  const CostModel cost_model(MakeLlama3B(), cluster);
  Batch batch;
  batch.seq_lens = {32768, 16384, 8192, 8192, 4096, 4096};
  auto strategy = MakeStrategyByName("zeppelin+delta=0.5+stream=reg-test");
  strategy->PlanDelta(batch, BatchDelta{}, cost_model, fabric);
  TaskGraph g;
  strategy->EmitLayer(g, Direction::kForward);
  EXPECT_GT(g.size(), 0);
  EXPECT_NE(strategy->plan_handle(), nullptr);
}

TEST(RegistryTest, ClusterPresets) {
  EXPECT_EQ(MakeClusterByName("A", 2).nics_per_node, 4);
  EXPECT_EQ(MakeClusterByName("b", 2).nics_per_node, 8);
  EXPECT_EQ(MakeClusterByName("C", 3).num_nodes, 3);
  EXPECT_DEATH(MakeClusterByName("D", 1), "unknown cluster");
}

}  // namespace
}  // namespace zeppelin
