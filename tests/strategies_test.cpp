#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "src/baselines/hybrid_dp.h"
#include "src/baselines/llama_cp.h"
#include "src/baselines/packing.h"
#include "src/baselines/te_cp.h"
#include "src/core/zeppelin.h"
#include "src/data/datasets.h"
#include "src/model/transformer.h"
#include "src/sim/engine.h"

namespace zeppelin {
namespace {

class StrategiesTest : public ::testing::Test {
 protected:
  StrategiesTest()
      : fabric_(MakeClusterA(2)),
        cost_model_(MakeLlama7B(), fabric_.cluster()),
        sim_(fabric_) {}

  static Batch MakeBatch(std::vector<int64_t> lens) {
    Batch b;
    b.seq_lens = std::move(lens);
    return b;
  }

  double RunLayer(Strategy& strategy, const Batch& batch, Direction direction) {
    strategy.Plan(batch, cost_model_, fabric_);
    TaskGraph g;
    strategy.EmitLayer(g, direction);
    return sim_.Run(g).makespan_us;
  }

  std::vector<std::unique_ptr<Strategy>> AllStrategies() {
    std::vector<std::unique_ptr<Strategy>> out;
    out.push_back(std::make_unique<TeCpStrategy>());
    out.push_back(std::make_unique<LlamaCpStrategy>());
    out.push_back(std::make_unique<HybridDpStrategy>());
    out.push_back(std::make_unique<PackingUlyssesStrategy>());
    out.push_back(std::make_unique<ZeppelinStrategy>());
    return out;
  }

  FabricResources fabric_;
  CostModel cost_model_;
  Engine sim_;
};

TEST_F(StrategiesTest, AllStrategiesConserveLinearTokens) {
  const Batch batch = MakeBatch({32768, 16384, 8192, 4096, 2048, 1024, 512, 512});
  for (auto& strategy : AllStrategies()) {
    strategy->Plan(batch, cost_model_, fabric_);
    const auto tokens = strategy->LinearTokensPerRank();
    const int64_t total = std::accumulate(tokens.begin(), tokens.end(), int64_t{0});
    EXPECT_EQ(total, batch.total_tokens()) << strategy->name();
  }
}

TEST_F(StrategiesTest, AllStrategiesProduceRunnableGraphs) {
  const Batch batch = MakeBatch({32768, 16384, 8192, 4096, 2048, 1024, 512, 512});
  for (auto& strategy : AllStrategies()) {
    for (const Direction d : {Direction::kForward, Direction::kBackward}) {
      const double makespan = RunLayer(*strategy, batch, d);
      EXPECT_GT(makespan, 0) << strategy->name();
    }
  }
}

TEST_F(StrategiesTest, AllStrategiesAreDeterministic) {
  const Batch batch = MakeBatch({16384, 16384, 8192, 8192, 8192, 4096, 2048, 2048});
  for (auto& strategy : AllStrategies()) {
    const double a = RunLayer(*strategy, batch, Direction::kForward);
    const double b = RunLayer(*strategy, batch, Direction::kForward);
    EXPECT_DOUBLE_EQ(a, b) << strategy->name();
  }
}

TEST_F(StrategiesTest, BackwardIsSlowerThanForward) {
  const Batch batch = MakeBatch({32768, 16384, 8192, 4096, 2048, 1024, 1024});
  for (auto& strategy : AllStrategies()) {
    const double f = RunLayer(*strategy, batch, Direction::kForward);
    const double b = RunLayer(*strategy, batch, Direction::kBackward);
    EXPECT_GT(b, f) << strategy->name();
  }
}

TEST_F(StrategiesTest, ZeppelinBeatsTeCpOnShortSequenceBatch) {
  // Many short sequences: TE CP pays ring communication for every one of
  // them; Zeppelin keeps them local.
  std::vector<int64_t> lens(32, 2048);
  const Batch batch = MakeBatch(lens);
  TeCpStrategy te;
  ZeppelinStrategy zep;
  const double te_time = RunLayer(te, batch, Direction::kForward);
  const double zep_time = RunLayer(zep, batch, Direction::kForward);
  EXPECT_LT(zep_time, te_time);
}

TEST_F(StrategiesTest, ZeppelinBeatsTeCpOnSingleLongSequence) {
  // One 64k sequence: both must go inter-node, but Zeppelin's routing layer
  // spreads the boundary hop over all NICs.
  const Batch batch = MakeBatch({65536});
  TeCpStrategy te;
  ZeppelinStrategy zep;
  const double te_time = RunLayer(te, batch, Direction::kForward);
  const double zep_time = RunLayer(zep, batch, Direction::kForward);
  EXPECT_LT(zep_time, te_time);
}

TEST_F(StrategiesTest, RoutingAblationMatters) {
  const Batch batch = MakeBatch({65536});
  ZeppelinOptions with;
  ZeppelinOptions without;
  without.routing.enabled = false;
  ZeppelinStrategy zep_with(with);
  ZeppelinStrategy zep_without(without);
  EXPECT_LT(RunLayer(zep_with, batch, Direction::kForward),
            RunLayer(zep_without, batch, Direction::kForward));
}

TEST_F(StrategiesTest, RemappingHelpsLinearStageOnSkewedBatch) {
  // Skewed batch: attention-optimal layout leaves token counts imbalanced;
  // remapping balances the (dominant) linear stage.
  std::vector<int64_t> lens = {49152};
  int64_t rest = 65536 - 49152;
  while (rest > 0) {
    lens.push_back(std::min<int64_t>(1024, rest));
    rest -= lens.back();
  }
  const Batch batch = MakeBatch(lens);
  ZeppelinOptions with;
  ZeppelinOptions without;
  without.remapping.enabled = false;
  ZeppelinStrategy zep_with(with);
  ZeppelinStrategy zep_without(without);
  const double t_with = RunLayer(zep_with, batch, Direction::kForward);
  const double t_without = RunLayer(zep_without, batch, Direction::kForward);
  EXPECT_LE(t_with, t_without * 1.02);  // Never meaningfully worse...
  zep_with.Plan(batch, cost_model_, fabric_);
  // ...and the linear layout it produces is genuinely balanced.
  const auto tokens = zep_with.LinearTokensPerRank();
  const auto [min_it, max_it] = std::minmax_element(tokens.begin(), tokens.end());
  EXPECT_LE(*max_it - *min_it, 1);
}

TEST_F(StrategiesTest, HybridDpCreatesMicroBatchesForShortSeqs) {
  // A long sequence forces CP groups; masses of shorts overflow the DP
  // ranks' capacity and split into micro-batches.
  std::vector<int64_t> lens = {32768};
  int64_t rest = 65536 - 32768;
  while (rest > 0) {
    lens.push_back(std::min<int64_t>(512, rest));
    rest -= lens.back();
  }
  HybridDpStrategy hybrid;
  hybrid.Plan(MakeBatch(lens), cost_model_, fabric_);
  EXPECT_GT(hybrid.num_cp_groups(), 0);
  EXPECT_GT(hybrid.num_micro_batches(), 0);
}

TEST_F(StrategiesTest, PackingReportsRedundantFlops) {
  PackingUlyssesStrategy packing;
  packing.Plan(MakeBatch({8192, 4096, 4096, 2048, 2048, 1024, 1024, 512, 512, 9216}),
               cost_model_, fabric_);
  EXPECT_GT(packing.plan_info().redundant_flops, 0);
  EXPECT_GT(packing.plan_info().useful_flops, packing.plan_info().redundant_flops);
}

TEST_F(StrategiesTest, PackSequencesRespectsCapacity) {
  const auto info = PackSequences({10000, 3000, 3000, 2000, 2000}, 4, 5000, cost_model_);
  ASSERT_EQ(info.packs.size(), 4u);
  for (const auto& pack : info.packs) {
    const int64_t tokens = std::accumulate(pack.begin(), pack.end(), int64_t{0});
    EXPECT_LE(tokens, 5000);
  }
}

TEST_F(StrategiesTest, Fig3PackingAnalysisShortBinsAreCommDominated) {
  const CostModel cm(MakeLlama7B(), MakeClusterA(2));
  const auto bins = AnalyzePackingCosts(MakeStackExchangeDistribution(), cm, 16, 65536,
                                        /*num_batches=*/20, /*seed=*/3);
  // StackExchange: overwhelmingly short sequences; their overhead share
  // (communication + redundant) dominates their useful compute (Fig. 3a).
  const auto& b0 = bins[0];  // <1k bin.
  EXPECT_GT(b0.communication + b0.redundant, b0.computation);
}

TEST_F(StrategiesTest, Fig3EvenSplitLongBinsAreComputeDominated) {
  const CostModel cm(MakeLlama7B(), MakeClusterA(2));
  const auto bins = AnalyzeEvenSplitCosts(MakeArxivDistribution(), cm, 16, 65536, 20, 3);
  // 16-32k bin: quadratic compute dwarfs linear communication (Fig. 3b).
  const auto& b_long = bins[5];
  EXPECT_GT(b_long.computation, b_long.communication);
  // <1k bin: the opposite.
  const auto& b_short = bins[0];
  EXPECT_GT(b_short.communication, b_short.computation);
}

TEST(ZeppelinLayerBoundTest, BoundCoversEveryEmittedLayer) {
  // EmitLayer reserves LayerBound up front; an emitted layer that outgrew it
  // would regrow the graph's columns mid-emit.
  std::vector<ZeppelinOptions> variants(5);
  variants[1].routing.enabled = false;
  variants[2].remapping.enabled = false;
  variants[3].engine.forward_order = QueueOrder::kLocalIntraInter;
  variants[4].routing.max_proxies = 2;
  for (const ClusterSpec& cluster : {MakeClusterA(2), MakeClusterB(2), MakeClusterA(8)}) {
    const FabricResources fabric(cluster);
    const CostModel cost_model(MakeLlama7B(), cluster);
    for (const LengthDistribution& dist : {MakeGithubDistribution(), MakeArxivDistribution()}) {
      BatchSampler sampler(dist, int64_t{4096} * cluster.world_size(), /*seed=*/3);
      const Batch batch = sampler.NextBatch();
      for (size_t v = 0; v < variants.size(); ++v) {
        ZeppelinStrategy zep(variants[v]);
        zep.Plan(batch, cost_model, fabric);
        for (const Direction d : {Direction::kForward, Direction::kBackward}) {
          SCOPED_TRACE(dist.name() + " variant " + std::to_string(v) + " " +
                       std::to_string(cluster.world_size()) + " GPUs " +
                       (d == Direction::kForward ? "fwd" : "bwd"));
          const GraphSize bound = zep.LayerBound(d);
          TaskGraph g;
          zep.EmitLayer(g, d);
          EXPECT_LE(g.size(), bound.tasks);
          EXPECT_LE(static_cast<int64_t>(g.dep_ids().size()), bound.deps);
          EXPECT_LE(static_cast<int64_t>(g.resource_ids().size()), bound.resources);
        }
      }
    }
  }
}

}  // namespace
}  // namespace zeppelin
