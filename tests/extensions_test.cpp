// Tests for the library extensions beyond the paper's headline system:
// GQA models, MoE expert-parallel dispatch costs, and the zone-aware
// partitioner threshold initialization (design ablation D6).
#include <gtest/gtest.h>

#include "src/core/trainer.h"
#include "src/core/zeppelin.h"
#include "src/core/zones.h"
#include "src/data/datasets.h"
#include "src/model/transformer.h"

namespace zeppelin {
namespace {

TEST(GqaTest, PresetShape) {
  const TransformerConfig gqa = MakeLlama8BGqa();
  EXPECT_EQ(gqa.num_kv_heads, 8);
  EXPECT_EQ(gqa.kv_hidden(), 8 * 128);
  EXPECT_NEAR(static_cast<double>(gqa.NumParams()), 8.0e9, 0.8e9);
  EXPECT_EQ(ModelByName("8B-GQA").name, gqa.name);
}

TEST(GqaTest, QuartersRingAttentionTraffic) {
  const ClusterSpec cluster = MakeClusterA(2);
  const CostModel mha(MakeLlama7B(), cluster);
  const CostModel gqa(MakeLlama8BGqa(), cluster);
  EXPECT_EQ(gqa.KvBytesPerToken() * 4, mha.KvBytesPerToken());
}

TEST(GqaTest, ShrinksZoneBoundaries) {
  // Cheaper KV transfers mean even shorter sequences can hide their ring
  // communication: the local/intra zones shrink vs an MHA model of the same
  // compute scale.
  const ClusterSpec cluster = MakeClusterA(2);
  const CostModel mha(MakeLlama7B(), cluster);
  const CostModel gqa(MakeLlama8BGqa(), cluster);
  const ZoneBoundaries zb_mha = ZoneClassifier(mha).Compute();
  const ZoneBoundaries zb_gqa = ZoneClassifier(gqa).Compute();
  EXPECT_LE(zb_gqa.local_max, zb_mha.local_max);
  EXPECT_LE(zb_gqa.intra_max, zb_mha.intra_max);
}

TEST(GqaTest, EndToEndRuns) {
  const Trainer trainer(MakeLlama8BGqa(), MakeClusterA(2));
  ZeppelinStrategy zep;
  BatchSampler sampler(MakeGithubDistribution(), 65536, 3);
  const IterationResult r = trainer.Run(zep, sampler.NextBatch());
  EXPECT_GT(r.tokens_per_second, 0);
}

TEST(MoeDispatchTest, ExpertAllToAllChargedInLinearTime) {
  const ClusterSpec cluster = MakeClusterA(1);
  const TransformerConfig moe = MakeMoe8x550M();
  const CostModel moe_cm(moe, cluster);
  // A dense model with identical *active* FLOPs per token (2 experts' worth
  // of FFN) but no dispatch traffic.
  TransformerConfig dense = moe;
  dense.num_experts = 1;
  dense.experts_per_token = 1;
  dense.ffn_hidden = moe.ffn_hidden * 2;
  const CostModel dense_cm(dense, cluster);
  ASSERT_NEAR(moe_cm.LinearFlopsPerToken() / dense_cm.LinearFlopsPerToken(), 1.0, 0.01);
  // The MoE model's linear stage is strictly slower: it pays for the
  // dispatch/combine all-to-all.
  EXPECT_GT(moe_cm.LinearTime(8192), dense_cm.LinearTime(8192));
}

TEST(MoeDispatchTest, SingleGpuNodeHasNoDispatchCost) {
  ClusterSpec tiny = MakeClusterA(1);
  tiny.gpus_per_node = 1;
  tiny.gpu_to_nic = {0};
  const CostModel cm(MakeMoe8x550M(), tiny);
  TransformerConfig dense = MakeMoe8x550M();
  dense.num_experts = 1;
  dense.experts_per_token = 1;
  dense.ffn_hidden = MakeMoe8x550M().ffn_hidden * 2;
  const CostModel dense_cm(dense, tiny);
  // EP group of 1: all experts local, no all-to-all.
  EXPECT_NEAR(cm.LinearTime(4096), dense_cm.LinearTime(4096),
              dense_cm.LinearTime(4096) * 0.02);
}

TEST(ZoneAwareThresholdsTest, CapsAreApplied) {
  const ClusterSpec cluster = MakeClusterA(2);
  SequencePartitioner::Options opts;
  opts.token_capacity = 8192;
  opts.max_inter_threshold = 16384;
  opts.max_local_threshold = 2048;
  SequencePartitioner partitioner(cluster, opts);
  Batch batch;
  batch.seq_lens = {20480, 4096, 4096, 1024, 1024, 1024, 1024};
  const PartitionPlan plan = partitioner.Partition(batch);
  // 20480 >= 16384 (capped s1): inter-node even though it fits a node.
  ASSERT_EQ(plan.inter_node.size(), 1u);
  EXPECT_EQ(plan.inter_node[0].length, 20480);
  // 4096 >= 2048 (capped s0): intra rings; 1024 sequences stay local.
  EXPECT_EQ(plan.intra_node.size(), 2u);
  EXPECT_EQ(plan.local.size(), 4u);
  EXPECT_LE(plan.threshold_s1, 16384);
}

TEST(ZoneAwareThresholdsTest, ZeppelinOptionProducesDifferentPlan) {
  const ClusterSpec cluster = MakeClusterA(2);
  const FabricResources fabric(cluster);
  const CostModel cost_model(MakeLlama7B(), cluster);
  Batch batch;
  batch.seq_lens = {16384, 16384, 16384, 16384};

  ZeppelinStrategy plain;
  ZeppelinOptions zopts;
  zopts.planning.zone_aware_thresholds = true;
  ZeppelinStrategy zone_aware(zopts);
  plain.Plan(batch, cost_model, fabric);
  zone_aware.Plan(batch, cost_model, fabric);
  // Zone-aware init pushes these 16k sequences (above this fabric's ~12k
  // intra_max) into the z2 zone, where each gets a full-node ring (8 ranks);
  // capacity-driven thresholds fragment them into smaller intra rings.
  auto max_ring = [](const PartitionPlan& plan) {
    int g = 0;
    for (const auto& ring : plan.intra_node) {
      g = std::max(g, ring.group_size());
    }
    for (const auto& ring : plan.inter_node) {
      g = std::max(g, ring.group_size());
    }
    return g;
  };
  EXPECT_GT(max_ring(zone_aware.partition_plan()), max_ring(plain.partition_plan()));
}

TEST(ZoneAwareThresholdsTest, ConservesTokens) {
  const ClusterSpec cluster = MakeClusterA(4);
  const FabricResources fabric(cluster);
  const CostModel cost_model(MakeLlama7B(), cluster);
  BatchSampler sampler(MakeGithubDistribution(), 131072, 17);
  ZeppelinOptions zopts;
  zopts.planning.zone_aware_thresholds = true;
  for (int i = 0; i < 5; ++i) {
    const Batch batch = sampler.NextBatch();
    ZeppelinStrategy zep(zopts);
    zep.Plan(batch, cost_model, fabric);
    EXPECT_EQ(zep.partition_plan().total_tokens(), batch.total_tokens());
  }
}

}  // namespace
}  // namespace zeppelin
