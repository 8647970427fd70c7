// Plan wire format (src/core/plan_io.h): byte-identical round trips across
// all three planner engines, digest authentication, and defensive rejection
// of malformed inputs (bad magic/version, truncation anywhere, corrupted
// headers, altered payloads, trailing garbage).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/delta_planner.h"
#include "src/core/partitioner.h"
#include "src/core/plan_io.h"
#include "src/data/datasets.h"
#include "src/data/stream.h"
#include "src/topology/cluster.h"

namespace zeppelin {
namespace {

Batch SampleBatch(int num_seqs, uint64_t seed, const char* dataset = "github") {
  const LengthDistribution dist = DatasetByName(dataset);
  Rng rng(seed);
  Batch batch;
  batch.seq_lens.reserve(num_seqs);
  for (int i = 0; i < num_seqs; ++i) {
    batch.seq_lens.push_back(dist.Sample(rng));
  }
  return batch;
}

// Small S on a large cluster puts github's 64-256k tail above the local
// threshold, and the two explicit multi-node-length heads above node
// capacity — so the plan carries inter-node AND intra-node rings (not just
// locals), exercising every wire section.
Batch RingHeavyBatch(int num_seqs, uint64_t seed, const char* dataset = "github") {
  Batch batch = SampleBatch(num_seqs, seed, dataset);
  batch.seq_lens.insert(batch.seq_lens.begin(), {1500000, 1400000});
  return batch;
}

PartitionPlan MakePlan(const Batch& batch, const ClusterSpec& cluster, bool naive = false) {
  const int64_t world = cluster.world_size();
  const int64_t average = (batch.total_tokens() + world - 1) / world;
  SequencePartitioner partitioner(
      cluster, SequencePartitioner::Options{.token_capacity = average + average / 4});
  return naive ? partitioner.PartitionNaive(batch) : partitioner.Partition(batch);
}

// Round-trip contract: ParsePlan(SerializePlan(p)) == p (operator==, i.e.
// byte-identity including arena offsets), the digest survives, and
// re-serialization reproduces the exact byte string.
void CheckRoundTrip(const PartitionPlan& plan) {
  const std::string bytes = SerializePlan(plan);
  PartitionPlan decoded;
  const PlanIoResult result = ParsePlan(bytes, &decoded);
  ASSERT_TRUE(result.ok()) << PlanIoStatusName(result.status) << ": " << result.message;
  EXPECT_TRUE(decoded == plan);
  EXPECT_EQ(decoded.StateDigest(), plan.StateDigest());
  EXPECT_EQ(SerializePlan(decoded), bytes);
}

TEST(PlanIoTest, RoundTripAcrossOracleAndEngine) {
  const ClusterSpec cluster = MakeClusterA(16);
  const Batch batch = RingHeavyBatch(512, 0x5eed);

  const PartitionPlan naive = MakePlan(batch, cluster, /*naive=*/true);
  const PartitionPlan engine = MakePlan(batch, cluster);

  // The paths agree (the planner contract), so one wire image serves both.
  ASSERT_TRUE(naive == engine);
  CheckRoundTrip(naive);
  CheckRoundTrip(engine);
  EXPECT_EQ(SerializePlan(naive), SerializePlan(engine));
}

TEST(PlanIoTest, RoundTripEmptyAndTinyPlans) {
  CheckRoundTrip(PartitionPlan{});

  PartitionPlan tiny;
  tiny.tokens_per_rank = {128, 0};
  tiny.threshold_s1 = 4096;
  tiny.threshold_s0 = {512};
  tiny.local.push_back({0, 128, 0});
  const std::vector<int> ring = {0, 1};
  tiny.AddRing(tiny.intra_node, 1, 96, Zone::kIntraNode, ring);
  CheckRoundTrip(tiny);
}

// A plan after 20 delta patches of 2% churn. `*patched` reports whether any
// delta was applied in place.
PartitionPlan DeltaPatchedPlan(bool* patched) {
  const ClusterSpec cluster = MakeClusterA(2);
  Batch batch = SampleBatch(1024, 0xabc);
  const int64_t world = cluster.world_size();
  const int64_t average = (batch.total_tokens() + world - 1) / world;
  DeltaPlanner dp(cluster,
                  DeltaPlannerOptions{.token_capacity = average + average / 4,
                                      .replan_threshold = 0.5});
  dp.Rebase(batch);
  WorkloadStream stream(DatasetByName("github"), batch, StreamOptions{.churn_fraction = 0.02},
                        0xfeed);
  *patched = false;
  for (int i = 0; i < 20; ++i) {
    *patched = dp.Apply(stream.Next()) == DeltaOutcome::kApplied || *patched;
  }
  return dp.plan();
}

TEST(PlanIoTest, RoundTripPlanWithArenaSlack) {
  // Every planner emits a tight arena, but the format only requires spans
  // in bounds: arena slots no ring references must travel verbatim too.
  const ClusterSpec cluster = MakeClusterA(16);
  PartitionPlan plan = MakePlan(RingHeavyBatch(512, 0x51ac), cluster);
  ASSERT_FALSE(plan.intra_node.empty());
  for (int rank = 0; rank < cluster.world_size(); rank += 9) {
    plan.rank_arena.push_back(rank);
  }
  CheckRoundTrip(plan);
}

TEST(PlanIoTest, RejectsBadMagicAndVersion) {
  const PartitionPlan plan = MakePlan(SampleBatch(256, 1), MakeClusterA(2));
  std::string bytes = SerializePlan(plan);
  PartitionPlan decoded;

  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_EQ(ParsePlan(wrong_magic, &decoded).status, PlanIoStatus::kBadMagic);

  std::string wrong_version = bytes;
  wrong_version[4] = static_cast<char>(kPlanFormatVersion + 1);
  EXPECT_EQ(ParsePlan(wrong_version, &decoded).status, PlanIoStatus::kBadVersion);

  EXPECT_EQ(ParsePlan(std::string_view(), &decoded).status, PlanIoStatus::kTruncated);
  EXPECT_EQ(ParsePlan("ZP", &decoded).status, PlanIoStatus::kTruncated);
}

TEST(PlanIoTest, RejectsTruncationAtEveryBoundary) {
  const PartitionPlan plan = MakePlan(SampleBatch(512, 2), MakeClusterA(2));
  const std::string bytes = SerializePlan(plan);
  PartitionPlan decoded;
  // Chop inside the counts, inside the headers, inside the arena, and just
  // before the trailer — every prefix must read as truncation, never OOB.
  for (const size_t keep : {size_t{12}, size_t{40}, size_t{80}, bytes.size() / 2,
                            bytes.size() - 9, bytes.size() - 1}) {
    ASSERT_LT(keep, bytes.size());
    EXPECT_EQ(ParsePlan(std::string_view(bytes).substr(0, keep), &decoded).status,
              PlanIoStatus::kTruncated)
        << "prefix of " << keep << " bytes";
  }
}

TEST(PlanIoTest, RejectsCorruptedHeaderSpan) {
  const PartitionPlan plan = MakePlan(RingHeavyBatch(512, 3), MakeClusterA(16));
  ASSERT_FALSE(plan.intra_node.empty());
  std::string bytes = SerializePlan(plan);
  // First intra_node header's rank_offset lives right after the inter_node
  // queue: preamble(8) + counts(48) + s1(8) + inter headers, then
  // seq_id(4) + length(8) + zone(4) = offset 16 into the record.
  const size_t ring_record = 24;
  const size_t offset_pos = 8 + 48 + 8 + plan.inter_node.size() * ring_record + 16;
  const uint32_t huge = 0x7fffffff;
  std::memcpy(bytes.data() + offset_pos, &huge, sizeof(huge));
  PartitionPlan decoded;
  const PlanIoResult result = ParsePlan(bytes, &decoded);
  EXPECT_EQ(result.status, PlanIoStatus::kCorrupt);
  EXPECT_NE(result.message.find("exceeds the arena"), std::string::npos) << result.message;
}

TEST(PlanIoTest, RejectsAlteredPayloadViaDigest) {
  const PartitionPlan plan = MakePlan(RingHeavyBatch(512, 4), MakeClusterA(16));
  ASSERT_FALSE(plan.rank_arena.empty());
  std::string bytes = SerializePlan(plan);
  // Flip one arena rank (structurally valid — ranks are not bounds-checked
  // against the world size by the parser): only the digest trailer can
  // catch it.
  const size_t ring_record = 24;
  const size_t local_record = 16;
  const size_t arena_pos = 8 + 48 + 8 +
                           (plan.inter_node.size() + plan.intra_node.size()) * ring_record +
                           plan.local.size() * local_record;
  bytes[arena_pos] = static_cast<char>(bytes[arena_pos] ^ 0x1);
  PartitionPlan decoded;
  EXPECT_EQ(ParsePlan(bytes, &decoded).status, PlanIoStatus::kDigestMismatch);

  // Same for a token count deep in the payload.
  std::string bytes2 = SerializePlan(plan);
  bytes2[bytes2.size() - 9 - 8 * plan.threshold_s0.size()] ^= 0x40;
  EXPECT_EQ(ParsePlan(bytes2, &decoded).status, PlanIoStatus::kDigestMismatch);
}

TEST(PlanIoTest, RejectsOutOfUniverseRanks) {
  // Not tampering: the producer re-serializes after planting a bogus rank,
  // so the digest trailer matches — only the rank-universe check (against
  // the plan's own tokens_per_rank count) can reject it before it drives
  // EmitLayer out of bounds.
  PartitionPlan plan = MakePlan(RingHeavyBatch(512, 9), MakeClusterA(16));
  ASSERT_FALSE(plan.rank_arena.empty());
  PartitionPlan decoded;

  PartitionPlan bad_arena = plan;
  bad_arena.rank_arena[0] = 9999;
  PlanIoResult result = ParsePlan(SerializePlan(bad_arena), &decoded);
  EXPECT_EQ(result.status, PlanIoStatus::kCorrupt);
  EXPECT_NE(result.message.find("rank universe"), std::string::npos) << result.message;

  PartitionPlan bad_local = plan;
  ASSERT_FALSE(bad_local.local.empty());
  bad_local.local[0].rank = -1;
  EXPECT_EQ(ParsePlan(SerializePlan(bad_local), &decoded).status, PlanIoStatus::kCorrupt);
}

TEST(PlanIoTest, RejectsTrailingGarbage) {
  const PartitionPlan plan = MakePlan(SampleBatch(256, 5), MakeClusterA(2));
  std::string bytes = SerializePlan(plan);
  bytes += "extra";
  PartitionPlan decoded;
  EXPECT_EQ(ParsePlan(bytes, &decoded).status, PlanIoStatus::kCorrupt);
}

TEST(PlanIoTest, RejectsHugeCountsWithoutAllocating) {
  // A corrupted count field must read as truncation (payload is the
  // authority), not drive a giant resize.
  std::string bytes = SerializePlan(MakePlan(SampleBatch(64, 6), MakeClusterA(1)));
  const uint64_t huge = ~uint64_t{0} / 4;
  std::memcpy(bytes.data() + 8 + 24, &huge, sizeof(huge));  // arena_count slot.
  PartitionPlan decoded;
  EXPECT_EQ(ParsePlan(bytes, &decoded).status, PlanIoStatus::kTruncated);
}

TEST(PlanIoTest, FileRoundTripAndIoErrors) {
  const PartitionPlan plan = MakePlan(SampleBatch(512, 7), MakeClusterB(2));
  const std::string path = ::testing::TempDir() + "/plan_io_test." +
                           std::to_string(::getpid()) + ".zpln";
  ASSERT_TRUE(SavePlanFile(path, plan).ok());
  PartitionPlan loaded;
  const PlanIoResult result = LoadPlanFile(path, &loaded);
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_TRUE(loaded == plan);
  std::remove(path.c_str());

  EXPECT_EQ(LoadPlanFile(path + ".does-not-exist", &loaded).status, PlanIoStatus::kIoError);
}


// --- Golden byte pins ---------------------------------------------------------
//
// The FNV-1a of every SerializePlan image below, recorded from the
// element-wise encoder. An encoder rewrite must reproduce every byte. A pin
// that moves means the format changed (which needs a kPlanFormatVersion
// bump) or, for the planned images, that the planner's output changed.
// Print the current values in table syntax with
//   ZEPPELIN_GOLDEN_PRINT=1 ./plan_io_test --gtest_filter='*Golden*'

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

struct ImagePin {
  const char* name;
  size_t bytes;
  uint64_t fnv;
};

// clang-format off
constexpr ImagePin kImagePins[] = {
    {"oracle/github", 10928, 0xf5d47c8acb07ab12ULL},
    {"engine/github", 10928, 0xf5d47c8acb07ab12ULL},
    {"oracle/arxiv", 10008, 0x3d86de7eb8e63c03ULL},
    {"engine/arxiv", 10008, 0x3d86de7eb8e63c03ULL},
    {"oracle/fineweb", 10208, 0xfbaf5451d3cdc816ULL},
    {"engine/fineweb", 10208, 0xfbaf5451d3cdc816ULL},
    {"delta-patched", 16600, 0xd2ef6352b37c834bULL},
    {"empty", 72, 0x243e12be67f62445ULL},
    {"no-tokens", 192, 0xf5ffe8fd0cc81413ULL},
};
// clang-format on

std::vector<std::pair<std::string, PartitionPlan>> GoldenPlans() {
  std::vector<std::pair<std::string, PartitionPlan>> plans;
  const ClusterSpec cluster = MakeClusterA(16);
  for (const char* dataset : {"github", "arxiv", "fineweb"}) {
    const Batch batch = RingHeavyBatch(512, 0x901d, dataset);
    plans.emplace_back(std::string("oracle/") + dataset,
                       MakePlan(batch, cluster, /*naive=*/true));
    plans.emplace_back(std::string("engine/") + dataset,
                       MakePlan(batch, cluster));
  }
  bool patched = false;
  plans.emplace_back("delta-patched", DeltaPatchedPlan(&patched));
  EXPECT_TRUE(patched);
  plans.emplace_back("empty", PartitionPlan{});
  // Hand-built partial plan: rings and locals but no tokens section.
  PartitionPlan no_tokens;
  no_tokens.threshold_s1 = 2048;
  no_tokens.threshold_s0 = {256, 512};
  no_tokens.local.push_back({0, 300, 5});
  no_tokens.local.push_back({2, 0, 1});
  no_tokens.AddRing(no_tokens.inter_node, 1, 9000, Zone::kInterNode,
                    std::vector<int>{8, 9, 10, 11});
  no_tokens.AddRing(no_tokens.intra_node, 3, 1200, Zone::kIntraNode, std::vector<int>{2, 3});
  plans.emplace_back("no-tokens", std::move(no_tokens));
  return plans;
}

TEST(PlanIoTest, GoldenImagesAreByteIdentical) {
  const auto plans = GoldenPlans();
  if (std::getenv("ZEPPELIN_GOLDEN_PRINT") != nullptr) {
    for (const auto& [name, plan] : plans) {
      const std::string bytes = SerializePlan(plan);
      std::printf("    {\"%s\", %zu, 0x%016" PRIx64 "ULL},\n", name.c_str(), bytes.size(),
                  Fnv1a(bytes));
    }
  }
  ASSERT_EQ(plans.size(), std::size(kImagePins));
  for (size_t i = 0; i < plans.size(); ++i) {
    const auto& [name, plan] = plans[i];
    const std::string bytes = SerializePlan(plan);
    SCOPED_TRACE(name);
    EXPECT_EQ(name, kImagePins[i].name);
    EXPECT_EQ(bytes.size(), kImagePins[i].bytes);
    EXPECT_EQ(Fnv1a(bytes), kImagePins[i].fnv);
    // A decoded image re-serializes to the same bytes.
    PartitionPlan decoded;
    ASSERT_TRUE(ParsePlan(bytes, &decoded).ok());
    EXPECT_EQ(SerializePlan(decoded), bytes);
  }
}

}  // namespace
}  // namespace zeppelin
