#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "src/data/batch_io.h"
#include "src/data/datasets.h"

namespace zeppelin {
namespace {

TEST(BatchIoTest, RoundTripsThroughText) {
  std::vector<Batch> batches(2);
  batches[0].seq_lens = {4096, 1024, 512};
  batches[1].seq_lens = {65536};
  const std::string text = BatchesToText(batches);
  const std::vector<Batch> parsed = BatchesFromText(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].seq_lens, batches[0].seq_lens);
  EXPECT_EQ(parsed[1].seq_lens, batches[1].seq_lens);
}

TEST(BatchIoTest, IgnoresCommentsAndBlankLines) {
  const std::string text = "# header\n\n100,200\n   \n# tail\n300\n";
  const std::vector<Batch> parsed = BatchesFromText(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].seq_lens, (std::vector<int64_t>{100, 200}));
  EXPECT_EQ(parsed[1].seq_lens, (std::vector<int64_t>{300}));
}

TEST(BatchIoTest, InlineCommentsStripped) {
  const auto parsed = BatchesFromText("128,256 # two small seqs\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].total_tokens(), 384);
}

TEST(BatchIoTest, MalformedInputAborts) {
  EXPECT_DEATH(BatchesFromText("12,abc\n"), "malformed");
  EXPECT_DEATH(BatchesFromText("0\n"), "non-positive");
}

TEST(BatchIoTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/zeppelin_batches." +
                           std::to_string(::getpid()) + ".txt";
  BatchSampler sampler(MakeGithubDistribution(), 65536, 5);
  std::vector<Batch> batches;
  for (int i = 0; i < 4; ++i) {
    batches.push_back(sampler.NextBatch());
  }
  ASSERT_TRUE(SaveBatches(path, batches));
  std::vector<Batch> loaded;
  ASSERT_TRUE(LoadBatches(path, &loaded));
  ASSERT_EQ(loaded.size(), batches.size());
  for (size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(loaded[i].seq_lens, batches[i].seq_lens);
  }
  std::remove(path.c_str());
}

TEST(BatchIoTest, MissingFileReturnsFalse) {
  std::vector<Batch> batches;
  EXPECT_FALSE(LoadBatches("/nonexistent/path/batches.txt", &batches));
}

}  // namespace
}  // namespace zeppelin
