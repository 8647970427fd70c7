// Unit tests for request-path tracing (src/obs/trace.h): thread-local
// binding semantics, span accumulation and overflow, the Chrome-trace sink,
// and the rate-limited slow-request log.
#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace zeppelin {
namespace obs {
namespace {

TEST(TraceTest, StageNamesDistinctAndStable) {
  for (int i = 0; i < kNumStages; ++i) {
    const std::string name_i = StageName(static_cast<Stage>(i));
    EXPECT_FALSE(name_i.empty());
    EXPECT_NE(name_i, "unknown");
    for (int j = i + 1; j < kNumStages; ++j) {
      EXPECT_NE(name_i, StageName(static_cast<Stage>(j)));
    }
  }
  // Wire-stable indices (PlanStats::stage_us is indexed by these on v3).
  EXPECT_STREQ(StageName(Stage::kQueueWait), "queue_wait");
  EXPECT_STREQ(StageName(Stage::kPlan), "plan");
  EXPECT_STREQ(StageName(Stage::kWrite), "write");
  EXPECT_EQ(static_cast<int>(Stage::kQueueWait), 0);
  EXPECT_EQ(kNumStages, 9);
}

TEST(TraceTest, ScopeIsNoopWhenUnbound) {
  ASSERT_EQ(CurrentTrace(), nullptr);
  // No binding: scopes must not crash, allocate a context, or record
  // anywhere. (This is the whole-library default for direct callers.)
  {
    TraceScope scope(Stage::kPlan);
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
}

TEST(TraceTest, BindingNestsAndRestores) {
  TraceContext outer;
  TraceContext inner;
  ASSERT_EQ(CurrentTrace(), nullptr);
  {
    TraceBinding bind_outer(&outer);
    EXPECT_EQ(CurrentTrace(), &outer);
    {
      TraceBinding bind_inner(&inner);
      EXPECT_EQ(CurrentTrace(), &inner);
      TraceScope scope(Stage::kVerify);
    }
    EXPECT_EQ(CurrentTrace(), &outer);
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
  EXPECT_EQ(inner.span_count, 1);
  EXPECT_EQ(outer.span_count, 0);
}

TEST(TraceTest, BindingIsPerThread) {
  TraceContext ctx;
  TraceBinding binding(&ctx);
  TraceContext* seen_on_other_thread = &ctx;
  std::thread([&] { seen_on_other_thread = CurrentTrace(); }).join();
  EXPECT_EQ(seen_on_other_thread, nullptr);
  EXPECT_EQ(CurrentTrace(), &ctx);
}

TEST(TraceTest, ScopeAccumulatesStageTotals) {
  TraceContext ctx;
  TraceBinding binding(&ctx);
  {
    TraceScope scope(Stage::kPlan);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    TraceScope scope(Stage::kPlan);
  }
  EXPECT_EQ(ctx.span_count, 2);
  EXPECT_GE(ctx.stage_us[static_cast<int>(Stage::kPlan)], 1000.0);
  EXPECT_EQ(ctx.stage_us[static_cast<int>(Stage::kVerify)], 0.0);
}

TEST(TraceTest, SpanOverflowDropsSpansButKeepsTotals) {
  TraceContext ctx;
  const int extra = 5;
  for (int i = 0; i < TraceContext::kMaxSpans + extra; ++i) {
    ctx.AddSpan(Stage::kDecode, static_cast<double>(i), 1.0);
  }
  EXPECT_EQ(ctx.span_count, TraceContext::kMaxSpans);
  EXPECT_EQ(ctx.dropped_spans, extra);
  // The per-stage totals never drop, only the span list is bounded.
  EXPECT_DOUBLE_EQ(ctx.stage_us[static_cast<int>(Stage::kDecode)],
                   TraceContext::kMaxSpans + extra);
}

TEST(TraceSinkTest, DrainAndFlushWritesChromeTrace) {
  const std::string path = ::testing::TempDir() + "/obs_trace_test." +
                           std::to_string(::getpid()) + ".json";
  TraceSink sink(path);
  TraceContext ctx;
  ctx.request_id = 7;
  ctx.lane = 3;
  ctx.AddSpan(Stage::kDecode, 10.0, 5.0);
  ctx.AddSpan(Stage::kPlan, 15.0, 100.0);
  sink.Drain(ctx);
  EXPECT_EQ(sink.event_count(), 2u);
  ASSERT_TRUE(sink.Flush());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_NE(json.find("\"decode\""), std::string::npos);
  EXPECT_NE(json.find("\"plan\""), std::string::npos);
  EXPECT_NE(json.find("\"request\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(SlowRequestLogTest, ThresholdRingAndRateLimit) {
  SlowRequestLog log(/*threshold_us=*/1000.0, /*capacity=*/2);
  TraceContext fast;
  fast.request_id = 1;
  log.Observe(fast, 500.0);  // Below threshold: ignored entirely.
  EXPECT_EQ(log.observed(), 0u);
  EXPECT_TRUE(log.entries().empty());

  TraceContext slow;
  slow.request_id = 2;
  slow.stage_us[static_cast<int>(Stage::kQueueWait)] = 300.0;
  slow.stage_us[static_cast<int>(Stage::kPlan)] = 900.0;
  log.Observe(slow, 1500.0);
  ASSERT_EQ(log.entries().size(), 1u);
  EXPECT_EQ(log.entries()[0].request_id, 2u);
  EXPECT_EQ(log.entries()[0].slowest_stage, Stage::kPlan);
  EXPECT_DOUBLE_EQ(log.entries()[0].slowest_stage_us, 900.0);

  // Ring of 2: the third slow request evicts the oldest, oldest-first order.
  for (uint64_t id : {3u, 4u}) {
    TraceContext ctx;
    ctx.request_id = id;
    log.Observe(ctx, 2000.0);
  }
  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].request_id, 3u);
  EXPECT_EQ(entries[1].request_id, 4u);
  EXPECT_EQ(log.observed(), 3u);
  // Three slow observations inside one second: the 1 Hz stderr limiter let
  // the first through and ate the rest.
  EXPECT_EQ(log.suppressed_logs(), 2u);
}

}  // namespace
}  // namespace obs
}  // namespace zeppelin
