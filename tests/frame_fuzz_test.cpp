// Seeded mutation fuzzing of the daemon's untrusted-input surface: the frame
// decoder (src/net/frame.h), the request/response payload parsers
// (src/net/wire.h), and the plan deserializer (src/core/plan_io.h). A corpus
// of valid frames and plan images — built from real encodes of real plans —
// is mutated with truncations, length-field lies, bit flips, garbage
// insertions, and frame splices, then fed through every parser in
// randomly-sized chunks. The invariant under ASAN and plain builds alike:
// no crash, no hang, every outcome a typed status, and the decoder's error
// latch (poisoned()) holds once tripped. Deterministic (fixed seed), so a
// failure reproduces byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/plan_io.h"
#include "src/core/plan_service.h"
#include "src/data/datasets.h"
#include "src/model/transformer.h"
#include "src/net/wire.h"
#include "src/obs/trace.h"
#include "src/topology/cluster.h"
#include "src/topology/path.h"

namespace zeppelin {
namespace net {
namespace {

constexpr uint64_t kFuzzSeed = 0xf0a2u;
constexpr int kFuzzIterations = 2000;

Batch SampleBatch(int num_seqs, uint64_t seed) {
  const LengthDistribution dist = DatasetByName("github");
  Rng rng(seed);
  Batch batch;
  batch.seq_lens.reserve(num_seqs);
  for (int i = 0; i < num_seqs; ++i) {
    batch.seq_lens.push_back(dist.Sample(rng));
  }
  return batch;
}

// Valid artifacts to mutate: framed requests (plain, session, delta +
// topology), framed responses (success with real plan bytes, error), and a
// bare SerializePlan image.
struct Corpus {
  std::vector<std::string> frames;
  std::string plan_bytes;

  Corpus() {
    WireRequest stateless;
    stateless.request_id = 7;
    stateless.batch = SampleBatch(64, 1);
    AppendRequestFrame(stateless, &frames.emplace_back());

    WireRequest session;
    session.request_id = 8;
    session.stream_id = "fuzz-stream";
    session.deadline_ms = 250;
    session.batch = SampleBatch(128, 2);
    session.delta.emplace();
    session.delta->removed = {1, 5};
    session.delta->resized = {{2, 777}};
    session.delta->added = {1234, 4321};
    session.topology.emplace();
    session.topology->removed_ranks = {3};
    session.topology->speed_factors = {{1, 0.5}};
    AppendRequestFrame(session, &frames.emplace_back());

    // A real plan: responses carry real SerializePlan images.
    const ClusterSpec cluster = MakeClusterA(2);
    FabricResources fabric(cluster);
    CostModel cost_model(MakeLlama3B(), cluster);
    PlannerService service;
    const Batch batch = SampleBatch(256, 3);
    PlanRequest plan_request;
    plan_request.batch = &batch;
    plan_request.cost_model = &cost_model;
    plan_request.fabric = &fabric;
    const PlanResponse planned = service.Plan(plan_request);
    plan_bytes = SerializePlan(*planned.plan);

    WireResponse ok;
    ok.request_id = 8;
    ok.stats = planned.stats;
    ok.digest = planned.digest;
    ok.plan_bytes = plan_bytes;
    AppendResponseFrame(ok, &frames.emplace_back());

    WireResponse error;
    error.request_id = 9;
    error.status = WireStatus::kBadDelta;
    error.message = "synthetic";
    AppendResponseFrame(error, &frames.emplace_back());

    // A cache-hit-shaped response: nonzero v2 stats fields (cache_outcome,
    // verified) so the mutation sweep reaches their bound checks.
    WireResponse hit = ok;
    hit.request_id = 10;
    hit.stats.cache_outcome = CacheOutcome::kHit;
    hit.stats.verified = true;
    hit.stats.partition_time_us = 0;
    hit.stats.materialize_time_us = 0;
    AppendResponseFrame(hit, &frames.emplace_back());

    // v3 surfaces: a kStats request, and a response whose stage block and
    // stats-JSON section are both populated, so the mutation sweep reaches
    // the stage_count / stage-latency / stats_len bound checks.
    WireRequest stats_request;
    stats_request.request_id = 12;
    stats_request.kind = RequestKind::kStats;
    AppendRequestFrame(stats_request, &frames.emplace_back());

    WireResponse stats_response;
    stats_response.request_id = 12;
    for (int i = 0; i < obs::kNumStages; ++i) {
      stats_response.stats.stage_us[i] = 10.0 * (i + 1);
    }
    stats_response.stats_json =
        "{\"schema\":\"zeppelin.metrics.v1\",\"counters\":{},\"gauges\":{},"
        "\"histograms\":{}}";
    AppendResponseFrame(stats_response, &frames.emplace_back());
  }
};

std::string Mutate(const std::string& base, Rng& rng) {
  std::string bytes = base;
  const int mutations = static_cast<int>(rng.NextInt(1, 4));
  for (int m = 0; m < mutations && !bytes.empty(); ++m) {
    switch (rng.NextBounded(5)) {
      case 0:  // Truncate at a random point.
        bytes.resize(rng.NextBounded(bytes.size() + 1));
        break;
      case 1: {  // Flip one bit.
        const size_t at = rng.NextBounded(bytes.size());
        bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.NextBounded(8)));
        break;
      }
      case 2: {  // Lie in a 4-byte little-endian field (incl. frame length).
        if (bytes.size() >= 12) {
          const size_t at = 8 + rng.NextBounded(4);
          bytes[at] = static_cast<char>(rng.NextBounded(256));
        }
        break;
      }
      case 3: {  // Overwrite a random run with garbage.
        const size_t at = rng.NextBounded(bytes.size());
        const size_t run = std::min<size_t>(bytes.size() - at, rng.NextBounded(16) + 1);
        for (size_t i = 0; i < run; ++i) {
          bytes[at + i] = static_cast<char>(rng.NextBounded(256));
        }
        break;
      }
      case 4: {  // Insert garbage at a random point.
        std::string garbage;
        const size_t len = rng.NextBounded(24) + 1;
        for (size_t i = 0; i < len; ++i) {
          garbage.push_back(static_cast<char>(rng.NextBounded(256)));
        }
        bytes.insert(rng.NextBounded(bytes.size() + 1), garbage);
        break;
      }
    }
  }
  return bytes;
}

// Drives a byte stream through the decoder in random chunks, parsing every
// decoded frame. All outcomes must be typed; the error latch must hold.
void PumpDecoder(const std::string& stream, Rng& rng) {
  FrameDecoder decoder(1u << 20);
  size_t fed = 0;
  while (fed < stream.size()) {
    const size_t chunk =
        std::min(stream.size() - fed, rng.NextBounded(4096) + 1);
    decoder.Feed(stream.data() + fed, chunk);
    fed += chunk;
    Frame frame;
    FrameStatus status;
    while ((status = decoder.Next(&frame)) == FrameStatus::kOk) {
      if (frame.type == FrameType::kRequest) {
        WireRequest request;
        std::string error;
        const WireStatus parsed = ParseRequest(frame.payload, &request, &error);
        ASSERT_TRUE(parsed == WireStatus::kOk ||
                    parsed == WireStatus::kMalformedRequest)
            << static_cast<int>(parsed);
      } else {
        WireResponse response;
        std::string error;
        const WireStatus parsed =
            ParseResponse(frame.type, frame.payload, &response, &error);
        ASSERT_TRUE(parsed == WireStatus::kOk ||
                    parsed == WireStatus::kMalformedRequest)
            << static_cast<int>(parsed);
      }
    }
    if (status != FrameStatus::kIncomplete) {
      // Poisoned: the latch must hold no matter what arrives next.
      ASSERT_TRUE(decoder.poisoned());
      decoder.Feed(stream.data(), std::min<size_t>(stream.size(), 16));
      ASSERT_EQ(decoder.Next(&frame), status);
      return;
    }
  }
}

TEST(FrameFuzzTest, ValidFramesSurviveAnyChunking) {
  const Corpus corpus;
  Rng rng(kFuzzSeed);
  // All corpus frames concatenated, fed byte-by-byte and in random chunks:
  // every frame decodes intact, in order, regardless of segmentation.
  std::string stream;
  for (const std::string& f : corpus.frames) {
    stream += f;
  }
  for (int round = 0; round < 20; ++round) {
    FrameDecoder decoder(1u << 20);
    size_t fed = 0;
    size_t decoded = 0;
    while (fed < stream.size()) {
      const size_t chunk = round == 0
                               ? 1
                               : std::min(stream.size() - fed,
                                          rng.NextBounded(512) + 1);
      decoder.Feed(stream.data() + fed, chunk);
      fed += chunk;
      Frame frame;
      while (decoder.Next(&frame) == FrameStatus::kOk) {
        ASSERT_LT(decoded, corpus.frames.size());
        // Frame payload must round-trip exactly.
        const std::string& original = corpus.frames[decoded];
        EXPECT_EQ(frame.payload, original.substr(kFrameHeaderBytes));
        ++decoded;
      }
      ASSERT_FALSE(decoder.poisoned());
    }
    EXPECT_EQ(decoded, corpus.frames.size());
  }
}

TEST(FrameFuzzTest, MutatedFramesNeverCrashAndFailTyped) {
  const Corpus corpus;
  Rng rng(kFuzzSeed);
  for (int it = 0; it < kFuzzIterations; ++it) {
    // One or two (possibly mutated) frames spliced into one stream: errors
    // anywhere must not crash, and parse failures must be typed.
    std::string stream = Mutate(corpus.frames[rng.NextBounded(corpus.frames.size())], rng);
    if (rng.NextBounded(3) == 0) {
      stream += corpus.frames[rng.NextBounded(corpus.frames.size())];
    }
    PumpDecoder(stream, rng);
  }
}

TEST(FrameFuzzTest, MutatedPlanBytesNeverCrashParsePlan) {
  const Corpus corpus;
  Rng rng(kFuzzSeed ^ 0x9e3779b97f4a7c15ull);
  int rejected = 0;
  for (int it = 0; it < kFuzzIterations; ++it) {
    const std::string bytes = Mutate(corpus.plan_bytes, rng);
    PartitionPlan plan;
    const PlanIoResult result = ParsePlan(bytes, &plan, 16);
    if (!result.ok()) {
      ++rejected;
    } else {
      // A mutation that still parses must be digest-authentic — only
      // possible when the mutations reassembled the original logical plan.
      EXPECT_EQ(SerializePlan(plan).size(), bytes.size());
    }
  }
  // The overwhelming majority of mutations must be caught by the typed
  // checks (magic, bounds, digest) — a permissive parser fails this.
  EXPECT_GT(rejected, kFuzzIterations * 9 / 10);
}

TEST(FrameFuzzTest, TruncationsOfEveryPrefixAreTyped) {
  const Corpus corpus;
  // Exhaustive truncation sweep of a request frame: every prefix either
  // decodes to fewer frames or reports kIncomplete — never a crash, never a
  // bogus frame.
  const std::string& frame_bytes = corpus.frames[1];
  for (size_t cut = 0; cut < frame_bytes.size(); ++cut) {
    FrameDecoder decoder(1u << 20);
    decoder.Feed(frame_bytes.data(), cut);
    Frame frame;
    const FrameStatus status = decoder.Next(&frame);
    EXPECT_EQ(status, FrameStatus::kIncomplete) << "cut at " << cut;
  }
  // And of the payload through ParseRequest: typed kMalformedRequest.
  const std::string payload = frame_bytes.substr(kFrameHeaderBytes);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    WireRequest request;
    std::string error;
    EXPECT_EQ(ParseRequest(std::string_view(payload).substr(0, cut), &request, &error),
              WireStatus::kMalformedRequest)
        << "cut at " << cut;
  }
}

TEST(FrameFuzzTest, CacheStatsBytesAreBoundChecked) {
  // The stats bytes cache_outcome and verified are single untrusted octets
  // with small valid ranges. Every in-range value must round-trip; every
  // out-of-range value must be a typed kMalformedRequest — never a crash,
  // never a silently-clamped parse.
  WireResponse ok;
  ok.request_id = 11;
  ok.status = WireStatus::kOk;
  ok.digest = 0xabcdef;
  ok.plan_bytes = "plan";
  const std::string payload = EncodeResponse(ok);
  // Empty message: fixed header is 4+8+1+4 = 17 bytes, the stats block's
  // engine/partition/materialize/delta/capacity/sessions span 1+8+8+1+8+8 =
  // 34 more, putting cache_outcome at 51 and verified at 52.
  const size_t cache_outcome_at = 17 + 34;
  const size_t verified_at = cache_outcome_at + 1;
  ASSERT_GT(payload.size(), verified_at);

  for (int value = 0; value < 256; ++value) {
    std::string patched = payload;
    patched[cache_outcome_at] = static_cast<char>(value);
    WireResponse parsed;
    std::string error;
    const WireStatus status =
        ParseResponse(FrameType::kResponse, patched, &parsed, &error);
    if (value <= static_cast<int>(CacheOutcome::kHit)) {
      ASSERT_EQ(status, WireStatus::kOk) << "cache_outcome " << value;
      EXPECT_EQ(parsed.stats.cache_outcome, static_cast<CacheOutcome>(value));
    } else {
      ASSERT_EQ(status, WireStatus::kMalformedRequest)
          << "cache_outcome " << value;
      EXPECT_NE(error.find("cache outcome"), std::string::npos) << error;
    }
  }

  for (int value = 0; value < 256; ++value) {
    std::string patched = payload;
    patched[verified_at] = static_cast<char>(value);
    WireResponse parsed;
    std::string error;
    const WireStatus status =
        ParseResponse(FrameType::kResponse, patched, &parsed, &error);
    if (value <= 1) {
      ASSERT_EQ(status, WireStatus::kOk) << "verified " << value;
      EXPECT_EQ(parsed.stats.verified, value == 1);
    } else {
      ASSERT_EQ(status, WireStatus::kMalformedRequest) << "verified " << value;
      EXPECT_NE(error.find("verified"), std::string::npos) << error;
    }
  }
}

// --- Retired wire values ------------------------------------------------------
//
// Option flag bits 2 and 3 once selected the naive and serial engines, and
// response engine bytes 0 and 1 named them. A clear bit 0 once asked for the
// global-ring layout, and engine byte 4 named it. The service no longer runs
// any of them, so every one of those values must decode as a typed
// kMalformedRequest rather than a request or response.

TEST(FrameFuzzTest, RetiredOptionFlagBitsAreMalformed) {
  WireRequest request;
  request.request_id = 31;
  request.batch.seq_lens = {128, 256, 512};
  const std::string payload = EncodeRequest(request);
  // version u32, kind u8, request_id u64, deadline u32, stream-id length u32
  // (empty id) -> the option flags byte sits at 21.
  const size_t flags_at = 4 + 1 + 8 + 4 + 4;
  ASSERT_EQ(static_cast<uint8_t>(payload[flags_at]), 1u) << "bit 0 (always set) only";

  for (int value = 0; value < 256; ++value) {
    std::string patched = payload;
    patched[flags_at] = static_cast<char>(value);
    WireRequest parsed;
    std::string error;
    const WireStatus status = ParseRequest(patched, &parsed, &error);
    if (value == 1 || value == 3) {  // Bit 0 (required) and bit 1 (zone-aware).
      ASSERT_EQ(status, WireStatus::kOk) << "flags " << value << ": " << error;
      EXPECT_EQ(parsed.options.zone_aware_thresholds, (value & 2) != 0);
    } else if (value == 0 || value == 2) {
      ASSERT_EQ(status, WireStatus::kMalformedRequest) << "flags " << value;
      EXPECT_NE(error.find("global-ring"), std::string::npos) << error;
    } else {
      ASSERT_EQ(status, WireStatus::kMalformedRequest) << "flags " << value;
      EXPECT_NE(error.find("unknown option flag bits"), std::string::npos) << error;
    }
  }
}

TEST(FrameFuzzTest, RetiredEngineBytesAreRejected) {
  WireResponse ok;
  ok.request_id = 32;
  ok.status = WireStatus::kOk;
  ok.digest = 0xabcdef;
  ok.plan_bytes = "plan";
  const std::string payload = EncodeResponse(ok);
  // Empty message: the stats block, engine byte first, starts after the
  // 17-byte fixed header.
  const size_t engine_at = 17;
  ASSERT_EQ(static_cast<uint8_t>(payload[engine_at]),
            static_cast<uint8_t>(PlanEngine::kParallelSharded));

  for (int value = 0; value < 256; ++value) {
    std::string patched = payload;
    patched[engine_at] = static_cast<char>(value);
    WireResponse parsed;
    std::string error;
    const WireStatus status = ParseResponse(FrameType::kResponse, patched, &parsed, &error);
    if (value == static_cast<int>(PlanEngine::kParallelSharded) ||
        value == static_cast<int>(PlanEngine::kDeltaPatch) ||
        value == static_cast<int>(PlanEngine::kAdopted)) {
      ASSERT_EQ(status, WireStatus::kOk) << "engine " << value << ": " << error;
      EXPECT_EQ(parsed.stats.engine, static_cast<PlanEngine>(value));
    } else {
      ASSERT_EQ(status, WireStatus::kMalformedRequest) << "engine " << value;
      EXPECT_NE(error.find("unknown plan engine"), std::string::npos) << error;
    }
  }
}

// --- v3 tail: stage block + stats-JSON section -------------------------------
//
// Fixed offsets for a success response with an empty message and 4-byte plan:
// header 17, stats block 34 (engine..sessions), cache_outcome@51, verified@52,
// queue_wait f64@53, digest u64@61, plan_len u64@69, plan@77..80, then the v3
// tail: stage_count u8@81, kNumStages f64s @82..153, stats_len u32@154.

void PatchF64(std::string* payload, size_t at, double v) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    (*payload)[at + i] = static_cast<char>((bits >> (8 * i)) & 0xff);
  }
}

void PatchU32(std::string* payload, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*payload)[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

WireResponse MakeV3Ok() {
  WireResponse ok;
  ok.request_id = 11;
  ok.status = WireStatus::kOk;
  ok.digest = 0xabcdef;
  ok.plan_bytes = "plan";
  for (int i = 0; i < obs::kNumStages; ++i) {
    ok.stats.stage_us[i] = 10.0 * (i + 1);
  }
  return ok;
}

constexpr size_t kStageCountAt = 81;
constexpr size_t kStagesAt = kStageCountAt + 1;
constexpr size_t kStatsLenAt = kStagesAt + 8 * obs::kNumStages;

TEST(FrameFuzzTest, StageCountByteIsBoundChecked) {
  const std::string payload = EncodeResponse(MakeV3Ok());
  ASSERT_GT(payload.size(), kStatsLenAt);
  ASSERT_EQ(static_cast<unsigned char>(payload[kStageCountAt]),
            obs::kNumStages);

  for (int value = 0; value < 256; ++value) {
    std::string patched = payload;
    patched[kStageCountAt] = static_cast<char>(value);
    WireResponse parsed;
    std::string error;
    const WireStatus status =
        ParseResponse(FrameType::kResponse, patched, &parsed, &error);
    if (value == obs::kNumStages) {
      ASSERT_EQ(status, WireStatus::kOk);
      EXPECT_DOUBLE_EQ(parsed.stats.stage_us[0], 10.0);
      EXPECT_DOUBLE_EQ(parsed.stats.stage_us[obs::kNumStages - 1], 90.0);
    } else if (value > static_cast<int>(kMaxWireStages)) {
      // A count over the hard cap is a typed error before any stage reads.
      ASSERT_EQ(status, WireStatus::kMalformedRequest) << "count " << value;
      EXPECT_NE(error.find("stage count"), std::string::npos) << error;
    } else {
      // A lying-but-capped count misaligns the rest of the tail: the parse
      // must land on some typed error (truncation, latency, stats length,
      // trailing bytes) — never a crash, never a silent success.
      ASSERT_EQ(status, WireStatus::kMalformedRequest) << "count " << value;
      EXPECT_FALSE(error.empty()) << "count " << value;
    }
  }
}

TEST(FrameFuzzTest, StageLatencyBytesAreBoundChecked) {
  const std::string payload = EncodeResponse(MakeV3Ok());
  const double bad[] = {-1.0, -1e-9, std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (int stage = 0; stage < obs::kNumStages; ++stage) {
    for (double v : bad) {
      std::string patched = payload;
      PatchF64(&patched, kStagesAt + 8 * stage, v);
      WireResponse parsed;
      std::string error;
      ASSERT_EQ(ParseResponse(FrameType::kResponse, patched, &parsed, &error),
                WireStatus::kMalformedRequest)
          << "stage " << stage << " value " << v;
      EXPECT_NE(error.find("stage latency"), std::string::npos) << error;
    }
  }
  // In-range extremes stay accepted: zero and a huge-but-finite latency.
  for (double v : {0.0, 1e12}) {
    std::string patched = payload;
    PatchF64(&patched, kStagesAt, v);
    WireResponse parsed;
    std::string error;
    ASSERT_EQ(ParseResponse(FrameType::kResponse, patched, &parsed, &error),
              WireStatus::kOk)
        << error;
    EXPECT_DOUBLE_EQ(parsed.stats.stage_us[0], v);
  }
}

TEST(FrameFuzzTest, StatsJsonLengthIsBoundChecked) {
  WireResponse ok = MakeV3Ok();
  ok.stats_json = "{\"schema\":\"zeppelin.metrics.v1\"}";
  const std::string payload = EncodeResponse(ok);

  WireResponse parsed;
  std::string error;
  ASSERT_EQ(ParseResponse(FrameType::kResponse, payload, &parsed, &error),
            WireStatus::kOk)
      << error;
  EXPECT_EQ(parsed.stats_json, ok.stats_json);

  // A length lying past the end, and one past the 1 MiB cap: typed errors.
  for (uint32_t lie :
       {static_cast<uint32_t>(ok.stats_json.size() + 1), 0xffffffffu,
        kMaxWireStatsJsonBytes + 1}) {
    std::string patched = payload;
    PatchU32(&patched, kStatsLenAt, lie);
    WireResponse out;
    std::string err;
    ASSERT_EQ(ParseResponse(FrameType::kResponse, patched, &out, &err),
              WireStatus::kMalformedRequest)
        << "stats_len " << lie;
    EXPECT_NE(err.find("stats json"), std::string::npos) << err;
  }
  // A length lying short leaves trailing bytes — also typed, never ignored.
  std::string patched = payload;
  PatchU32(&patched, kStatsLenAt,
           static_cast<uint32_t>(ok.stats_json.size() - 1));
  WireResponse out;
  std::string err;
  EXPECT_EQ(ParseResponse(FrameType::kResponse, patched, &out, &err),
            WireStatus::kMalformedRequest);
  EXPECT_FALSE(err.empty());
}

TEST(FrameFuzzTest, V3TailTruncationAndByteSweepNeverCrash) {
  WireResponse ok = MakeV3Ok();
  ok.stats_json = "{\"schema\":\"zeppelin.metrics.v1\"}";
  const std::string payload = EncodeResponse(ok);

  // Every truncation point inside the v3 tail is a typed error: the tail is
  // mandatory, so a frame that stops mid-tail is corrupt.
  for (size_t cut = kStageCountAt; cut < payload.size(); ++cut) {
    WireResponse out;
    std::string err;
    ASSERT_EQ(ParseResponse(FrameType::kResponse, payload.substr(0, cut), &out,
                            &err),
              WireStatus::kMalformedRequest)
        << "cut " << cut;
    EXPECT_FALSE(err.empty()) << "cut " << cut;
  }

  // Exhaustive single-byte sweep over the tail: every (offset, value) parses
  // to a typed status with no crash and no missing error message.
  for (size_t at = kStageCountAt; at < payload.size(); ++at) {
    for (int value = 0; value < 256; ++value) {
      std::string patched = payload;
      patched[at] = static_cast<char>(value);
      WireResponse out;
      std::string err;
      const WireStatus status =
          ParseResponse(FrameType::kResponse, patched, &out, &err);
      if (status != WireStatus::kOk) {
        ASSERT_EQ(status, WireStatus::kMalformedRequest)
            << "at " << at << " value " << value;
        ASSERT_FALSE(err.empty()) << "at " << at << " value " << value;
      }
    }
  }
}


// --- Golden frame pins --------------------------------------------------------
//
// The FNV-1a of whole request and response frames, recorded from the
// element-wise encoders. Every field a frame carries is fixed below (no
// timings), so any encoder rewrite must reproduce every byte. A pin that
// moves means the wire changed (which needs a kWireVersion bump) or, for the
// two plan responses, that the planner's output changed. Print the
// current values in table syntax with
//   ZEPPELIN_GOLDEN_PRINT=1 ./frame_fuzz_test --gtest_filter='*Golden*'

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

struct FramePin {
  const char* name;
  size_t bytes;
  uint64_t fnv;
};

// clang-format off
constexpr FramePin kFramePins[] = {
    {"request/stateless", 2104, 0xeb651abb6991ea8fULL},
    {"request/session", 1681, 0x302e41855e589271ULL},
    {"request/ping", 56, 0xfe31f0c074325712ULL},
    {"request/stats", 56, 0xf1fd19b6f3129d2cULL},
    {"response/stateless", 4478, 0x472569e7693d7953ULL},
    {"response/session", 6146, 0xc6c080bf24d45a61ULL},
    {"response/error", 68, 0x84c9a520c8ac05dcULL},
    {"response/ping", 166, 0xf725f1b776da0e38ULL},
    {"response/stats", 262, 0x1ef3fdb856ce548fULL},
};
// clang-format on

// Fixed, non-zero stats so every stats field reaches the pinned bytes.
PlanStats PinnedStats(const PlanResponse& planned, uint64_t sessions) {
  PlanStats stats = planned.stats;
  stats.partition_time_us = 812.25;
  stats.materialize_time_us = 37.5;
  stats.session_count = sessions;
  stats.cache_outcome = sessions == 0 ? CacheOutcome::kMiss : CacheOutcome::kBypass;
  stats.verified = true;
  for (int i = 0; i < obs::kNumStages; ++i) {
    stats.stage_us[i] = 1.5 * (i + 1);
  }
  return stats;
}

// The pinned requests and the planned responses they get, by name.
struct GoldenWire {
  std::vector<std::pair<std::string, WireRequest>> requests;
  std::vector<std::pair<std::string, WireResponse>> responses;

  GoldenWire() {
    const ClusterSpec cluster = MakeClusterA(2);
    FabricResources fabric(cluster);
    CostModel cost_model(MakeLlama3B(), cluster);
    PlannerService service;

    WireRequest stateless;
    stateless.request_id = 41;
    stateless.batch = SampleBatch(256, 0x901d);
    stateless.options.token_capacity = 1 << 20;
    requests.emplace_back("request/stateless", stateless);

    // A session's second request: a batch delta plus fabric churn.
    const Batch first = SampleBatch(192, 0x5e55);
    BatchDelta delta;
    delta.removed = {1, 5};
    delta.resized = {{2, 777}};
    delta.added = {1234, 4321};
    Batch second = first;
    ApplyBatchDelta(delta, &second);
    TopologyDelta topology;
    topology.removed_ranks = {3};
    topology.speed_factors = {{1, 0.5}};
    WireRequest session;
    session.request_id = 42;
    session.deadline_ms = 250;
    session.stream_id = "golden-stream";
    session.options.zone_aware_thresholds = true;
    session.options.delta_replan_threshold = 0.125;
    session.batch = second;
    session.delta = delta;
    session.topology = topology;
    requests.emplace_back("request/session", session);

    WireRequest ping;
    ping.request_id = 43;
    ping.kind = RequestKind::kPing;
    requests.emplace_back("request/ping", ping);

    WireRequest stats;
    stats.request_id = 44;
    stats.kind = RequestKind::kStats;
    requests.emplace_back("request/stats", stats);

    PlanRequest plan_request;
    plan_request.batch = &stateless.batch;
    plan_request.cost_model = &cost_model;
    plan_request.fabric = &fabric;
    plan_request.options = stateless.options;
    const PlanResponse stateless_plan = service.Plan(plan_request);
    EXPECT_EQ(stateless_plan.status, PlanStatus::kOk) << stateless_plan.error;
    WireResponse stateless_response;
    stateless_response.request_id = 41;
    stateless_response.stats = PinnedStats(stateless_plan, 0);
    stateless_response.queue_wait_us = 12.75;
    stateless_response.digest = stateless_plan.digest;
    stateless_response.plan_bytes = SerializePlan(*stateless_plan.plan);
    responses.emplace_back("response/stateless", stateless_response);

    PlanRequest open;
    open.batch = &first;
    open.cost_model = &cost_model;
    open.fabric = &fabric;
    open.options = session.options;
    open.stream_id = session.stream_id;
    EXPECT_EQ(service.Plan(open).status, PlanStatus::kOk);
    PlanRequest next = open;
    next.batch = &session.batch;
    next.delta = &*session.delta;
    next.topology = &*session.topology;
    const PlanResponse session_plan = service.Plan(next);
    EXPECT_EQ(session_plan.status, PlanStatus::kOk) << session_plan.error;
    WireResponse session_response;
    session_response.request_id = 42;
    session_response.stats = PinnedStats(session_plan, 1);
    session_response.digest = session_plan.digest;
    session_response.plan_bytes = SerializePlan(*session_plan.plan);
    responses.emplace_back("response/session", session_response);

    WireResponse error;
    error.request_id = 45;
    error.status = WireStatus::kBadDelta;
    error.message = "delta removes slot 9 of an 8-slot batch";
    responses.emplace_back("response/error", error);

    WireResponse pong;
    pong.request_id = 43;
    responses.emplace_back("response/ping", pong);

    WireResponse stats_response;
    stats_response.request_id = 44;
    stats_response.stats.session_count = 1;
    stats_response.stats_json =
        "{\"schema\":\"zeppelin.metrics.v1\",\"counters\":{\"daemon.requests_ok\":2},"
        "\"gauges\":{},\"histograms\":{}}";
    responses.emplace_back("response/stats", stats_response);
  }
};

TEST(FrameFuzzTest, GoldenFramesAreByteIdentical) {
  const GoldenWire wire;
  std::vector<std::pair<std::string, std::string>> frames;
  for (const auto& [name, request] : wire.requests) {
    AppendRequestFrame(request, &frames.emplace_back(name, "").second);
  }
  for (const auto& [name, response] : wire.responses) {
    AppendResponseFrame(response, &frames.emplace_back(name, "").second);
  }
  if (std::getenv("ZEPPELIN_GOLDEN_PRINT") != nullptr) {
    for (const auto& [name, bytes] : frames) {
      std::printf("    {\"%s\", %zu, 0x%016" PRIx64 "ULL},\n", name.c_str(), bytes.size(),
                  Fnv1a(bytes));
    }
  }
  ASSERT_EQ(frames.size(), std::size(kFramePins));
  for (size_t i = 0; i < frames.size(); ++i) {
    const auto& [name, bytes] = frames[i];
    SCOPED_TRACE(name);
    EXPECT_EQ(name, kFramePins[i].name);
    EXPECT_EQ(bytes.size(), kFramePins[i].bytes);
    EXPECT_EQ(Fnv1a(bytes), kFramePins[i].fnv);
  }
}

TEST(FrameFuzzTest, FramesAroundAStoredImageMatchThePinnedFrames) {
  // The daemon's one path for a served plan: a fresh header and stage block
  // around the image the plan cache encoded, sent as three parts, must be
  // the pinned frame.
  const GoldenWire wire;
  int framed = 0;
  for (const auto& [name, response] : wire.responses) {
    if (response.plan_bytes.empty()) {
      continue;  // Serves no plan.
    }
    SCOPED_TRACE(name);
    ++framed;
    WireResponse header = response;
    header.plan_bytes.clear();
    std::string head;
    std::string tail;
    FrameResponseAroundImage(header, response.plan_bytes.size(), &head, &tail);
    std::string reference;
    AppendResponseFrame(response, &reference);
    EXPECT_EQ(head + response.plan_bytes + tail, reference);
  }
  EXPECT_EQ(framed, 2);  // The stateless and the session plan responses.
}

}  // namespace
}  // namespace net
}  // namespace zeppelin
