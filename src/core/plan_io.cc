#include "src/core/plan_io.h"

#include <cstdio>
#include <cstring>
#include <limits>

#include "src/common/le_codec.h"

namespace zeppelin {
namespace {

using namespace le_codec;

// Per-record wire sizes (see docs/PLAN_FORMAT.md, "Wire format").
constexpr size_t kRingRecordBytes = 4 + 8 + 4 + 4 + 4;  // seq_id, length, zone, offset, count.
constexpr size_t kLocalRecordBytes = 4 + 8 + 4;         // seq_id, length, rank.
constexpr size_t kPreambleBytes = 4 + 4;                // magic + version.
constexpr size_t kCountsBytes = 6 * 8;                  // Six section counts.
constexpr size_t kTrailerBytes = 8;                     // StateDigest.

PlanIoResult Fail(PlanIoStatus status, std::string message) {
  return PlanIoResult{.status = status, .message = std::move(message)};
}

}  // namespace

const char* PlanIoStatusName(PlanIoStatus status) {
  switch (status) {
    case PlanIoStatus::kOk:
      return "ok";
    case PlanIoStatus::kIoError:
      return "io-error";
    case PlanIoStatus::kBadMagic:
      return "bad-magic";
    case PlanIoStatus::kBadVersion:
      return "bad-version";
    case PlanIoStatus::kTruncated:
      return "truncated";
    case PlanIoStatus::kCorrupt:
      return "corrupt";
    case PlanIoStatus::kDigestMismatch:
      return "digest-mismatch";
    case PlanIoStatus::kRankUniverse:
      return "rank-universe";
  }
  return "unknown";
}

std::string SerializePlan(const PartitionPlan& plan) {
  std::string out;
  out.reserve(kPreambleBytes + kCountsBytes + 8 +
              kRingRecordBytes * (plan.inter_node.size() + plan.intra_node.size()) +
              kLocalRecordBytes * plan.local.size() + 4 * plan.rank_arena.size() +
              8 * (plan.tokens_per_rank.size() + plan.threshold_s0.size()) + kTrailerBytes);

  out.append(kPlanMagic, 4);
  PutU32(&out, kPlanFormatVersion);
  PutU64(&out, plan.inter_node.size());
  PutU64(&out, plan.intra_node.size());
  PutU64(&out, plan.local.size());
  PutU64(&out, plan.rank_arena.size());
  PutU64(&out, plan.tokens_per_rank.size());
  PutU64(&out, plan.threshold_s0.size());
  PutI64(&out, plan.threshold_s1);

  auto put_queue = [&out](const std::vector<RingRef>& queue) {
    for (const RingRef& ring : queue) {
      PutI32(&out, ring.seq_id);
      PutI64(&out, ring.length);
      PutU32(&out, static_cast<uint32_t>(ring.zone));
      PutU32(&out, ring.rank_offset);
      PutU32(&out, ring.rank_count);
    }
  };
  put_queue(plan.inter_node);
  put_queue(plan.intra_node);
  for (const LocalSequence& seq : plan.local) {
    PutI32(&out, seq.seq_id);
    PutI64(&out, seq.length);
    PutI32(&out, seq.rank);
  }
  for (int rank : plan.rank_arena) {
    PutI32(&out, rank);
  }
  for (int64_t tokens : plan.tokens_per_rank) {
    PutI64(&out, tokens);
  }
  for (int64_t s0 : plan.threshold_s0) {
    PutI64(&out, s0);
  }
  PutU64(&out, plan.StateDigest());
  return out;
}

PlanIoResult ParsePlan(std::string_view bytes, PartitionPlan* plan, int max_world) {
  Reader in{reinterpret_cast<const unsigned char*>(bytes.data()), bytes.size()};
  if (!in.Have(kPreambleBytes)) {
    return Fail(PlanIoStatus::kTruncated, "input shorter than the preamble");
  }
  if (std::memcmp(in.data, kPlanMagic, 4) != 0) {
    return Fail(PlanIoStatus::kBadMagic, "input does not start with the ZPLN magic");
  }
  in.pos += 4;
  const uint32_t version = in.GetU32();
  if (version != kPlanFormatVersion) {
    return Fail(PlanIoStatus::kBadVersion,
                "unsupported plan format version " + std::to_string(version) + " (expected " +
                    std::to_string(kPlanFormatVersion) + ")");
  }
  if (!in.Have(kCountsBytes + 8)) {
    return Fail(PlanIoStatus::kTruncated, "input ends inside the section counts");
  }
  const uint64_t inter_count = in.GetU64();
  const uint64_t intra_count = in.GetU64();
  const uint64_t local_count = in.GetU64();
  const uint64_t arena_count = in.GetU64();
  const uint64_t tokens_count = in.GetU64();
  const uint64_t s0_count = in.GetU64();
  const int64_t threshold_s1 = in.GetI64();

  // Rank-universe gate: a structurally valid, digest-authentic plan for a
  // *bigger* fabric must still be refused before any rank of it reaches the
  // target cluster — checked first, on the declared universe, so even a
  // truncated oversized plan reports the real problem.
  if (max_world > 0 && tokens_count > static_cast<uint64_t>(max_world)) {
    return Fail(PlanIoStatus::kRankUniverse,
                "plan targets " + std::to_string(tokens_count) +
                    " ranks but the fabric has " + std::to_string(max_world));
  }

  // Bound every count before allocating: the payload size is the authority,
  // so a corrupted (huge) count reads as truncation, never as a giant
  // resize. The cap is chosen so the `expected` sum below cannot wrap uint64
  // (6 counts x 24 bytes/record x 2^48 ≈ 2^55.2 << 2^64) — without it,
  // counts near 2^60 could overflow `expected` into exactly `remaining` and
  // reach the resize calls with exabyte element counts.
  const uint64_t remaining = bytes.size() - in.pos;
  constexpr uint64_t kCountCap = uint64_t{1} << 48;
  if (inter_count > kCountCap || intra_count > kCountCap || local_count > kCountCap ||
      arena_count > kCountCap || tokens_count > kCountCap || s0_count > kCountCap) {
    return Fail(PlanIoStatus::kTruncated, "section count exceeds any representable payload");
  }
  const uint64_t expected = kRingRecordBytes * (inter_count + intra_count) +
                            kLocalRecordBytes * local_count + 4 * arena_count +
                            8 * (tokens_count + s0_count) + kTrailerBytes;
  if (remaining < expected) {
    return Fail(PlanIoStatus::kTruncated,
                "sections declare " + std::to_string(expected) + " bytes but only " +
                    std::to_string(remaining) + " remain");
  }
  if (remaining > expected) {
    return Fail(PlanIoStatus::kCorrupt, "input carries " +
                                            std::to_string(remaining - expected) +
                                            " trailing bytes past the trailer");
  }

  *plan = PartitionPlan{};
  plan->threshold_s1 = threshold_s1;
  auto get_queue = [&in, arena_count](std::vector<RingRef>* queue, uint64_t count,
                                      const char* name) -> PlanIoResult {
    queue->resize(count);
    for (RingRef& ring : *queue) {
      ring.seq_id = in.GetI32();
      ring.length = in.GetI64();
      const uint32_t zone = in.GetU32();
      if (zone > static_cast<uint32_t>(Zone::kInterNode)) {
        return Fail(PlanIoStatus::kCorrupt,
                    std::string(name) + " header carries unknown zone tag " +
                        std::to_string(zone));
      }
      ring.zone = static_cast<Zone>(zone);
      ring.rank_offset = in.GetU32();
      ring.rank_count = in.GetU32();
      if (static_cast<uint64_t>(ring.rank_offset) + ring.rank_count > arena_count) {
        return Fail(PlanIoStatus::kCorrupt, std::string(name) + " header span [" +
                                                std::to_string(ring.rank_offset) + ", +" +
                                                std::to_string(ring.rank_count) +
                                                ") exceeds the arena");
      }
    }
    return PlanIoResult{};
  };
  PlanIoResult r = get_queue(&plan->inter_node, inter_count, "inter_node");
  if (!r.ok()) {
    return r;
  }
  r = get_queue(&plan->intra_node, intra_count, "intra_node");
  if (!r.ok()) {
    return r;
  }
  // Rank values must address the rank universe the plan itself declares
  // (tokens_per_rank has one entry per global rank). Without this check a
  // file with a correctly computed digest but bogus ranks would parse as
  // "structurally valid" and drive EmitLayer out of bounds. An empty
  // tokens section (hand-built partial plans) carries no universe to check
  // against.
  const auto rank_in_bounds = [tokens_count](int rank) {
    return tokens_count == 0 ||
           (rank >= 0 && static_cast<uint64_t>(rank) < tokens_count);
  };
  plan->local.resize(local_count);
  for (LocalSequence& seq : plan->local) {
    seq.seq_id = in.GetI32();
    seq.length = in.GetI64();
    seq.rank = in.GetI32();
    if (!rank_in_bounds(seq.rank)) {
      return Fail(PlanIoStatus::kCorrupt, "local sequence rank " + std::to_string(seq.rank) +
                                              " outside the plan's " +
                                              std::to_string(tokens_count) + "-rank universe");
    }
  }
  plan->rank_arena.resize(arena_count);
  for (int& rank : plan->rank_arena) {
    rank = in.GetI32();
    if (!rank_in_bounds(rank)) {
      return Fail(PlanIoStatus::kCorrupt, "arena rank " + std::to_string(rank) +
                                              " outside the plan's " +
                                              std::to_string(tokens_count) + "-rank universe");
    }
  }
  plan->tokens_per_rank.resize(tokens_count);
  for (int64_t& tokens : plan->tokens_per_rank) {
    tokens = in.GetI64();
  }
  plan->threshold_s0.resize(s0_count);
  for (int64_t& s0 : plan->threshold_s0) {
    s0 = in.GetI64();
  }

  const uint64_t stored_digest = in.GetU64();
  const uint64_t actual_digest = plan->StateDigest();
  if (stored_digest != actual_digest) {
    return Fail(PlanIoStatus::kDigestMismatch, "decoded plan digests to a different value than "
                                               "the trailer — the payload was altered");
  }
  PlanIoResult authenticated;
  authenticated.digest = actual_digest;
  return authenticated;
}

PlanIoResult SavePlanFile(const std::string& path, const PartitionPlan& plan) {
  const std::string bytes = SerializePlan(plan);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Fail(PlanIoStatus::kIoError, "cannot open " + path + " for writing");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !closed) {
    return Fail(PlanIoStatus::kIoError, "short write to " + path);
  }
  return PlanIoResult{};
}

PlanIoResult LoadPlanFile(const std::string& path, PartitionPlan* plan, int max_world) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Fail(PlanIoStatus::kIoError, "cannot open " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Fail(PlanIoStatus::kIoError, "read error on " + path);
  }
  return ParsePlan(bytes, plan, max_world);
}

// PartitionPlan wire-format members (declared in partitioner.h, implemented
// here so the plan type itself stays free of I/O includes).
std::string PartitionPlan::Serialize() const { return SerializePlan(*this); }

bool PartitionPlan::Deserialize(std::string_view bytes, int max_world) {
  return ParsePlan(bytes, this, max_world).ok();
}

}  // namespace zeppelin
