#include "src/core/plan_io.h"

#include <cstdio>
#include <cstring>
#include <span>

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

namespace {

// The exact length of SerializePlan(plan).
size_t SerializedPlanSize(const PartitionPlan& plan) {
  return kPreambleBytes + kCountsBytes + 8 +
         kRingRecordBytes * (plan.inter_node.size() + plan.intra_node.size()) +
         kLocalRecordBytes * plan.local.size() + 4 * plan.rank_arena.size() +
         8 * (plan.tokens_per_rank.size() + plan.threshold_s0.size()) + kTrailerBytes;
}

void SerializePlanInto(const PartitionPlan& plan, uint64_t digest, char* out) {
  Writer w(out);
  w.Bytes(kPlanMagic, 4);
  w.U32(kPlanFormatVersion);
  w.U64(plan.inter_node.size());
  w.U64(plan.intra_node.size());
  w.U64(plan.local.size());
  w.U64(plan.rank_arena.size());
  w.U64(plan.tokens_per_rank.size());
  w.U64(plan.threshold_s0.size());
  w.I64(plan.threshold_s1);

  // Records carry padding in memory, so they go field by field; the arrays
  // below are bulk copies.
  auto put_queue = [&w](const std::vector<RingRef>& queue) {
    for (const RingRef& ring : queue) {
      w.I32(ring.seq_id);
      w.I64(ring.length);
      w.U32(static_cast<uint32_t>(ring.zone));
      w.U32(ring.rank_offset);
      w.U32(ring.rank_count);
    }
  };
  put_queue(plan.inter_node);
  put_queue(plan.intra_node);
  for (const LocalSequence& seq : plan.local) {
    w.I32(seq.seq_id);
    w.I64(seq.length);
    w.I32(seq.rank);
  }
  w.Array(std::span<const int>(plan.rank_arena));
  w.Array(std::span<const int64_t>(plan.tokens_per_rank));
  w.Array(std::span<const int64_t>(plan.threshold_s0));
  w.U64(digest);
}

}  // namespace

std::string SerializePlan(const PartitionPlan& plan) {
  std::string out(SerializedPlanSize(plan), '\0');
  SerializePlanInto(plan, plan.StateDigest(), out.data());
  return out;
}

PlanImage PlanImage::Encode(const PartitionPlan& plan, uint64_t digest) {
  const size_t size = SerializedPlanSize(plan);
  std::shared_ptr<char[]> bytes = std::make_shared_for_overwrite<char[]>(size);
  SerializePlanInto(plan, digest, bytes.get());
  return PlanImage(std::move(bytes), size);
}

PlanIoResult ParsePlan(std::string_view bytes, PartitionPlan* plan, int max_world) {
  Reader in(bytes);
  if (!in.Have(kPreambleBytes)) {
    return Fail(PlanIoStatus::kTruncated, "input shorter than the preamble");
  }
  if (in.GetBytes(4) != std::string_view(kPlanMagic, 4)) {
    return Fail(PlanIoStatus::kBadMagic, "input does not start with the ZPLN magic");
  }
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
  const uint64_t remaining = in.remaining();
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
  // The record loops decode through `rec`, a copy of the cursor written back
  // after them: GCC keeps a fresh local cursor in registers, but reloads `in`
  // around every field store (twice the decode time on a 6k-local plan).
  Reader rec = in;
  const struct {
    std::vector<RingRef>* queue;
    uint64_t count;
    const char* name;
  } queues[] = {{&plan->inter_node, inter_count, "inter_node"},
                {&plan->intra_node, intra_count, "intra_node"}};
  for (const auto& [queue, count, name] : queues) {
    queue->resize(count);
    for (RingRef& ring : *queue) {
      ring.seq_id = rec.GetI32();
      ring.length = rec.GetI64();
      const uint32_t zone = rec.GetU32();
      if (zone > static_cast<uint32_t>(Zone::kInterNode)) {
        return Fail(PlanIoStatus::kCorrupt,
                    std::string(name) + " header carries unknown zone tag " +
                        std::to_string(zone));
      }
      ring.zone = static_cast<Zone>(zone);
      ring.rank_offset = rec.GetU32();
      ring.rank_count = rec.GetU32();
      if (static_cast<uint64_t>(ring.rank_offset) + ring.rank_count > arena_count) {
        return Fail(PlanIoStatus::kCorrupt, std::string(name) + " header span [" +
                                                std::to_string(ring.rank_offset) + ", +" +
                                                std::to_string(ring.rank_count) +
                                                ") exceeds the arena");
      }
    }
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
    seq.seq_id = rec.GetI32();
    seq.length = rec.GetI64();
    seq.rank = rec.GetI32();
    if (!rank_in_bounds(seq.rank)) {
      return Fail(PlanIoStatus::kCorrupt, "local sequence rank " + std::to_string(seq.rank) +
                                              " outside the plan's " +
                                              std::to_string(tokens_count) + "-rank universe");
    }
  }
  in = rec;
  // The arrays arrive in bulk; the arena's ranks are range-checked after.
  plan->rank_arena.resize(arena_count);
  in.GetArray(std::span<int>(plan->rank_arena));
  for (const int rank : plan->rank_arena) {
    if (!rank_in_bounds(rank)) {
      return Fail(PlanIoStatus::kCorrupt, "arena rank " + std::to_string(rank) +
                                              " outside the plan's " +
                                              std::to_string(tokens_count) + "-rank universe");
    }
  }
  plan->tokens_per_rank.resize(tokens_count);
  in.GetArray(std::span<int64_t>(plan->tokens_per_rank));
  plan->threshold_s0.resize(s0_count);
  in.GetArray(std::span<int64_t>(plan->threshold_s0));

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

}  // namespace zeppelin
