// Versioned binary wire format for PartitionPlan — how a plan leaves the
// process (plan caching, cross-process distribution, offline inspection).
//
// Layout (spec: docs/PLAN_FORMAT.md, "Wire format"): a fixed preamble
// (magic "ZPLN" + format version), the six section counts, both RingRef
// header queues, the local queue, the single rank-arena blob, the per-rank
// token layout, the thresholds, and a StateDigest trailer. All integers are
// little-endian and fixed-width; there is no padding, so the encoding of a
// plan is a pure function of its bytes — SerializePlan(ParsePlan(b)) == b and
// ParsePlan(SerializePlan(p)) == p field-for-field, including arena offsets
// (the byte-identity currency of the planner contract).
//
// Deserialization is defensive: every section count is bounds-checked
// against the remaining payload before any allocation, ring headers are
// validated against the arena (in-bounds spans, known zone tags), rank
// values against the plan's own rank universe, and the decoded plan's
// StateDigest must match the trailer. A plan that survives LoadPlanFile is
// therefore structurally valid and its *logical content* authenticated:
// corruption of anything a consumer reads — headers, live ring ranks,
// locals, token counts, thresholds — surfaces as a typed PlanIoStatus. The
// digest is deliberately layout/order-invariant (the delta-plan equivalence
// currency), so the mutations it cannot see are exactly those the
// equivalence contract already treats as the same plan: bytes in
// unreferenced arena slack, or within-queue record reorderings that
// preserve the ring/local multisets (these alter emission order, not
// coverage or loads). Callers needing byte-exact transport should compare
// the serialized strings themselves, which the canonical encoding makes
// meaningful.
#ifndef SRC_CORE_PLAN_IO_H_
#define SRC_CORE_PLAN_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "src/core/partitioner.h"

namespace zeppelin {

// Current wire-format version. Bump on any layout change; Deserialize
// rejects other versions (kBadVersion) rather than guessing.
inline constexpr uint32_t kPlanFormatVersion = 1;

// First bytes of every serialized plan: 'Z' 'P' 'L' 'N'.
inline constexpr char kPlanMagic[4] = {'Z', 'P', 'L', 'N'};

enum class PlanIoStatus : uint8_t {
  kOk = 0,
  kIoError,          // File read/write failure (Save/Load wrappers only).
  kBadMagic,         // Input does not start with the plan magic.
  kBadVersion,       // Unknown format version.
  kTruncated,        // Input ends before the declared sections/trailer.
  kCorrupt,          // Structural violation: trailing bytes, header span out
                     //   of arena bounds, or an unknown zone tag.
  kDigestMismatch,   // Sections decoded but the StateDigest trailer differs:
                     //   the payload was altered after serialization.
  kRankUniverse,     // The plan is valid but targets more ranks than the
                     //   caller's fabric (`max_world`) — executing it would
                     //   index out of the cluster.
};

const char* PlanIoStatusName(PlanIoStatus status);

struct PlanIoResult {
  PlanIoStatus status = PlanIoStatus::kOk;
  std::string message;  // Human-readable detail; empty on success.
  // ParsePlan success only: the StateDigest trailer it authenticated.
  uint64_t digest = 0;

  bool ok() const { return status == PlanIoStatus::kOk; }
};

// Encodes `plan` into the canonical byte string. Never fails: any
// PartitionPlan value (including delta-patched plans whose arena carries
// free-listed slack) has exactly one encoding.
std::string SerializePlan(const PartitionPlan& plan);

// An encoded plan shared by reference: a plan-cache entry and every response
// that serves it hold the same bytes. The buffer is allocated at its final
// size and written once, with no fill pass before the encode.
class PlanImage {
 public:
  PlanImage() = default;

  // SerializePlan(plan)'s bytes with `digest` as the trailer instead of a
  // fresh StateDigest() pass, for a caller that already holds the plan's
  // digest (the plan cache encodes every served plan under the
  // PlanResponse::digest the service computed). A digest that does not match
  // the plan makes an image that ParsePlan rejects (kDigestMismatch).
  static PlanImage Encode(const PartitionPlan& plan, uint64_t digest);

  std::string_view view() const { return {bytes_.get(), size_}; }
  size_t size() const { return size_; }

 private:
  PlanImage(std::shared_ptr<const char[]> bytes, size_t size)
      : bytes_(std::move(bytes)), size_(size) {}

  std::shared_ptr<const char[]> bytes_;
  size_t size_ = 0;
};

// Decodes `bytes` into `*plan`. On failure `*plan` is left in an
// unspecified-but-valid state and the result carries the reason; on success
// the decoded plan is byte-identical to the serialized one. `max_world` > 0
// bounds the plan's rank universe by the target fabric: a plan declaring
// more ranks than the cluster executing it is rejected at load time
// (kRankUniverse) instead of indexing out of the cluster mid-execution.
// 0 accepts any universe (offline inspection tools).
PlanIoResult ParsePlan(std::string_view bytes, PartitionPlan* plan, int max_world = 0);

// File convenience wrappers (binary, whole-file).
PlanIoResult SavePlanFile(const std::string& path, const PartitionPlan& plan);
PlanIoResult LoadPlanFile(const std::string& path, PartitionPlan* plan, int max_world = 0);

}  // namespace zeppelin

#endif  // SRC_CORE_PLAN_IO_H_
