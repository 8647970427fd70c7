// Request/response payload encoding for the planner daemon protocol.
//
// A WireRequest is everything a remote client may say to the daemon: a plan
// request (batch + planning options + optional session delta/topology), an
// explicit session close, or a ping. A WireResponse is either a success
// (PlanStats + digest + the plan_io bytes) or a typed error. Payloads ride
// inside frames (src/net/frame.h); the daemon's cost model and fabric are
// fixed at startup, so neither crosses the wire.
//
// Parsing follows the plan_io.h defensive discipline: little-endian
// fixed-width fields, every count bounds-checked against the remaining
// payload before any allocation, explicit caps on element values, trailing
// bytes rejected. ParseRequest establishes *structural* validity only;
// request *semantics* are checked before any planner state is touched: the
// daemon checks the wire limits and the request-only rules
// (CheckPlanRequest, e.g. capacity feasibility), and the service checks
// session deltas (consistency against the session's tracked batch, topology
// liveness preconditions) against the state it owns — see docs/DAEMON.md,
// "Request validation".
#ifndef SRC_NET_WIRE_H_
#define SRC_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/core/plan_service.h"
#include "src/data/sampler.h"
#include "src/data/stream.h"
#include "src/net/frame.h"

namespace zeppelin {
namespace net {

// Wire payload encoding version. v2 added the cache_outcome and verified
// stats bytes to kOk responses. v3 added the kStats request kind, the
// per-stage latency block, and the stats-JSON section to kOk responses.
// Endpoints emit v3 and parsers accept only v3: any other version word is a
// kMalformedRequest ("unknown ... version"), never guessed at.
inline constexpr uint32_t kWireVersion = 3;

// Structural caps enforced by ParseRequest (beyond the frame-size cap):
// stream ids are short tokens, sequence lengths and counts are bounded so
// totals can never overflow int64 arithmetic anywhere in the planner.
inline constexpr uint32_t kMaxStreamIdBytes = 256;
inline constexpr uint32_t kMaxWireSeqs = 1u << 24;
inline constexpr int64_t kMaxWireSeqLen = int64_t{1} << 40;
// The batch's sequence count and token total are capped tighter by the
// daemon's semantic validation (CheckPlanRequest: kMaxPlanSeqs,
// kMaxPlanTokens).
inline constexpr uint32_t kMaxWireDeltaEntries = kMaxWireSeqs;
inline constexpr uint32_t kMaxWireTopoEntries = 1u << 20;
// Response caps: the per-stage latency block may carry at most this many
// entries (today obs::kNumStages = 9; headroom for future stages), and the
// stats-JSON section is bounded so a lying daemon cannot force a huge
// client-side allocation.
inline constexpr uint32_t kMaxWireStages = 32;
inline constexpr uint32_t kMaxWireStatsJsonBytes = 1u << 20;

// Every way a request can fail, plus the client-side transport failures —
// the daemon's equivalent of PlanIoStatus. Values are wire-stable.
enum class WireStatus : uint8_t {
  kOk = 0,
  kMalformedFrame = 1,    // Framing violation; the connection closes.
  kOversizedFrame = 2,    // Frame over the size cap: a request frame closes
                          //   the connection; a plan reply over it is not
                          //   sent and the connection keeps serving.
  kMalformedRequest = 3,  // Request payload failed structural parsing.
  kBadRequest = 4,        // Semantic validation failed (empty batch,
                          //   infeasible capacity, bad options, ...).
  kBadDelta = 5,          // Delta/topology disagrees with the session's
                          //   tracked state; nothing was applied.
  kOverloaded = 6,        // Admission queue full; request shed unprocessed.
  kDeadlineExceeded = 7,  // Deadline expired before planning started.
  kShuttingDown = 8,      // Daemon is draining; request rejected.
  kPlanRejected = 9,      // Client side: response plan bytes failed ParsePlan.
  kTransport = 10,        // Client side: connect/send/recv failure.
  kInternal = 11,         // Daemon-side invariant failure (should not happen).
};

const char* WireStatusName(WireStatus status);

enum class RequestKind : uint8_t {
  kPlan = 1,
  kCloseSession = 2,  // Ends `stream_id`'s session; idempotent.
  kPing = 3,          // Liveness probe; returns an empty success.
  kStats = 4,         // Live introspection: returns the daemon's full metrics
                      //   snapshot as stats_json; idempotent, served without
                      //   an admission permit.
};

struct WireRequest {
  RequestKind kind = RequestKind::kPlan;
  // Echoed verbatim in the response so clients can match replies.
  uint64_t request_id = 0;
  // Per-request deadline in milliseconds from daemon receipt; 0 = none. The
  // daemon sheds the request (kDeadlineExceeded) if it is still waiting for
  // admission when the deadline passes — see docs/DAEMON.md, "Deadlines".
  uint32_t deadline_ms = 0;
  // Empty = stateless one-shot plan. Non-empty = delta session, private to
  // this connection (the daemon namespaces session keys per connection).
  std::string stream_id;
  PlanningOptions options;
  // kPlan only: the *new* batch (post-delta, PlanRequest semantics).
  Batch batch;
  // kPlan sessions only: the delta from the session's previous batch.
  std::optional<BatchDelta> delta;
  // kPlan sessions only: fabric churn since the previous request.
  std::optional<TopologyDelta> topology;
};

struct WireResponse {
  uint64_t request_id = 0;
  WireStatus status = WireStatus::kOk;
  std::string message;  // Human-readable error detail; empty on success.
  PlanStats stats;      // Success only.
  // Microseconds the request waited for admission (daemon-side telemetry).
  double queue_wait_us = 0;
  uint64_t digest = 0;      // plan->StateDigest(); authenticates plan_bytes.
  std::string plan_bytes;   // SerializePlan() image; empty for close/ping.
                            // The daemon frames a served plan around the
                            // image the plan cache encoded
                            // (FrameResponseAroundImage) and leaves this
                            // empty.
  // kStats responses: the "zeppelin.metrics.v1" snapshot JSON
  // (docs/OBSERVABILITY.md). Empty on every other kind.
  std::string stats_json;
};

// --- Encoding ---------------------------------------------------------------
//
// Every encoder computes its exact size, grows its buffer once, and writes
// the fields in place (src/common/le_codec.h); arrays go in bulk.

std::string EncodeRequest(const WireRequest& request);
std::string EncodeResponse(const WireResponse& response);

// Frames in one step, writing the payload straight into `*out` behind the
// frame header: request -> kRequest frame; response -> kResponse frame when
// status == kOk, kError frame otherwise.
void AppendRequestFrame(const WireRequest& request, std::string* out);
void AppendResponseFrame(const WireResponse& response, std::string* out);

// Frames a kOk response around a plan image the caller already holds (the
// plan cache's certified bytes) without copying it: `*head` grows by the
// frame header and the payload through the plan section's length, `*tail`
// by the stage block and the stats-JSON section. head + image + tail is the
// frame AppendResponseFrame writes for the same response carrying the image
// in plan_bytes; response.plan_bytes is not read. Returns the frame's
// payload size (the frame less its header). The daemon sends every served
// plan this way, the three parts in one gather write.
size_t FrameResponseAroundImage(const WireResponse& response, size_t image_size,
                                std::string* head, std::string* tail);

// --- Parsing ----------------------------------------------------------------

// Structural parse of a kRequest frame payload. Returns kOk or
// kMalformedRequest; on failure `*request` still carries any request id that
// was decodable, so the daemon can address its error reply.
WireStatus ParseRequest(std::string_view payload, WireRequest* request,
                        std::string* error);

// Structural parse of a kResponse/kError frame payload (client side).
WireStatus ParseResponse(FrameType type, std::string_view payload,
                         WireResponse* response, std::string* error);

}  // namespace net
}  // namespace zeppelin

#endif  // SRC_NET_WIRE_H_
