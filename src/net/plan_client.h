// PlanClient: the C++ client of the planner daemon (docs/DAEMON.md).
//
// One client owns one TCP connection to one daemon and issues framed
// requests synchronously. Robustness mirrors the daemon's: connect and
// per-request timeouts, typed failures (WireStatus, never an exception or a
// crash), ParsePlan validation and VerifyPlan certification of every
// received plan (a daemon cannot hand back bytes that fail the plan_io
// digest check, a plan that does not cover the request batch, or a header
// digest naming a different plan than the bytes carry), and capped
// exponential-backoff retry with a strict idempotency rule:
//
//   - Stateless plans (empty stream_id), pings, and session closes (the
//     daemon's CloseSession is idempotent) are retried on kTransport and
//     kOverloaded, reconnecting between attempts, with
//     RetryBackoffMs(attempt) sleeps in between.
//   - Session plan requests (non-empty stream_id) are NEVER auto-retried:
//     after a transport error the client cannot know whether the daemon
//     applied the delta, so a blind resend could double-apply it. The error
//     surfaces to the caller, who re-establishes the stream (the daemon
//     rebases a session on the next full request).
//
// Deadline failures (kDeadlineExceeded) and every validation failure are
// terminal by definition — retrying them would just miss the deadline again
// or resend the same bad bytes.
#ifndef SRC_NET_PLAN_CLIENT_H_
#define SRC_NET_PLAN_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "src/core/partitioner.h"
#include "src/net/wire.h"

namespace zeppelin {
namespace net {

struct PlanClientOptions {
  int connect_timeout_ms = 2000;
  // Whole-request budget: send + wait for the response frame.
  int request_timeout_ms = 5000;
  // Extra attempts beyond the first, for idempotent requests only.
  int max_retries = 2;
  int backoff_initial_ms = 10;
  int backoff_max_ms = 1000;
  // Decoder cap for response frames (clamped to kFrameHardCap).
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  // ParsePlan rank-universe gate for received plans; 0 accepts any.
  int max_world = 0;
  // Test seam: the backoff sleep. Defaults to a real sleep; tests install a
  // recorder to assert the schedule without waiting it out.
  std::function<void(int)> sleep_ms{};
};

// The capped exponential backoff schedule: backoff_initial_ms << attempt,
// saturating at backoff_max_ms. `attempt` counts completed failed attempts
// (0 = sleep before the first retry). Exposed for direct unit testing.
int RetryBackoffMs(int attempt, const PlanClientOptions& options);

// Where an attempt's time went on the client (µs). The stages are disjoint
// and in order; together they span the attempt from encode to verify.
struct ClientStageUs {
  double encode = 0;  // Request frame encode.
  double send = 0;    // Socket send of the request frame.
  double wait = 0;    // Send done -> the first reply bytes read.
  double read = 0;    // First reply bytes -> the whole reply frame.
  double parse = 0;   // ParseResponse + ParsePlan of the reply.
  double verify = 0;  // VerifyPlan of a received plan (kPlan only).
};

struct PlanClientResult {
  WireStatus status = WireStatus::kTransport;
  std::string message;
  PlanStats stats;          // Success only.
  double queue_wait_us = 0; // Daemon-side admission wait (telemetry).
  // The plan's StateDigest, authenticated against the received plan bytes.
  uint64_t digest = 0;
  // The raw SerializePlan image as received — the byte-identity currency
  // tests compare against an in-process SerializePlan.
  std::string plan_bytes;
  // ParsePlan-validated decode of plan_bytes (null for ping/close).
  std::shared_ptr<const PartitionPlan> plan;
  // Stats() only: the daemon's "zeppelin.metrics.v1" snapshot JSON.
  std::string stats_json;
  int attempts = 0;         // Total attempts made (1 = no retry).
  double rtt_us = 0;        // Last attempt's round-trip time.
  ClientStageUs stage_us;   // Last attempt's client-side stages.

  bool ok() const { return status == WireStatus::kOk; }
};

class PlanClient {
 public:
  PlanClient(std::string host, int port, PlanClientOptions options = {});
  ~PlanClient();

  PlanClient(const PlanClient&) = delete;
  PlanClient& operator=(const PlanClient&) = delete;

  // Explicit connect (optional — requests auto-connect). False with `*error`
  // filled on failure; the client may be retried.
  bool Connect(std::string* error = nullptr);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // Issues a plan request. `request.kind` is forced to kPlan and
  // `request.request_id` is assigned by the client.
  PlanClientResult Plan(WireRequest request);

  // Liveness probe; idempotent, retried.
  PlanClientResult Ping();

  // Live introspection (wire v3): the daemon's full metrics snapshot in
  // PlanClientResult::stats_json. Idempotent, retried.
  PlanClientResult Stats();

  // Ends `stream_id`'s session on the daemon; idempotent, retried.
  PlanClientResult CloseSession(const std::string& stream_id);

 private:
  // One send+recv attempt on the current connection (connecting if needed).
  PlanClientResult Attempt(const WireRequest& request);
  // Retry loop around Attempt per the idempotency rule above; assigns
  // `request.request_id`.
  PlanClientResult Roundtrip(WireRequest& request);

  std::string host_;
  int port_;
  PlanClientOptions options_;
  int fd_ = -1;
  uint64_t next_request_id_ = 1;
};

}  // namespace net
}  // namespace zeppelin

#endif  // SRC_NET_PLAN_CLIENT_H_
