// PlannerDaemon: the hardened TCP front door of the PlannerService
// (docs/DAEMON.md).
//
// One daemon owns one PlannerService for one (model, cluster, TP) and serves
// it over the framed protocol in src/net/frame.h + src/net/wire.h. The
// design goal is robustness against untrusted clients and overload, not just
// reachability:
//
//   - *Typed rejection, never a crash.* The daemon checks framing,
//     structure, the wire's token cap and the request-only rules
//     (CheckPlanRequest) itself; the service checks session deltas against
//     the session state it owns and answers with a typed PlanStatus. Every
//     rejection becomes a typed WireStatus and leaves the session exactly as
//     it was (no partially-applied session mutation). The daemon holds no
//     session state of its own.
//   - *Certified plans.* Every served plan (cached, fresh, or session)
//     passes VerifyPlan first; one that fails is answered with kInternal,
//     never served.
//   - *Bounded admission.* At most `max_concurrent_plans` requests plan at
//     once; at most `queue_limit` more may wait. Anything beyond is shed
//     immediately with kOverloaded instead of queueing unboundedly, so
//     admitted-request latency stays bounded under any offered load.
//   - *Per-request deadlines.* A request carrying deadline_ms is dropped
//     with kDeadlineExceeded if it is still waiting for admission when the
//     deadline passes; planning never starts on an expired request.
//   - *Session hygiene.* Session keys are namespaced per connection, so
//     streams are private to the connection that opened them and can never
//     collide or be hijacked across clients. When a connection closes — EOF,
//     error, idle timeout, or daemon shutdown — every session it owns is
//     CloseSession()ed, so PlanStats::session_count cannot leak across
//     disconnects. A connection is idle only while the daemon waits on the
//     peer; a request queued or planning is never cut off.
//   - *Graceful drain.* BeginDrain() stops accepting connections and rejects
//     new requests with kShuttingDown while letting in-flight (admitted or
//     queued) requests finish; Stop() then joins everything. The
//     zeppelin_served binary wires SIGTERM to exactly this sequence.
//
// Threading model: one acceptor thread and one reader thread per connection
// that decodes, validates, plans (gated by the admission permits), and
// replies in order. No thread wakes on a timer: the idle timeout is the
// socket's own receive/send timeout, and Stop() wakes the blocked accept()
// by shutting the listening socket down. A finished reader leaves the
// connection map at once; the acceptor (at its next accept) or Stop() joins
// it and closes its socket. Requests on one connection therefore execute in
// arrival order, while distinct connections plan concurrently up to the
// admission limit.
#ifndef SRC_NET_PLANNER_DAEMON_H_
#define SRC_NET_PLANNER_DAEMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/plan_cache.h"
#include "src/core/plan_service.h"
#include "src/model/transformer.h"
#include "src/net/wire.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/topology/cluster.h"
#include "src/topology/path.h"

namespace zeppelin {
namespace net {

struct DaemonOptions {
  // TCP port to listen on; 0 binds an ephemeral port (read it back with
  // port() after Start — the test/bench pattern).
  int port = 0;
  std::string bind_address = "127.0.0.1";
  // Tensor parallelism inside nodes (Trainer semantics: the served cluster
  // is ApplyTensorParallelism(cluster, tp)).
  int tensor_parallel = 1;
  // Admission permits: requests planning at once across all connections.
  int max_concurrent_plans = 2;
  // Bounded waiting room behind the permits; a request arriving with the
  // queue full is shed immediately (kOverloaded).
  int queue_limit = 64;
  // Frame payload cap (also the decoder cap); clamped to kFrameHardCap.
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  // A connection whose reader waits this long on the peer with no bytes
  // moving — in recv for the next request, or in send on a reply the peer
  // does not drain — is closed and its sessions reaped. Requests queued at
  // the admission gate or planning are never idle. 0 disables the timeout.
  int idle_timeout_ms = 0;
  // Accept cap; connections beyond it are closed immediately.
  int max_connections = 256;
  // Test/bench hook: hold the admission permit this long before planning,
  // simulating a slow plan so queue/deadline behavior is observable.
  int debug_plan_delay_ms = 0;
  // Non-empty: drain every request's stage spans into a Chrome-trace JSON
  // file at this path (written on Stop; Perfetto-loadable). Empty disables
  // the sink; the per-stage histograms stay on either way.
  std::string trace_out{};
  // > 0: requests whose total handling latency crosses this threshold enter
  // the typed, rate-limited slow-request log (obs::SlowRequestLog). 0
  // disables it.
  double slow_request_us = 0;
};

// Point-in-time snapshot of the daemon's lifetime counters (telemetry + test
// hooks). Backed by the lock-free instruments in the owned service's
// obs::MetricsRegistry — readable at any moment, not just at shutdown;
// counters() and StatsJson() are two views of the same instruments.
struct DaemonCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_refused = 0;
  uint64_t requests_ok = 0;
  uint64_t shed_overload = 0;
  uint64_t shed_deadline = 0;
  uint64_t rejected_shutdown = 0;
  uint64_t malformed_frames = 0;  // Framing violations (connection closed).
  uint64_t malformed_requests = 0;
  uint64_t bad_requests = 0;      // Semantic rejections (incl. kBadDelta).
  uint64_t sessions_reaped = 0;   // Sessions closed on disconnect/idle/drain.
  uint64_t oversized_replies = 0;  // Plans answered kOversizedFrame instead.
  // Plan-cache telemetry (the registry's cache.* counters).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  // Plans refused by verify-before-serve (the registry's
  // cache.verify_failures).
  uint64_t verify_failures = 0;
};

class PlannerDaemon {
 public:
  PlannerDaemon(const TransformerConfig& model, const ClusterSpec& cluster,
                DaemonOptions options = {});
  ~PlannerDaemon();

  PlannerDaemon(const PlannerDaemon&) = delete;
  PlannerDaemon& operator=(const PlannerDaemon&) = delete;

  // Binds, listens, and spawns the acceptor. False (with `*error`
  // filled) if the socket setup fails; the daemon is then inert.
  bool Start(std::string* error = nullptr);

  // Stops accepting connections and rejects new requests (kShuttingDown);
  // in-flight and already-queued requests finish. Idempotent.
  void BeginDrain();

  // BeginDrain, then unblock every connection, join all threads, and close
  // all sockets (reaping their sessions). Returns as soon as the readers
  // finish their in-flight requests; nothing waits out a poll period.
  // Idempotent; called by ~.
  void Stop();

  // True once Stop() has completed (or Start() was never called).
  bool stopped() const;

  // The bound port (after Start with port 0, the ephemeral port).
  int port() const { return port_; }

  // Owned service telemetry: tests assert session_count returns to baseline
  // after disconnects.
  PlannerService& service() { return service_; }
  // The plan cache in front of the service (always on). Exposed for
  // telemetry.
  PlanCache& cache() { return cache_; }
  const ClusterSpec& cluster() const { return logical_cluster_; }

  DaemonCounters counters() const;
  size_t connection_count() const;

  // The service registry's snapshot as "zeppelin.metrics.v1" JSON: daemon,
  // cache and delta counters, admission gauges, per-stage histograms. The same
  // payload kStats requests return over the wire; safe to call while the
  // daemon serves traffic.
  std::string StatsJson();
  // The slow-request log, or nullptr when options.slow_request_us is 0.
  const obs::SlowRequestLog* slow_log() const { return slow_log_.get(); }
  // The trace sink, or nullptr when options.trace_out is empty.
  const obs::TraceSink* trace_sink() const { return trace_.get(); }

 private:
  struct AdmissionGate;
  struct Connection;

  void AcceptLoop();
  // Joins the readers parked in finished_ and closes their sockets.
  void JoinFinished();
  void ServeConnection(const std::shared_ptr<Connection>& conn);
  // Handles one decoded frame; false closes the connection.
  bool HandleFrame(Connection& conn, const Frame& frame);
  void HandlePlan(Connection& conn, WireRequest& request,
                  std::chrono::steady_clock::time_point received);
  // Closes every session the connection opened.
  void ReapSessions(Connection& conn);
  // Frames and sends one served plan: a cache hit (zero queue wait) or a
  // planned request. Its image, encoded by the cache, goes out as it is
  // between a fresh header and stage block, in one gather write; a frame
  // over max_frame_bytes is answered kOversizedFrame instead.
  void ServePlan(Connection& conn, uint64_t request_id, const PlanResponse& served,
                 double queue_wait_us);
  bool SendResponse(Connection& conn, const WireResponse& response);
  // Writes one whole frame, given as consecutive parts, with one gather
  // write under the connection's write lock.
  bool SendFrame(Connection& conn, std::initializer_list<std::string_view> parts);
  void SendError(Connection& conn, uint64_t request_id, WireStatus status,
                 std::string message);
  // End-of-request telemetry: total + per-stage histograms, the slow-request
  // log, and the --trace_out sink.
  void ObserveRequest(const obs::TraceContext& ctx, double total_us);

  TransformerConfig model_;
  ClusterSpec logical_cluster_;
  FabricResources fabric_;
  CostModel cost_model_;
  DaemonOptions options_;
  // Owns the metrics registry, so it is declared before everything that
  // holds instrument pointers into it.
  PlannerService service_;
  // Declared after service_ so the cache (which borrows it) is destroyed
  // first.
  PlanCache cache_;
  std::unique_ptr<AdmissionGate> gate_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{true};

  std::thread acceptor_;
  mutable std::mutex conns_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_;
  // Readers that have left conns_ and are not joined yet (their sockets
  // are shut down, not closed).
  std::vector<std::shared_ptr<Connection>> finished_;
  uint64_t next_conn_id_ = 1;

  // Lock-free instruments in service_.metrics() (registered once at
  // construction; incremented without any lock).
  obs::Counter* c_connections_accepted_ = nullptr;
  obs::Counter* c_connections_refused_ = nullptr;
  obs::Counter* c_requests_ok_ = nullptr;
  obs::Counter* c_shed_overload_ = nullptr;
  obs::Counter* c_shed_deadline_ = nullptr;
  obs::Counter* c_rejected_shutdown_ = nullptr;
  obs::Counter* c_malformed_frames_ = nullptr;
  obs::Counter* c_malformed_requests_ = nullptr;
  obs::Counter* c_bad_requests_ = nullptr;
  obs::Counter* c_sessions_reaped_ = nullptr;
  obs::Counter* c_stats_requests_ = nullptr;
  obs::Counter* c_oversized_replies_ = nullptr;
  obs::Gauge* g_queue_depth_ = nullptr;   // Admission waiting room occupancy.
  obs::Gauge* g_active_plans_ = nullptr;  // Admission permits in use.
  obs::Gauge* g_connections_ = nullptr;
  obs::Gauge* g_sessions_ = nullptr;
  std::array<obs::Histogram*, obs::kNumStages> h_stage_{};
  obs::Histogram* h_request_us_ = nullptr;

  std::unique_ptr<obs::TraceSink> trace_;
  std::unique_ptr<obs::SlowRequestLog> slow_log_;
};

}  // namespace net
}  // namespace zeppelin

#endif  // SRC_NET_PLANNER_DAEMON_H_
