#include "src/net/planner_daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <utility>

#include "src/common/check.h"
#include "src/core/plan_io.h"
#include "src/core/plan_verify.h"

namespace zeppelin {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string SessionKey(uint64_t conn_id, const std::string& stream_id) {
  return "c" + std::to_string(conn_id) + "/" + stream_id;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

// Bounded two-stage admission: `permits` requests plan concurrently, at most
// `queue_limit` more wait behind them, everything else is shed immediately.
// Waiters honor their request deadline — a queued request whose deadline
// passes is dropped without ever starting to plan.
struct PlannerDaemon::AdmissionGate {
  enum class Result { kAdmitted, kOverloaded, kDeadline, kShutdown };

  // The two gauges mirror `active`/`waiting` so the admission state is
  // visible in every metrics snapshot; they are updated under `mu` at each
  // transition, so the mirrored levels can never drift from the truth.
  AdmissionGate(int permits_in, int queue_limit_in, obs::Gauge* active_gauge,
                obs::Gauge* waiting_gauge)
      : permits(std::max(1, permits_in)),
        queue_limit(std::max(0, queue_limit_in)),
        g_active(active_gauge),
        g_waiting(waiting_gauge) {}

  void Admit() {
    ++active;
    g_active->Add(1);
  }
  void StartWaiting() {
    ++waiting;
    g_waiting->Add(1);
  }
  void StopWaiting() {
    --waiting;
    g_waiting->Sub(1);
  }

  Result Acquire(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu);
    if (shutdown) {
      return Result::kShutdown;
    }
    if (active < permits) {
      Admit();
      return Result::kAdmitted;
    }
    if (waiting >= queue_limit) {
      return Result::kOverloaded;
    }
    StartWaiting();
    while (true) {
      if (deadline == Clock::time_point::max()) {
        cv.wait(lock);
      } else if (cv.wait_until(lock, deadline) == std::cv_status::timeout) {
        // One last chance: a permit freed in the same instant still wins.
        if (!shutdown && active < permits) {
          StopWaiting();
          Admit();
          return Result::kAdmitted;
        }
        StopWaiting();
        return shutdown ? Result::kShutdown : Result::kDeadline;
      }
      if (shutdown) {
        StopWaiting();
        return Result::kShutdown;
      }
      if (active < permits) {
        StopWaiting();
        Admit();
        return Result::kAdmitted;
      }
    }
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      --active;
      g_active->Sub(1);
    }
    cv.notify_one();
  }

  void Shutdown() {
    {
      std::lock_guard<std::mutex> lock(mu);
      shutdown = true;
    }
    cv.notify_all();
  }

  std::mutex mu;
  std::condition_variable cv;
  int active = 0;
  int waiting = 0;
  const int permits;
  const int queue_limit;
  obs::Gauge* const g_active;
  obs::Gauge* const g_waiting;
  bool shutdown = false;
};

// One client connection. Owned jointly by the connection map and the reader
// thread; `sessions` (the per-stream mirrors) is touched only by the reader
// thread, so it needs no lock.
struct PlannerDaemon::Connection {
  int fd = -1;
  uint64_t id = 0;
  std::thread thread;
  std::mutex write_mu;
  std::atomic<int64_t> last_active_us{0};
  std::atomic<bool> done{false};

  // The daemon-side mirror of a session's service state: the batch the
  // service tracks and the fabric topology it has folded in. Every delta in
  // an incoming request is validated against this mirror *before* the
  // service sees it — the service ZCHECK-aborts on contract violations, so
  // nothing unvalidated may cross that line — and the mirror advances only
  // after the service call returns, keeping the two in lockstep.
  struct SessionMirror {
    Batch batch;
    RankTopology topo;
    bool has_base = false;
  };
  std::unordered_map<std::string, SessionMirror> sessions;
};

namespace {

// Semantic validation of a structurally-valid plan request against the
// daemon's cluster and the session mirror (`prev_batch`/`prev_topo` null for
// stateless requests or first contact). Returns kOk, kBadRequest, or
// kBadDelta; on failure nothing may be applied anywhere. Mirrors every
// ZCHECK precondition reachable from PlannerService::Plan (docs/DAEMON.md,
// "Request validation").
WireStatus ValidatePlan(const WireRequest& request, const Batch* prev_batch,
                        const RankTopology* prev_topo, const ClusterSpec& spec,
                        std::string* why) {
  const int world = spec.world_size();
  const Batch& batch = request.batch;
  if (batch.size() == 0) {
    *why = "empty batch";
    return WireStatus::kBadRequest;
  }
  int64_t total = 0;
  for (int64_t len : batch.seq_lens) {
    total += len;  // Each term <= kMaxWireSeqLen (parse), so no overflow
    if (total > kMaxWireTotalTokens) {  // before this cap trips.
      *why = "batch exceeds the total-token cap";
      return WireStatus::kBadRequest;
    }
  }
  if (total == 0) {
    *why = "batch has no tokens (all sequences empty)";
    return WireStatus::kBadRequest;
  }
  const double threshold = request.options.delta_replan_threshold;
  if (!std::isfinite(threshold) || threshold < 0) {
    *why = "delta_replan_threshold must be finite and non-negative";
    return WireStatus::kBadRequest;
  }
  if (request.options.token_capacity > 0) {
    // The partitioner requires total <= world * L; reject infeasible
    // explicit capacities instead of letting the planner abort.
    const int64_t needed = (total + world - 1) / world;
    if (request.options.token_capacity < needed) {
      *why = "token_capacity below ceil(total_tokens / world)";
      return WireStatus::kBadRequest;
    }
  }

  const bool is_session = !request.stream_id.empty();
  if (!is_session) {
    if (request.delta.has_value() || request.topology.has_value()) {
      *why = "batch/topology deltas require a session (non-empty stream id)";
      return WireStatus::kBadRequest;
    }
    return WireStatus::kOk;
  }
  if (!request.options.hierarchical_partitioning) {
    *why = "sessions require hierarchical planning";
    return WireStatus::kBadRequest;
  }

  // Topology delta: liveness preconditions against the mirrored fabric
  // state (fresh = all alive), plus a floor of one surviving rank.
  if (request.topology.has_value()) {
    const TopologyDelta& topo = *request.topology;
    std::vector<uint8_t> alive;
    if (prev_topo != nullptr && prev_topo->world() == world) {
      alive = prev_topo->alive;
    } else {
      alive.assign(world, 1);
    }
    int alive_count = 0;
    for (uint8_t a : alive) {
      alive_count += a;
    }
    std::vector<uint8_t> touched(world, 0);
    for (int rank : topo.removed_ranks) {
      if (rank < 0 || rank >= world || !alive[rank] || touched[rank]) {
        *why = "topology removes an out-of-range, dead, or repeated rank";
        return WireStatus::kBadDelta;
      }
      touched[rank] = 1;
      alive[rank] = 0;
      --alive_count;
    }
    for (int rank : topo.added_ranks) {
      if (rank < 0 || rank >= world || alive[rank] || touched[rank]) {
        *why = "topology restores an out-of-range, alive, or repeated rank";
        return WireStatus::kBadDelta;
      }
      touched[rank] = 1;
      alive[rank] = 1;
      ++alive_count;
    }
    for (const auto& [rank, factor] : topo.speed_factors) {
      if (rank < 0 || rank >= world || !std::isfinite(factor) || factor <= 0) {
        *why = "topology speed factor out of range";
        return WireStatus::kBadDelta;
      }
    }
    if (alive_count < 1) {
      *why = "topology would leave no alive ranks";
      return WireStatus::kBadDelta;
    }
  }

  // Batch delta: slot validity against the mirrored batch, then the
  // PlanRequest contract — applying the delta to the previous batch must
  // reproduce the request batch exactly. Only checked when the service will
  // actually consume the delta (it rebases from scratch on first contact).
  if (prev_batch != nullptr && request.delta.has_value()) {
    const BatchDelta& delta = *request.delta;
    const int prev_size = prev_batch->size();
    std::vector<uint8_t> seen(prev_size, 0);
    for (int slot : delta.removed) {
      if (slot < 0 || slot >= prev_size || seen[slot]) {
        *why = "delta removes an out-of-range or repeated slot";
        return WireStatus::kBadDelta;
      }
      seen[slot] = 1;
    }
    for (const auto& [slot, len] : delta.resized) {
      if (slot < 0 || slot >= prev_size || seen[slot] || len < 0) {
        *why = "delta resizes an out-of-range or repeated slot";
        return WireStatus::kBadDelta;
      }
      seen[slot] = 1;
    }
    Batch patched = *prev_batch;
    ApplyBatchDelta(delta, &patched);
    if (patched.seq_lens != batch.seq_lens) {
      *why = "delta applied to the session's tracked batch does not produce "
             "the request batch";
      return WireStatus::kBadDelta;
    }
  }
  return WireStatus::kOk;
}

}  // namespace

PlannerDaemon::PlannerDaemon(const TransformerConfig& model, const ClusterSpec& cluster,
                             DaemonOptions options)
    : model_(model),
      logical_cluster_(ApplyTensorParallelism(cluster, options.tensor_parallel)),
      fabric_(logical_cluster_),
      cost_model_(model, logical_cluster_, options.tensor_parallel),
      options_(options) {
  options_.max_frame_bytes = std::min(options_.max_frame_bytes, kFrameHardCap);
  service_ = std::make_unique<PlannerService>(
      PlanServiceOptions{.num_planner_threads = options_.planner_threads});
  if (options_.plan_cache) {
    PlanCacheOptions cache_options;
    cache_options.capacity = options_.plan_cache_capacity;
    cache_options.verify = options_.verify_before_serve;
    cache_ = std::make_unique<PlanCache>(service_.get(), cache_options);
  }
  // Instrument registration is a construction-time event: the request path
  // only ever touches the returned pointers (relaxed atomics, no registry
  // lock). The names are the "zeppelin.metrics.v1" catalog
  // (docs/OBSERVABILITY.md).
  c_connections_accepted_ = metrics_.GetCounter("daemon.connections_accepted");
  c_connections_refused_ = metrics_.GetCounter("daemon.connections_refused");
  c_requests_ok_ = metrics_.GetCounter("daemon.requests_ok");
  c_shed_overload_ = metrics_.GetCounter("daemon.shed_overload");
  c_shed_deadline_ = metrics_.GetCounter("daemon.shed_deadline");
  c_rejected_shutdown_ = metrics_.GetCounter("daemon.rejected_shutdown");
  c_malformed_frames_ = metrics_.GetCounter("daemon.malformed_frames");
  c_malformed_requests_ = metrics_.GetCounter("daemon.malformed_requests");
  c_bad_requests_ = metrics_.GetCounter("daemon.bad_requests");
  c_sessions_reaped_ = metrics_.GetCounter("daemon.sessions_reaped");
  c_verify_failures_ = metrics_.GetCounter("daemon.verify_failures");
  c_stats_requests_ = metrics_.GetCounter("daemon.stats_requests");
  g_queue_depth_ = metrics_.GetGauge("daemon.queue_depth");
  g_active_plans_ = metrics_.GetGauge("daemon.active_plans");
  g_connections_ = metrics_.GetGauge("daemon.connections");
  g_sessions_ = metrics_.GetGauge("daemon.sessions");
  g_cache_hits_ = metrics_.GetGauge("cache.hits");
  g_cache_misses_ = metrics_.GetGauge("cache.misses");
  g_cache_evictions_ = metrics_.GetGauge("cache.evictions");
  g_cache_verify_failures_ = metrics_.GetGauge("cache.verify_failures");
  for (int i = 0; i < obs::kNumStages; ++i) {
    h_stage_[i] = metrics_.GetHistogram(
        std::string("stage_us.") + obs::StageName(static_cast<obs::Stage>(i)));
  }
  h_request_us_ = metrics_.GetHistogram("request.total_us");
  gate_ = std::make_unique<AdmissionGate>(options_.max_concurrent_plans,
                                          options_.queue_limit, g_active_plans_,
                                          g_queue_depth_);
  if (!options_.trace_out.empty()) {
    trace_ = std::make_unique<obs::TraceSink>(options_.trace_out);
  }
  if (options_.slow_request_us > 0) {
    slow_log_ = std::make_unique<obs::SlowRequestLog>(options_.slow_request_us);
  }
}

PlannerDaemon::~PlannerDaemon() { Stop(); }

bool PlannerDaemon::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  ZCHECK(!started_.load()) << "PlannerDaemon::Start called twice";

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return fail("socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return fail("inet_pton(" + options_.bind_address + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 128) != 0) {
    return fail("listen");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  started_ = true;
  stopped_ = false;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  reaper_ = std::thread([this] { ReaperLoop(); });
  return true;
}

void PlannerDaemon::BeginDrain() { draining_ = true; }

void PlannerDaemon::Stop() {
  if (!started_.load() || stopped_.load()) {
    return;
  }
  draining_ = true;
  stopping_ = true;
  // Wake queued requests (they reply kShuttingDown) and both service
  // threads; the accept/reaper loops poll stopping_ on a short period.
  gate_->Shutdown();
  acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  reaper_cv_.notify_all();
  reaper_.join();

  // Unblock every reader (shutdown wakes recv with EOF), then join. Readers
  // reap their own sessions on the way out.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.reserve(conns_.size());
    for (auto& [id, conn] : conns_) {
      conns.push_back(conn);
    }
    conns_.clear();
  }
  for (auto& conn : conns) {
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
    ::close(conn->fd);
  }
  // All readers are joined: no request is still writing spans, so the trace
  // file this writes is complete.
  if (trace_ != nullptr) {
    trace_->Flush();
  }
  stopped_ = true;
}

bool PlannerDaemon::stopped() const { return stopped_.load(); }

DaemonCounters PlannerDaemon::counters() const {
  DaemonCounters out;
  out.connections_accepted = c_connections_accepted_->value();
  out.connections_refused = c_connections_refused_->value();
  out.requests_ok = c_requests_ok_->value();
  out.shed_overload = c_shed_overload_->value();
  out.shed_deadline = c_shed_deadline_->value();
  out.rejected_shutdown = c_rejected_shutdown_->value();
  out.malformed_frames = c_malformed_frames_->value();
  out.malformed_requests = c_malformed_requests_->value();
  out.bad_requests = c_bad_requests_->value();
  out.sessions_reaped = c_sessions_reaped_->value();
  out.verify_failures = c_verify_failures_->value();
  if (cache_ != nullptr) {
    const PlanCacheCounters cache = cache_->counters();
    out.cache_hits = cache.hits;
    out.cache_misses = cache.misses;
    out.cache_evictions = cache.evictions;
    out.verify_failures += cache.verify_failures;
  }
  return out;
}

std::string PlannerDaemon::StatsJson() {
  // Refresh the snapshot-time mirrors first: connection/session levels and
  // the cache's lock-guarded counters. Everything else is already live in
  // the instruments themselves.
  g_connections_->Set(static_cast<int64_t>(connection_count()));
  g_sessions_->Set(static_cast<int64_t>(service_->session_count()));
  if (cache_ != nullptr) {
    const PlanCacheCounters cache = cache_->counters();
    g_cache_hits_->Set(static_cast<int64_t>(cache.hits));
    g_cache_misses_->Set(static_cast<int64_t>(cache.misses));
    g_cache_evictions_->Set(static_cast<int64_t>(cache.evictions));
    g_cache_verify_failures_->Set(static_cast<int64_t>(cache.verify_failures));
  }
  return obs::MetricsToJson(metrics_.Snapshot());
}

size_t PlannerDaemon::connection_count() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

void PlannerDaemon::AcceptLoop() {
  while (!stopping_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (stopping_.load()) {
      break;
    }
    if (ready <= 0) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    bool refuse = draining_.load();
    if (!refuse) {
      std::lock_guard<std::mutex> lock(conns_mu_);
      refuse = conns_.size() >= static_cast<size_t>(options_.max_connections);
    }
    if (refuse) {
      ::close(fd);
      c_connections_refused_->Inc();
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->last_active_us = NowUs();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->id = next_conn_id_++;
      conns_[conn->id] = conn;
    }
    c_connections_accepted_->Inc();
    conn->thread = std::thread([this, conn] { ServeConnection(conn); });
  }
}

void PlannerDaemon::ReaperLoop() {
  std::unique_lock<std::mutex> lock(conns_mu_);
  while (!stopping_.load()) {
    reaper_cv_.wait_for(lock, std::chrono::milliseconds(50));
    if (stopping_.load()) {
      break;
    }
    // Idle reaping: shut the socket down; the reader wakes with EOF, reaps
    // its sessions, and marks itself done.
    if (options_.idle_timeout_ms > 0) {
      const int64_t now_us = NowUs();
      for (auto& [id, conn] : conns_) {
        if (!conn->done.load() &&
            now_us - conn->last_active_us.load() >
                int64_t{options_.idle_timeout_ms} * 1000) {
          ::shutdown(conn->fd, SHUT_RDWR);
        }
      }
    }
    // Join and release finished connections.
    std::vector<std::shared_ptr<Connection>> finished;
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->second->done.load()) {
        finished.push_back(it->second);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    if (!finished.empty()) {
      lock.unlock();
      for (auto& conn : finished) {
        if (conn->thread.joinable()) {
          conn->thread.join();
        }
        ::close(conn->fd);
      }
      lock.lock();
    }
  }
}

void PlannerDaemon::ServeConnection(const std::shared_ptr<Connection>& conn) {
  FrameDecoder decoder(options_.max_frame_bytes);
  std::vector<char> buf(64 << 10);
  bool close_conn = false;
  while (!close_conn && !stopping_.load()) {
    const ssize_t n = ::recv(conn->fd, buf.data(), buf.size(), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;  // EOF, error, or a shutdown() wakeup.
    }
    conn->last_active_us = NowUs();
    decoder.Feed(buf.data(), static_cast<size_t>(n));
    Frame frame;
    FrameStatus status;
    while ((status = decoder.Next(&frame)) == FrameStatus::kOk) {
      if (!HandleFrame(*conn, frame)) {
        close_conn = true;
        break;
      }
    }
    if (!close_conn && status != FrameStatus::kIncomplete) {
      // Framing violation: the stream position is gone. One typed error
      // frame, then close.
      c_malformed_frames_->Inc();
      SendError(*conn, 0,
                status == FrameStatus::kOversized ? WireStatus::kOversizedFrame
                                                  : WireStatus::kMalformedFrame,
                std::string("framing error: ") + FrameStatusName(status));
      close_conn = true;
    }
  }
  ReapSessions(*conn);
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->done = true;
  reaper_cv_.notify_all();
}

void PlannerDaemon::ReapSessions(Connection& conn) {
  if (conn.sessions.empty()) {
    return;
  }
  uint64_t reaped = 0;
  for (const auto& [stream_id, mirror] : conn.sessions) {
    if (service_->CloseSession(SessionKey(conn.id, stream_id))) {
      ++reaped;
    }
  }
  conn.sessions.clear();
  c_sessions_reaped_->Inc(reaped);
}

bool PlannerDaemon::SendResponse(Connection& conn, const WireResponse& response) {
  // kWrite covers response framing + the socket write. It necessarily lands
  // *after* the response's own stats were encoded, so it reaches the stage
  // histograms and --trace_out but never its own response's stage_us.
  obs::TraceScope write_span(obs::Stage::kWrite);
  std::string out;
  AppendResponseFrame(response, &out);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  const bool ok = SendAll(conn.fd, out);
  if (ok) {
    conn.last_active_us = NowUs();
  }
  return ok;
}

void PlannerDaemon::SendError(Connection& conn, uint64_t request_id, WireStatus status,
                              std::string message) {
  WireResponse response;
  response.request_id = request_id;
  response.status = status;
  response.message = std::move(message);
  SendResponse(conn, response);
}

bool PlannerDaemon::HandleFrame(Connection& conn, const Frame& frame) {
  const auto received = Clock::now();
  if (frame.type != FrameType::kRequest) {
    c_malformed_frames_->Inc();
    return false;  // Clients never send response frames; desynced peer.
  }
  // One stack-allocated trace per request, bound to this reader thread for
  // the request's whole lifetime: every TraceScope below — including the
  // ones inside PlanCache / PlannerService / VerifyPlan, which never see a
  // context parameter — accumulates here.
  obs::TraceContext tctx;
  tctx.lane = static_cast<int>(conn.id);
  obs::TraceBinding binding(&tctx);
  const double start_us = obs::NowUs();

  WireRequest request;
  std::string parse_error;
  WireStatus parsed;
  {
    obs::TraceScope decode_span(obs::Stage::kDecode);
    parsed = ParseRequest(frame.payload, &request, &parse_error);
  }
  tctx.request_id = request.request_id;
  if (parsed != WireStatus::kOk) {
    c_malformed_requests_->Inc();
    // The framing layer is still in sync — reject the request, keep the
    // connection. Session state was never touched.
    SendError(conn, request.request_id, WireStatus::kMalformedRequest, parse_error);
    return true;
  }
  if (draining_.load() || stopping_.load()) {
    c_rejected_shutdown_->Inc();
    SendError(conn, request.request_id, WireStatus::kShuttingDown,
              "daemon is draining");
    return true;
  }
  switch (request.kind) {
    case RequestKind::kPing: {
      WireResponse response;
      response.request_id = request.request_id;
      return SendResponse(conn, response);
    }
    case RequestKind::kCloseSession: {
      service_->CloseSession(SessionKey(conn.id, request.stream_id));
      conn.sessions.erase(request.stream_id);
      WireResponse response;
      response.request_id = request.request_id;
      response.stats.session_count = service_->session_count();
      return SendResponse(conn, response);
    }
    case RequestKind::kStats: {
      // Live introspection: no admission permit (the snapshot only reads
      // atomics + the cache counter mutex), so stats stay answerable while
      // every planning permit is busy.
      c_stats_requests_->Inc();
      WireResponse response;
      response.request_id = request.request_id;
      response.stats.session_count = service_->session_count();
      response.stats_json = StatsJson();
      return SendResponse(conn, response);
    }
    case RequestKind::kPlan: {
      HandlePlan(conn, request, received);
      // End-of-request telemetry covers every outcome (served, shed,
      // rejected): the histograms describe offered load, not just successes.
      ObserveRequest(tctx, obs::NowUs() - start_us);
      return true;
    }
  }
  return false;
}

void PlannerDaemon::ObserveRequest(const obs::TraceContext& ctx, double total_us) {
  h_request_us_->Record(static_cast<uint64_t>(std::max(0.0, total_us)));
  for (int i = 0; i < obs::kNumStages; ++i) {
    if (ctx.stage_us[i] > 0) {
      h_stage_[i]->Record(static_cast<uint64_t>(ctx.stage_us[i]));
    }
  }
  if (slow_log_ != nullptr) {
    slow_log_->Observe(ctx, total_us);
  }
  if (trace_ != nullptr) {
    trace_->Drain(ctx);
  }
}

void PlannerDaemon::HandlePlan(Connection& conn, WireRequest& request,
                               std::chrono::steady_clock::time_point received) {
  const Connection::SessionMirror* mirror = nullptr;
  if (!request.stream_id.empty()) {
    auto it = conn.sessions.find(request.stream_id);
    if (it != conn.sessions.end()) {
      mirror = &it->second;
    }
  }
  const bool mirror_based = mirror != nullptr && mirror->has_base;
  std::string why;
  WireStatus valid;
  {
    obs::TraceScope validate_span(obs::Stage::kValidate);
    valid = ValidatePlan(request, mirror_based ? &mirror->batch : nullptr,
                         mirror != nullptr ? &mirror->topo : nullptr,
                         logical_cluster_, &why);
  }
  if (valid != WireStatus::kOk) {
    c_bad_requests_->Inc();
    SendError(conn, request.request_id, valid, why);
    return;
  }

  const bool is_session = !request.stream_id.empty();
  // Exact-tier cache hits are served before (and without) an admission
  // permit: no planning happens, so a hit costs no planner capacity — and a
  // permit-free path keeps repeated responses byte-identical (zero queue
  // wait) under any load. TryServe drops + replans poisoned entries itself.
  if (!is_session && cache_ != nullptr) {
    PlanRequest probe;
    probe.batch = &request.batch;
    probe.cost_model = &cost_model_;
    probe.fabric = &fabric_;
    probe.options = request.options;
    if (std::optional<PlanResponse> served = cache_->TryServe(probe)) {
      WireResponse response;
      response.request_id = request.request_id;
      response.stats = served->stats;
      response.queue_wait_us = 0;
      response.digest = served->digest;
      {
        obs::TraceScope encode_span(obs::Stage::kEncode);
        response.plan_bytes = SerializePlan(*served->plan);
      }
      c_requests_ok_->Inc();
      SendResponse(conn, response);
      return;
    }
  }

  const auto deadline = request.deadline_ms == 0
                            ? Clock::time_point::max()
                            : received + std::chrono::milliseconds(request.deadline_ms);
  switch (gate_->Acquire(deadline)) {
    case AdmissionGate::Result::kOverloaded: {
      c_shed_overload_->Inc();
      SendError(conn, request.request_id, WireStatus::kOverloaded,
                "admission queue full");
      return;
    }
    case AdmissionGate::Result::kDeadline: {
      c_shed_deadline_->Inc();
      SendError(conn, request.request_id, WireStatus::kDeadlineExceeded,
                "deadline expired while queued");
      return;
    }
    case AdmissionGate::Result::kShutdown: {
      c_rejected_shutdown_->Inc();
      SendError(conn, request.request_id, WireStatus::kShuttingDown,
                "daemon is draining");
      return;
    }
    case AdmissionGate::Result::kAdmitted:
      break;
  }
  const double queue_wait_us = ElapsedUs(received);
  if (obs::TraceContext* tctx = obs::CurrentTrace()) {
    // Admission wait measured from frame receipt; the span is backdated so
    // it renders in its true position on the request's timeline.
    tctx->AddSpan(obs::Stage::kQueueWait, obs::NowUs() - queue_wait_us,
                  queue_wait_us);
  }
  if (options_.debug_plan_delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(options_.debug_plan_delay_ms));
  }
  // Deadlines gate the *start* of planning: a request that expired while
  // queued is dropped here; once planning begins it always completes (a
  // session mutation must never be half-reported).
  if (deadline != Clock::time_point::max() && Clock::now() > deadline) {
    gate_->Release();
    c_shed_deadline_->Inc();
    SendError(conn, request.request_id, WireStatus::kDeadlineExceeded,
              "deadline expired before planning started");
    return;
  }

  PlanRequest plan_request;
  plan_request.batch = &request.batch;
  plan_request.cost_model = &cost_model_;
  plan_request.fabric = &fabric_;
  plan_request.options = request.options;
  if (is_session) {
    plan_request.stream_id = SessionKey(conn.id, request.stream_id);
    // The service rebases from scratch when the session has no base; only
    // pass the delta when it will actually be consumed (mirror in lockstep).
    if (mirror_based && request.delta.has_value()) {
      plan_request.delta = &*request.delta;
    }
    if (request.topology.has_value()) {
      plan_request.topology = &*request.topology;
    }
  }
  PlanResponse planned = !is_session && cache_ != nullptr
                             ? cache_->PlanAndInsert(plan_request)
                             : service_->Plan(plan_request);
  gate_->Release();

  if (is_session) {
    // Advance the mirror exactly as the service advanced: batch tracked,
    // topology folded in (the fabric state advances even on fallback).
    Connection::SessionMirror& m = conn.sessions[request.stream_id];
    if (m.topo.world() != logical_cluster_.world_size()) {
      m.topo.Reset(logical_cluster_.world_size());
    }
    if (request.topology.has_value()) {
      m.topo.Apply(*request.topology);
    }
    m.batch = std::move(request.batch);
    m.has_base = true;
  }

  if (options_.verify_before_serve && !planned.stats.verified) {
    // Certify the paths the cache did not (sessions, cache off, or a fresh
    // plan the cache refused to store). Sessions verify against the mirror's
    // topology with the balance clause off: degraded/heterogeneous session
    // plans balance *effective* load under state the certifier should not
    // re-derive here, but coverage, conservation, arena and dead-rank
    // placement are all still enforced.
    const Connection::SessionMirror* m =
        is_session ? &conn.sessions[request.stream_id] : nullptr;
    PlanVerifyOptions vopts;
    vopts.token_capacity = 0;
    vopts.eps = -1;
    vopts.world = logical_cluster_.world_size();
    const PlanVerifyResult verdict =
        VerifyPlan(*planned.plan, is_session ? &m->batch : &request.batch,
                   is_session ? &m->topo : nullptr, vopts);
    planned.stats.verified = verdict.ok();
    if (!verdict.ok()) {
      c_verify_failures_->Inc();
      SendError(conn, request.request_id, WireStatus::kInternal,
                "plan failed certification: " + verdict.message);
      return;
    }
  }

  WireResponse response;
  response.request_id = request.request_id;
  response.stats = planned.stats;
  response.queue_wait_us = queue_wait_us;
  response.digest = planned.digest;
  {
    obs::TraceScope encode_span(obs::Stage::kEncode);
    response.plan_bytes = SerializePlan(*planned.plan);
  }
  // Overlay the daemon-side stages (queue wait, decode, validate, encode —
  // plus plan/materialize/verify recorded by the layers below) onto the
  // planned response. kWrite cannot appear in its own response: the write
  // happens after these stats are encoded (histograms/--trace_out only).
  if (const obs::TraceContext* tctx = obs::CurrentTrace()) {
    response.stats.stage_us = tctx->stage_us;
  }
  c_requests_ok_->Inc();
  SendResponse(conn, response);
}

}  // namespace net
}  // namespace zeppelin
