#include "src/net/planner_daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "src/common/check.h"

namespace zeppelin {
namespace net {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

std::string SessionKey(uint64_t conn_id, const std::string& stream_id) {
  return std::string("c").append(std::to_string(conn_id)).append("/").append(stream_id);
}

// Sends every part, in order, with gather writes: a partial write resumes
// inside the part it stopped in.
bool SendAll(int fd, std::initializer_list<std::string_view> parts) {
  constexpr size_t kMaxParts = 3;
  ZCHECK(parts.size() <= kMaxParts) << "a frame is sent in at most " << kMaxParts << " parts";
  iovec iov[kMaxParts];
  size_t count = 0;
  for (const std::string_view part : parts) {
    if (!part.empty()) {
      iov[count++] = {const_cast<char*>(part.data()), part.size()};
    }
  }
  iovec* next = iov;
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    for (size_t sent = static_cast<size_t>(n); sent > 0;) {
      const size_t step = std::min(sent, next->iov_len);
      next->iov_base = static_cast<char*>(next->iov_base) + step;
      next->iov_len -= step;
      sent -= step;
      if (next->iov_len == 0) {
        ++next;
        --count;
      }
    }
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

// One client connection. Owned jointly by the connection map (then the
// finished list) and the reader thread; `streams` is touched only by the
// reader thread, so it needs no lock.
struct PlannerDaemon::Connection {
  int fd = -1;
  uint64_t id = 0;
  std::thread thread;
  std::mutex write_mu;
  // Stream ids with a service session opened over this connection, closed
  // when it ends. The sessions' state lives in the service alone.
  std::unordered_set<std::string> streams;
};

namespace {

// The wire's own rule on a plan request, on top of CheckPlanRequest (which
// owns every batch-shape limit).
bool WithinWireLimits(const WireRequest& request, std::string* why) {
  if (request.stream_id.empty() && request.topology.has_value()) {
    // In-process stateless requests ignore a topology; the wire refuses it.
    *why = "topology deltas require a session (non-empty stream id)";
    return false;
  }
  return true;
}

WireStatus ToWireStatus(PlanStatus status) {
  switch (status) {
    case PlanStatus::kOk:
      return WireStatus::kOk;
    case PlanStatus::kBadRequest:
      return WireStatus::kBadRequest;
    case PlanStatus::kBadDelta:
      return WireStatus::kBadDelta;
  }
  return WireStatus::kInternal;
}

}  // namespace

PlannerDaemon::PlannerDaemon(const TransformerConfig& model, const ClusterSpec& cluster,
                             DaemonOptions options)
    : model_(model),
      logical_cluster_(ApplyTensorParallelism(cluster, options.tensor_parallel)),
      fabric_(logical_cluster_),
      cost_model_(model, logical_cluster_, options.tensor_parallel),
      options_(options),
      cache_(&service_) {
  options_.max_frame_bytes = std::min(options_.max_frame_bytes, kFrameHardCap);
  // Instrument registration is a construction-time event: the request path
  // only ever touches the returned pointers (relaxed atomics, no registry
  // lock). The names are the "zeppelin.metrics.v1" catalog
  // (docs/OBSERVABILITY.md).
  obs::MetricsRegistry& metrics = service_.metrics();
  c_connections_accepted_ = metrics.GetCounter("daemon.connections_accepted");
  c_connections_refused_ = metrics.GetCounter("daemon.connections_refused");
  c_requests_ok_ = metrics.GetCounter("daemon.requests_ok");
  c_shed_overload_ = metrics.GetCounter("daemon.shed_overload");
  c_shed_deadline_ = metrics.GetCounter("daemon.shed_deadline");
  c_rejected_shutdown_ = metrics.GetCounter("daemon.rejected_shutdown");
  c_malformed_frames_ = metrics.GetCounter("daemon.malformed_frames");
  c_malformed_requests_ = metrics.GetCounter("daemon.malformed_requests");
  c_bad_requests_ = metrics.GetCounter("daemon.bad_requests");
  c_sessions_reaped_ = metrics.GetCounter("daemon.sessions_reaped");
  c_stats_requests_ = metrics.GetCounter("daemon.stats_requests");
  c_oversized_replies_ = metrics.GetCounter("daemon.oversized_replies");
  g_queue_depth_ = metrics.GetGauge("daemon.queue_depth");
  g_active_plans_ = metrics.GetGauge("daemon.active_plans");
  g_connections_ = metrics.GetGauge("daemon.connections");
  g_sessions_ = metrics.GetGauge("daemon.sessions");
  for (int i = 0; i < obs::kNumStages; ++i) {
    h_stage_[i] = metrics.GetHistogram(
        std::string("stage_us.") + obs::StageName(static_cast<obs::Stage>(i)));
  }
  h_request_us_ = metrics.GetHistogram("request.total_us");
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
  return true;
}

void PlannerDaemon::BeginDrain() { draining_ = true; }

void PlannerDaemon::Stop() {
  if (!started_.load() || stopped_.load()) {
    return;
  }
  draining_ = true;
  stopping_ = true;
  // Wake queued requests (they reply kShuttingDown) and the blocked
  // accept(), which fails once the listening socket is shut down.
  gate_->Shutdown();
  ::shutdown(listen_fd_, SHUT_RDWR);
  acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  // Unblock every reader (shutdown wakes recv with EOF) and wait for it to
  // finish. Readers reap their own sessions and park themselves in
  // finished_ on the way out; the acceptor is gone, so no reader starts or
  // is joined meanwhile.
  std::vector<std::shared_ptr<Connection>> live;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [id, conn] : conns_) {
      ::shutdown(conn->fd, SHUT_RDWR);
      live.push_back(conn);
    }
  }
  for (auto& conn : live) {
    conn->thread.join();
  }
  JoinFinished();
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
  out.oversized_replies = c_oversized_replies_->value();
  const PlanCacheCounters cache = cache_.counters();
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  out.cache_evictions = cache.evictions;
  out.verify_failures = cache.verify_failures;
  return out;
}

std::string PlannerDaemon::StatsJson() {
  // The connection and session levels are read at snapshot time; every other
  // instrument is already live.
  g_connections_->Set(static_cast<int64_t>(connection_count()));
  g_sessions_->Set(static_cast<int64_t>(service_.session_count()));
  return obs::MetricsToJson(service_.metrics().Snapshot());
}

size_t PlannerDaemon::connection_count() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

void PlannerDaemon::AcceptLoop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (stopping_.load()) {
      if (fd >= 0) {
        ::close(fd);
      }
      break;
    }
    JoinFinished();
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
    if (options_.idle_timeout_ms > 0) {
      // Idle means a reader blocked this long on the peer: in recv, waiting
      // for the next request, or in sendmsg, on a reply the peer does not
      // drain. A request queued at the gate or planning is never idle.
      const timeval idle{.tv_sec = options_.idle_timeout_ms / 1000,
                         .tv_usec = options_.idle_timeout_ms % 1000 * 1000};
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &idle, sizeof(idle));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &idle, sizeof(idle));
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    c_connections_accepted_->Inc();
    {
      // The reader is started under the lock that publishes the connection:
      // a reader that finishes at once moves itself to finished_ under the
      // same lock, and whoever joins it from there must see `thread`
      // assigned.
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->id = next_conn_id_++;
      conns_[conn->id] = conn;
      conn->thread = std::thread([this, conn] { ServeConnection(conn); });
    }
  }
}

void PlannerDaemon::JoinFinished() {
  std::vector<std::shared_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    finished.swap(finished_);
  }
  for (auto& conn : finished) {
    // Stop() has already joined the readers it woke.
    if (conn->thread.joinable()) {
      conn->thread.join();
    }
    ::close(conn->fd);
  }
}

void PlannerDaemon::ServeConnection(const std::shared_ptr<Connection>& conn) {
  FrameDecoder decoder(options_.max_frame_bytes);
  bool close_conn = false;
  while (!close_conn && !stopping_.load()) {
    // Reads land in the decoder's buffer directly. A read is sized by what
    // has arrived, never by a frame's declared length: a 12-byte header
    // cannot make the daemon allocate a whole frame.
    const std::span<char> space = decoder.Space(64 << 10);
    const ssize_t n = ::recv(conn->fd, space.data(), space.size(), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;  // EOF, error, idle timeout, or a shutdown() wakeup.
    }
    decoder.Commit(static_cast<size_t>(n));
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
  // The peer sees EOF now; the socket is closed when the thread is joined.
  ::shutdown(conn->fd, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(conn->id);
  finished_.push_back(conn);
}

void PlannerDaemon::ReapSessions(Connection& conn) {
  if (conn.streams.empty()) {
    return;
  }
  uint64_t reaped = 0;
  for (const std::string& stream_id : conn.streams) {
    if (service_.CloseSession(SessionKey(conn.id, stream_id))) {
      ++reaped;
    }
  }
  conn.streams.clear();
  c_sessions_reaped_->Inc(reaped);
}

bool PlannerDaemon::SendResponse(Connection& conn, const WireResponse& response) {
  std::string out;
  AppendResponseFrame(response, &out);
  return SendFrame(conn, {out});
}

bool PlannerDaemon::SendFrame(Connection& conn, std::initializer_list<std::string_view> parts) {
  // kWrite covers the socket write. It necessarily lands *after* the
  // response's own stats were encoded, so it reaches the stage histograms
  // and --trace_out but never its own response's stage_us.
  obs::TraceScope write_span(obs::Stage::kWrite);
  std::lock_guard<std::mutex> lock(conn.write_mu);
  const bool ok = SendAll(conn.fd, parts);
  if (!ok) {
    // A failed or timed-out write may leave part of a frame on the stream:
    // end the connection rather than send the next reply after it.
    ::shutdown(conn.fd, SHUT_RDWR);
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
      service_.CloseSession(SessionKey(conn.id, request.stream_id));
      conn.streams.erase(request.stream_id);
      WireResponse response;
      response.request_id = request.request_id;
      response.stats.session_count = service_.session_count();
      return SendResponse(conn, response);
    }
    case RequestKind::kStats: {
      // Live introspection: no admission permit (the snapshot only reads
      // atomics under the registry's registration lock), so stats stay
      // answerable while every planning permit is busy.
      c_stats_requests_->Inc();
      WireResponse response;
      response.request_id = request.request_id;
      response.stats.session_count = service_.session_count();
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
  const bool is_session = !request.stream_id.empty();
  PlanRequest plan_request;
  plan_request.batch = &request.batch;
  plan_request.cost_model = &cost_model_;
  plan_request.fabric = &fabric_;
  plan_request.options = request.options;
  if (is_session) {
    plan_request.stream_id = SessionKey(conn.id, request.stream_id);
  }
  if (request.delta.has_value()) {
    plan_request.delta = &*request.delta;
  }
  if (request.topology.has_value()) {
    plan_request.topology = &*request.topology;
  }

  // The wire's own limits, then the request-only rules, checked before the
  // cache probe because hits never reach the service. Session deltas are
  // checked by the service itself, against the session state it owns
  // (docs/DAEMON.md, "Request validation").
  std::string why;
  WireStatus valid;
  {
    obs::TraceScope validate_span(obs::Stage::kValidate);
    valid = !WithinWireLimits(request, &why)
                ? WireStatus::kBadRequest
                : ToWireStatus(CheckPlanRequest(plan_request, logical_cluster_.world_size(),
                                                &why));
  }
  if (valid != WireStatus::kOk) {
    c_bad_requests_->Inc();
    SendError(conn, request.request_id, valid, why);
    return;
  }

  // Cache hits are served before (and without) an admission permit: no
  // planning happens, so a hit costs no planner capacity — and a permit-free
  // path keeps repeated responses byte-identical (zero queue wait) under any
  // load. TryServe declines session requests; a miss keeps the key it
  // derived for the insert.
  PlanCacheKey key;
  if (std::optional<PlanResponse> served = cache_.TryServe(plan_request, &key)) {
    ServePlan(conn, request.request_id, *served, /*queue_wait_us=*/0);
    return;
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

  // The cache certifies and encodes every planned response; it stores only
  // stateless ones.
  PlanResponse planned = cache_.PlanAndInsert(plan_request, key);
  gate_->Release();
  if (planned.status != PlanStatus::kOk) {
    c_bad_requests_->Inc();
    SendError(conn, request.request_id, ToWireStatus(planned.status), planned.error);
    return;
  }
  if (is_session) {
    conn.streams.insert(request.stream_id);
  }
  if (!planned.stats.verified) {
    // A plan the cache refused to certify (counted in cache.verify_failures)
    // is never served.
    SendError(conn, request.request_id, WireStatus::kInternal,
              "plan failed certification");
    return;
  }
  ServePlan(conn, request.request_id, planned, queue_wait_us);
}

void PlannerDaemon::ServePlan(Connection& conn, uint64_t request_id,
                              const PlanResponse& served, double queue_wait_us) {
  WireResponse response;
  response.request_id = request_id;
  response.stats = served.stats;
  response.queue_wait_us = queue_wait_us;
  // The digest the plan was certified under doubles as the image's trailer.
  response.digest = served.digest;
  // A planned response carries the daemon-side stages measured so far
  // (queue wait, decode, validate, cache lookup, plan, verify, encode);
  // hits keep their all-zero stage_us (byte identity). kWrite cannot appear
  // in its own response: the write happens after these stats are encoded
  // (histograms/--trace_out only).
  if (const obs::TraceContext* tctx = obs::CurrentTrace();
      tctx != nullptr && served.stats.cache_outcome != CacheOutcome::kHit) {
    response.stats.stage_us = tctx->stage_us;
  }
  // The cache's certified image goes out as it was encoded, once, by the
  // cache: the daemon writes only the header and stage block around it.
  std::string head;
  std::string tail;
  const size_t payload = FrameResponseAroundImage(response, served.image.size(), &head, &tail);
  // A reply is held to the cap requests are: a client decoding with the
  // same limit could not receive a larger frame. The connection keeps
  // serving; a session has still advanced to this plan.
  if (payload > options_.max_frame_bytes) {
    c_oversized_replies_->Inc();
    SendError(conn, request_id, WireStatus::kOversizedFrame,
              std::string("plan reply of ")
                  .append(std::to_string(payload))
                  .append(" bytes exceeds max_frame_bytes"));
    return;
  }
  c_requests_ok_->Inc();
  SendFrame(conn, {head, served.image.view(), tail});
}

}  // namespace net
}  // namespace zeppelin
