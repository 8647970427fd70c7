#include "src/net/plan_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <thread>
#include <utility>

#include "src/core/plan_io.h"
#include "src/core/plan_verify.h"

namespace zeppelin {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

double Us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

int RemainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

bool SendAll(int fd, const char* data, size_t size, Clock::time_point deadline) {
  size_t sent = 0;
  while (sent < size) {
    struct pollfd pfd = {fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, RemainingMs(deadline));
    if (ready == 0) {
      return false;  // Timed out.
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

int RetryBackoffMs(int attempt, const PlanClientOptions& options) {
  // Saturating shift: once initial << attempt would pass the cap, stop
  // shifting instead of overflowing.
  int64_t backoff = options.backoff_initial_ms > 0 ? options.backoff_initial_ms : 1;
  for (int i = 0; i < attempt && backoff < options.backoff_max_ms; ++i) {
    backoff <<= 1;
  }
  if (backoff > options.backoff_max_ms) backoff = options.backoff_max_ms;
  return static_cast<int>(backoff);
}

PlanClient::PlanClient(std::string host, int port, PlanClientOptions options)
    : host_(std::move(host)), port_(port), options_(std::move(options)) {
  if (!options_.sleep_ms) {
    options_.sleep_ms = [](int ms) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    };
  }
}

PlanClient::~PlanClient() { Close(); }

void PlanClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool PlanClient::Connect(std::string* error) {
  Close();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // Non-blocking connect so the timeout is ours, not the kernel's.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "bad address: " + host_;
    ::close(fd);
    return false;
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc < 0 && errno == EINPROGRESS) {
    struct pollfd pfd = {fd, POLLOUT, 0};
    const int ready = ::poll(&pfd, 1, options_.connect_timeout_ms);
    if (ready <= 0) {
      if (error) *error = "connect timeout to " + host_;
      ::close(fd);
      return false;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
    rc = so_error == 0 ? 0 : -1;
    errno = so_error;
  }
  if (rc < 0) {
    if (error) *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;  // Left non-blocking; all I/O polls first.
  return true;
}

PlanClientResult PlanClient::Attempt(const WireRequest& request) {
  PlanClientResult result;
  // Transport failures leave the stream position unknown: drop the
  // connection so the next attempt starts on a fresh one.
  auto transport_error = [&](std::string message) {
    Close();
    result.status = WireStatus::kTransport;
    result.message = std::move(message);
    return result;
  };
  auto plan_rejected = [&](std::string message) {
    result.status = WireStatus::kPlanRejected;
    result.message = std::move(message);
    return result;
  };
  std::string error;
  if (fd_ < 0 && !Connect(&error)) {
    return transport_error(error);
  }
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::milliseconds(options_.request_timeout_ms);

  std::string out;
  AppendRequestFrame(request, &out);
  const auto encoded = Clock::now();
  result.stage_us.encode = Us(start, encoded);
  // A daemon may answer before it has read the whole request (a typed
  // kOversizedFrame after the header, then close), which fails the send.
  // The reply it sent first is still readable, so a failed send reads too,
  // and reports a transport error only when no reply arrives.
  const bool sent = SendAll(fd_, out.data(), out.size(), deadline);
  const auto send_done = Clock::now();
  result.stage_us.send = Us(encoded, send_done);
  Clock::time_point first_bytes{};
  auto read_error = [&](std::string message) {
    return transport_error(sent ? std::move(message) : "send failed or timed out");
  };

  // The reply is read straight into the decoder's buffer, 64 KiB at a time
  // as the daemon reads requests: the buffer grows geometrically with what
  // has arrived, never by the reply's declared length, so a 12-byte header
  // from a misbehaving daemon cannot make the client allocate a whole frame.
  FrameDecoder decoder(options_.max_frame_bytes);
  Frame frame;
  for (;;) {
    const FrameStatus status = decoder.Next(&frame);
    if (status == FrameStatus::kOk) {
      break;
    }
    if (status != FrameStatus::kIncomplete) {
      return read_error(std::string("response framing: ") + FrameStatusName(status));
    }
    struct pollfd pfd = {fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, RemainingMs(deadline));
    if (ready == 0) {
      return read_error("request timed out awaiting response");
    }
    if (ready < 0) {
      if (errno == EINTR) continue;
      return read_error(std::string("poll: ") + std::strerror(errno));
    }
    const std::span<char> space = decoder.Space(64 << 10);
    const ssize_t n = ::recv(fd_, space.data(), space.size(), 0);
    if (n == 0) {
      return read_error("connection closed by daemon");
    }
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return read_error(std::string("recv: ") + std::strerror(errno));
    }
    if (first_bytes == Clock::time_point{}) {
      first_bytes = Clock::now();
    }
    decoder.Commit(static_cast<size_t>(n));
  }
  const auto read_done = Clock::now();
  if (first_bytes == Clock::time_point{}) {
    first_bytes = read_done;  // The frame was already buffered.
  }
  result.stage_us.wait = Us(send_done, first_bytes);
  result.stage_us.read = Us(first_bytes, read_done);
  if (!sent) {
    Close();  // Part of the request never went out; the stream is unusable.
  }

  WireResponse response;
  std::string parse_error;
  const WireStatus parsed =
      ParseResponse(frame.type, frame.payload, &response, &parse_error);
  Clock::time_point parsed_at = Clock::now();
  result.stage_us.parse = Us(read_done, parsed_at);
  result.rtt_us = std::chrono::duration_cast<std::chrono::microseconds>(parsed_at - start).count();
  if (parsed != WireStatus::kOk) {
    return transport_error("response parse: " + parse_error);
  }
  // Error frames may carry id 0 when the daemon could not decode the request
  // far enough to learn its id (framing violations); those are addressed to
  // whatever was in flight — us. Anything else mismatched means the stream
  // is out of sync, and the only safe recovery is a fresh connection.
  const bool wildcard_error =
      frame.type == FrameType::kError && response.request_id == 0;
  if (response.request_id != request.request_id && !wildcard_error) {
    return transport_error("response id mismatch");
  }
  result.status = response.status;
  result.message = std::move(response.message);
  result.stats = response.stats;
  result.queue_wait_us = response.queue_wait_us;
  result.digest = response.digest;
  result.plan_bytes = std::move(response.plan_bytes);
  result.stats_json = std::move(response.stats_json);
  if (result.status == WireStatus::kOk && !result.plan_bytes.empty()) {
    auto plan = std::make_shared<PartitionPlan>();
    const PlanIoResult io =
        ParsePlan(result.plan_bytes, plan.get(), options_.max_world);
    if (!io.ok()) {
      return plan_rejected("plan bytes rejected: " + io.message);
    }
    // The header digest is unauthenticated; the trailer ParsePlan just
    // checked is not. Report a digest only when the two name the same plan.
    if (io.digest != result.digest) {
      return plan_rejected("response digest does not match the plan bytes");
    }
    parsed_at = Clock::now();
    result.stage_us.parse = Us(read_done, parsed_at);
    // Certify against the request batch (coverage, arena, conservation —
    // the balance clause stays off; the client cannot see the daemon's
    // topology state).
    if (request.kind == RequestKind::kPlan) {
      PlanVerifyOptions vopts;
      vopts.token_capacity = 0;
      vopts.eps = -1;
      vopts.world = options_.max_world;
      const PlanVerifyResult verdict =
          VerifyPlan(*plan, &request.batch, nullptr, vopts);
      result.stage_us.verify = Us(parsed_at, Clock::now());
      if (!verdict.ok()) {
        return plan_rejected(std::string("plan failed certification: ") +
                             PlanVerifyStatusName(verdict.status) +
                             (verdict.message.empty() ? "" : ": " + verdict.message));
      }
    }
    result.plan = std::move(plan);
  }
  return result;
}

PlanClientResult PlanClient::Roundtrip(WireRequest& request) {
  request.request_id = next_request_id_++;
  // Idempotency rule: a session *plan* mutates daemon state exactly once, so
  // it must never be blind-resent. Everything else is safe to retry.
  const bool retryable =
      request.kind != RequestKind::kPlan || request.stream_id.empty();
  PlanClientResult result;
  int attempts = 0;
  for (int attempt = 0;; ++attempt) {
    ++attempts;
    result = Attempt(request);
    result.attempts = attempts;
    const bool transient = result.status == WireStatus::kTransport ||
                           result.status == WireStatus::kOverloaded;
    if (!transient || !retryable || attempt >= options_.max_retries) {
      return result;
    }
    Close();
    options_.sleep_ms(RetryBackoffMs(attempt, options_));
  }
}

PlanClientResult PlanClient::Plan(WireRequest request) {
  request.kind = RequestKind::kPlan;
  return Roundtrip(request);
}

PlanClientResult PlanClient::Ping() {
  WireRequest request;
  request.kind = RequestKind::kPing;
  return Roundtrip(request);
}

PlanClientResult PlanClient::Stats() {
  WireRequest request;
  request.kind = RequestKind::kStats;
  return Roundtrip(request);
}

PlanClientResult PlanClient::CloseSession(const std::string& stream_id) {
  WireRequest request;
  request.kind = RequestKind::kCloseSession;
  request.stream_id = stream_id;
  return Roundtrip(request);
}

}  // namespace net
}  // namespace zeppelin
