// PlanClient (src/net/plan_client.h) failure handling without a real daemon:
// the deterministic capped-exponential backoff schedule, retry behavior
// against injected connection failures (dead port, accept-then-close, and
// accept-then-stall servers), and the idempotency rule — stateless requests
// retry up to the cap with recorded backoff sleeps, session plan requests
// surface the first transport error with no retry and no sleep.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/net/plan_client.h"
#include "src/net/wire.h"

namespace zeppelin {
namespace net {
namespace {

// A server that accepts connections and then misbehaves on purpose.
class EvilServer {
 public:
  enum class Mode { kCloseImmediately, kStall };

  explicit EvilServer(Mode mode) : mode_(mode) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 16);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Loop(); });
  }

  ~EvilServer() {
    stop_ = true;
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
    for (int fd : held_) {
      ::close(fd);
    }
  }

  int port() const { return port_; }
  int accepted() const { return accepted_.load(); }

 private:
  void Loop() {
    while (!stop_.load()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        break;
      }
      ++accepted_;
      if (mode_ == Mode::kCloseImmediately) {
        ::close(fd);
      } else {
        held_.push_back(fd);  // Never respond; the client must time out.
      }
    }
  }

  Mode mode_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> accepted_{0};
  std::thread thread_;
  std::vector<int> held_;
};

// Grabs a port that is guaranteed closed (bound, then released).
int DeadPort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

PlanClientOptions RecordingOptions(std::vector<int>* sleeps, int max_retries) {
  PlanClientOptions options;
  options.connect_timeout_ms = 200;
  options.request_timeout_ms = 200;
  options.max_retries = max_retries;
  options.backoff_initial_ms = 10;
  options.backoff_max_ms = 1000;
  options.sleep_ms = [sleeps](int ms) { sleeps->push_back(ms); };
  return options;
}

TEST(PlanClientTest, BackoffScheduleIsCappedExponential) {
  PlanClientOptions options;
  options.backoff_initial_ms = 10;
  options.backoff_max_ms = 1000;
  const int expected[] = {10, 20, 40, 80, 160, 320, 640, 1000, 1000, 1000};
  for (int attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(RetryBackoffMs(attempt, options), expected[attempt]) << attempt;
  }
  // Degenerate initial values clamp to a 1 ms floor and never overflow.
  options.backoff_initial_ms = 0;
  EXPECT_EQ(RetryBackoffMs(0, options), 1);
  EXPECT_EQ(RetryBackoffMs(62, options), 1000);
}

TEST(PlanClientTest, ConnectFailureRetriesStatelessWithBackoff) {
  std::vector<int> sleeps;
  PlanClient client("127.0.0.1", DeadPort(), RecordingOptions(&sleeps, 3));
  const PlanClientResult result = client.Ping();
  EXPECT_EQ(result.status, WireStatus::kTransport);
  EXPECT_EQ(result.attempts, 4);  // 1 try + 3 retries.
  EXPECT_EQ(sleeps, (std::vector<int>{10, 20, 40}));
}

TEST(PlanClientTest, SessionPlanIsNeverAutoRetried) {
  EvilServer server(EvilServer::Mode::kCloseImmediately);
  std::vector<int> sleeps;
  PlanClient client("127.0.0.1", server.port(), RecordingOptions(&sleeps, 3));

  WireRequest session;
  session.stream_id = "stream-a";
  session.batch.seq_lens = {100, 200, 300};
  const PlanClientResult result = client.Plan(std::move(session));
  EXPECT_EQ(result.status, WireStatus::kTransport);
  // Exactly one attempt, no backoff sleeps: the client cannot know whether
  // the daemon applied the session mutation, so a blind resend is forbidden.
  EXPECT_EQ(result.attempts, 1);
  EXPECT_TRUE(sleeps.empty());
}

TEST(PlanClientTest, StatelessPlanRetriesToTheCap) {
  EvilServer server(EvilServer::Mode::kCloseImmediately);
  std::vector<int> sleeps;
  PlanClient client("127.0.0.1", server.port(), RecordingOptions(&sleeps, 2));

  WireRequest stateless;
  stateless.batch.seq_lens = {100, 200, 300};
  const PlanClientResult result = client.Plan(std::move(stateless));
  EXPECT_EQ(result.status, WireStatus::kTransport);
  EXPECT_EQ(result.attempts, 3);  // 1 try + 2 retries, each a fresh connect.
  EXPECT_EQ(sleeps, (std::vector<int>{10, 20}));
  EXPECT_GE(server.accepted(), 3);
}

TEST(PlanClientTest, CloseSessionIsIdempotentAndRetried) {
  EvilServer server(EvilServer::Mode::kCloseImmediately);
  std::vector<int> sleeps;
  PlanClient client("127.0.0.1", server.port(), RecordingOptions(&sleeps, 2));
  const PlanClientResult result = client.CloseSession("stream-a");
  EXPECT_EQ(result.status, WireStatus::kTransport);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(sleeps, (std::vector<int>{10, 20}));
}

TEST(PlanClientTest, RequestTimeoutSurfacesAsTransport) {
  EvilServer server(EvilServer::Mode::kStall);
  std::vector<int> sleeps;
  PlanClient client("127.0.0.1", server.port(), RecordingOptions(&sleeps, 1));
  const PlanClientResult result = client.Ping();
  EXPECT_EQ(result.status, WireStatus::kTransport);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(sleeps, (std::vector<int>{10}));
}

TEST(PlanClientTest, StatsIsIdempotentAndRetried) {
  // kStats carries no stream state, so like Ping it retries through
  // transport failures instead of surfacing the first one.
  EvilServer server(EvilServer::Mode::kCloseImmediately);
  std::vector<int> sleeps;
  PlanClient client("127.0.0.1", server.port(), RecordingOptions(&sleeps, 2));
  const PlanClientResult result = client.Stats();
  EXPECT_EQ(result.status, WireStatus::kTransport);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(sleeps, (std::vector<int>{10, 20}));
}

// --- wire version -----------------------------------------------------------
//
// Parsers accept exactly kWireVersion. Any other version word — older,
// newer, or garbage — is a typed kMalformedRequest naming the version, for
// requests and responses alike. Real encodes are rewritten in place through
// their little-endian version word.

void PatchVersion(std::string* payload, uint32_t version) {
  for (int i = 0; i < 4; ++i) {
    (*payload)[i] = static_cast<char>((version >> (8 * i)) & 0xff);
  }
}

TEST(WireVersionTest, OnlyTheCurrentVersionParses) {
  WireRequest plan;
  plan.request_id = 22;
  plan.batch.seq_lens = {128, 256, 512};
  WireRequest stats;
  stats.request_id = 23;
  stats.kind = RequestKind::kStats;
  WireResponse ok;
  ok.request_id = 21;
  ok.status = WireStatus::kOk;
  ok.digest = 0xfeed;
  ok.plan_bytes = "plan";
  ok.stats_json = "{\"schema\":\"zeppelin.metrics.v1\"}";
  const std::string requests[] = {EncodeRequest(plan), EncodeRequest(stats)};
  const std::string response = EncodeResponse(ok);

  std::string error;
  for (const std::string& payload : requests) {
    WireRequest parsed;
    ASSERT_EQ(ParseRequest(payload, &parsed, &error), WireStatus::kOk) << error;
  }
  WireResponse parsed_response;
  ASSERT_EQ(ParseResponse(FrameType::kResponse, response, &parsed_response, &error),
            WireStatus::kOk)
      << error;

  for (uint32_t version : {0u, 1u, 2u, 4u, 0xffffffffu}) {
    for (std::string payload : requests) {
      PatchVersion(&payload, version);
      WireRequest parsed;
      error.clear();
      EXPECT_EQ(ParseRequest(payload, &parsed, &error), WireStatus::kMalformedRequest)
          << "request version " << version;
      EXPECT_NE(error.find("unknown request version"), std::string::npos) << error;
    }
    std::string payload = response;
    PatchVersion(&payload, version);
    WireResponse parsed;
    error.clear();
    EXPECT_EQ(ParseResponse(FrameType::kResponse, payload, &parsed, &error),
              WireStatus::kMalformedRequest)
        << "response version " << version;
    EXPECT_NE(error.find("unknown response version"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace net
}  // namespace zeppelin
