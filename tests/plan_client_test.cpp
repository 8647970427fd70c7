// PlanClient (src/net/plan_client.h) failure handling without a real daemon:
// the deterministic capped-exponential backoff schedule, retry behavior
// against injected connection failures (dead port, accept-then-close, and
// accept-then-stall servers), the idempotency rule — stateless requests
// retry up to the cap with recorded backoff sleeps, session plan requests
// surface the first transport error with no retry and no sleep — a typed
// reply that arrives while the request is still being sent, and
// kPlanRejected for canned responses the client must not trust.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/plan_io.h"
#include "src/core/plan_service.h"
#include "src/data/datasets.h"
#include "src/model/transformer.h"
#include "src/net/plan_client.h"
#include "src/net/wire.h"
#include "src/topology/cluster.h"
#include "src/topology/path.h"

namespace zeppelin {
namespace net {
namespace {

// A server that accepts connections and then misbehaves on purpose: closes
// at once, never answers, answers every request with a canned response
// (under the request's own id), or rejects each request after its frame
// header the way the daemon rejects an oversized frame — one typed error
// frame, then close with the rest of the request unread.
class EvilServer {
 public:
  enum class Mode { kCloseImmediately, kStall, kCanned, kRejectHeader };

  explicit EvilServer(Mode mode, WireResponse canned = {})
      : mode_(mode), canned_(std::move(canned)) {
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
        continue;
      }
      if (mode_ == Mode::kRejectHeader) {
        RejectHeader(fd);
        ::close(fd);
        continue;
      }
      if (mode_ == Mode::kCanned) {
        Answer(fd);
      }
      held_.push_back(fd);  // kStall never responds; the client must time out.
    }
  }

  void Answer(int fd) {
    FrameDecoder decoder;
    Frame frame;
    char buf[4096];
    while (decoder.Next(&frame) == FrameStatus::kIncomplete) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        return;
      }
      decoder.Feed(buf, static_cast<size_t>(n));
    }
    WireRequest request;
    std::string error;
    ParseRequest(frame.payload, &request, &error);
    WireResponse response = canned_;
    response.request_id = request.request_id;
    std::string out;
    AppendResponseFrame(response, &out);
    ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
  }

  void RejectHeader(int fd) {
    char header[kFrameHeaderBytes];
    if (::recv(fd, header, sizeof(header), MSG_WAITALL) != static_cast<ssize_t>(sizeof(header))) {
      return;
    }
    WireResponse response;
    response.status = WireStatus::kOversizedFrame;
    response.message = "framing error: oversized";
    std::string out;
    AppendResponseFrame(response, &out);
    ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
  }

  Mode mode_;
  WireResponse canned_;
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

// The server answers after the header and closes with most of the request
// unread, so the client's send fails. The typed reply that arrived first
// must still be the result: not a transport error, and no resend.
TEST(PlanClientTest, TypedReplyToAPartlySentRequestIsNotRetried) {
  EvilServer server(EvilServer::Mode::kRejectHeader);
  std::vector<int> sleeps;
  PlanClientOptions options = RecordingOptions(&sleeps, 3);
  options.request_timeout_ms = 5000;
  PlanClient client("127.0.0.1", server.port(), options);

  WireRequest request;
  request.batch.seq_lens.assign(size_t{4} << 20, 100);  // A 32 MiB frame.
  const PlanClientResult result = client.Plan(std::move(request));
  EXPECT_EQ(result.status, WireStatus::kOversizedFrame) << result.message;
  EXPECT_EQ(result.attempts, 1);
  EXPECT_TRUE(sleeps.empty());
  EXPECT_EQ(server.accepted(), 1);
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

// --- kPlanRejected: responses the client must not trust ----------------------

// A real plan for `batch` on a small cluster, and its wire image.
struct CannedPlan {
  Batch batch;
  PlanResponse planned;
  std::string bytes;

  explicit CannedPlan(uint64_t seed) {
    const LengthDistribution dist = DatasetByName("github");
    Rng rng(seed);
    for (int i = 0; i < 64; ++i) {
      batch.seq_lens.push_back(dist.Sample(rng));
    }
    const ClusterSpec cluster = MakeClusterA(2);
    const FabricResources fabric(cluster);
    const CostModel cost_model(MakeLlama3B(), cluster);
    PlannerService service;
    PlanRequest request;
    request.batch = &batch;
    request.cost_model = &cost_model;
    request.fabric = &fabric;
    planned = service.Plan(request);
    bytes = SerializePlan(*planned.plan);
  }

  WireResponse Response() const {
    WireResponse response;
    response.digest = planned.digest;
    response.plan_bytes = bytes;
    return response;
  }
};

PlanClientResult PlanAgainst(const WireResponse& canned, const Batch& batch) {
  EvilServer server(EvilServer::Mode::kCanned, canned);
  std::vector<int> sleeps;
  PlanClient client("127.0.0.1", server.port(), RecordingOptions(&sleeps, 0));
  WireRequest request;
  request.batch = batch;
  return client.Plan(std::move(request));
}

TEST(PlanClientTest, HonestCannedResponseIsAccepted) {
  const CannedPlan canned(1);
  const PlanClientResult result = PlanAgainst(canned.Response(), canned.batch);
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_EQ(result.digest, canned.planned.digest);
  EXPECT_EQ(result.plan_bytes, canned.bytes);
}

TEST(PlanClientTest, CorruptPlanBytesAreRejected) {
  const CannedPlan canned(2);
  WireResponse response = canned.Response();
  // 40 bytes from the end is inside tokens_per_rank (before the two node
  // thresholds and the 8-byte digest trailer): the plan no longer digests to
  // its trailer.
  response.plan_bytes[response.plan_bytes.size() - 40] ^= 0x5a;
  const PlanClientResult result = PlanAgainst(response, canned.batch);
  EXPECT_EQ(result.status, WireStatus::kPlanRejected) << result.message;
  EXPECT_NE(result.message.find("plan bytes rejected"), std::string::npos) << result.message;
  EXPECT_EQ(result.plan, nullptr);
}

TEST(PlanClientTest, AuthenticPlanForAnotherBatchIsRejected) {
  // Digest-valid bytes that certify fine for their own batch, answered to a
  // request for a different one: VerifyPlan against the request batch fails.
  const CannedPlan canned(3);
  const CannedPlan other(4);
  const PlanClientResult result = PlanAgainst(canned.Response(), other.batch);
  EXPECT_EQ(result.status, WireStatus::kPlanRejected) << result.message;
  EXPECT_NE(result.message.find("certification"), std::string::npos) << result.message;
  EXPECT_EQ(result.plan, nullptr);
}

TEST(PlanClientTest, HeaderDigestMustMatchThePlanBytes) {
  const CannedPlan canned(5);
  WireResponse response = canned.Response();
  response.digest ^= 1;
  const PlanClientResult result = PlanAgainst(response, canned.batch);
  EXPECT_EQ(result.status, WireStatus::kPlanRejected) << result.message;
  EXPECT_NE(result.message.find("digest"), std::string::npos) << result.message;
  EXPECT_EQ(result.plan, nullptr);
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
