// PlannerDaemon (src/net/planner_daemon.h) + PlanClient end to end over real
// sockets: byte-identity of remotely-planned plans vs the in-process
// PlannerService across engines and across a delta-stream session, session
// reaping on abrupt disconnect and idle timeout on either direction, while a
// queued or planning request outlives it (PlanStats::session_count
// back to baseline — the leak regression), typed rejection of oversized
// frames and replies / malformed requests / bad semantics with the connection surviving
// where the framing allows it, bounded admission (kOverloaded), per-request
// deadlines (kDeadlineExceeded), graceful drain (kShuttingDown), session
// privacy across connections, the cache's hit path (hits encode nothing and
// repeat the miss's bytes; a permutation is a miss planned for its own slot
// order), and the client's own stage timings.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/plan_io.h"
#include "src/core/plan_service.h"
#include "src/data/datasets.h"
#include "src/data/stream.h"
#include "src/model/transformer.h"
#include "src/net/plan_client.h"
#include "src/net/planner_daemon.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/topology/cluster.h"
#include "src/topology/path.h"

namespace zeppelin {
namespace net {
namespace {

Batch SampleBatch(int num_seqs, uint64_t seed) {
  const LengthDistribution dist = DatasetByName("github");
  Rng rng(seed);
  Batch batch;
  batch.seq_lens.reserve(num_seqs);
  for (int i = 0; i < num_seqs; ++i) {
    batch.seq_lens.push_back(dist.Sample(rng));
  }
  return batch;
}

// A daemon plus the identically-configured in-process surface it must be
// byte-equivalent to.
struct DaemonRig {
  TransformerConfig model = MakeLlama3B();
  ClusterSpec cluster = MakeClusterA(2);
  FabricResources fabric{cluster};
  CostModel cost_model{model, cluster};
  PlannerService local;
  PlannerDaemon daemon;

  explicit DaemonRig(DaemonOptions options = {}) : daemon(model, cluster, options) {
    std::string error;
    if (!daemon.Start(&error)) {
      ADD_FAILURE() << "daemon start failed: " << error;
    }
  }

  PlanClient Client(PlanClientOptions options = {}) {
    return PlanClient("127.0.0.1", daemon.port(), options);
  }

  PlanResponse LocalPlan(const Batch& batch, const PlanningOptions& options,
                         const std::string& stream_id = "",
                         const BatchDelta* delta = nullptr) {
    PlanRequest request;
    request.batch = &batch;
    request.cost_model = &cost_model;
    request.fabric = &fabric;
    request.options = options;
    request.stream_id = stream_id;
    request.delta = delta;
    return local.Plan(request);
  }
};

bool WaitFor(const std::function<bool()>& cond, int timeout_ms = 3000) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return cond();
}

// Waits until the slow request holds the daemon's single admission permit.
bool WaitForPermitHeld(PlannerDaemon& daemon) {
  const obs::Gauge* active = daemon.service().metrics().GetGauge("daemon.active_plans");
  return WaitFor([&] { return active->value() == 1; });
}

// A plain TCP connection to the daemon, for tests that write raw frames or
// misbehave as a peer. `rcvbuf` > 0 sets SO_RCVBUF before connecting, which
// bounds the window the daemon may fill. -1 on failure.
int ConnectRaw(int port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(PlannerDaemonTest, StatelessByteIdentityAcrossEngines) {
  // Every case differs in its options, so each one misses the cache and its
  // engine runs.
  DaemonRig rig(DaemonOptions{.max_concurrent_plans = 4});
  PlanClient client = rig.Client();
  const Batch batch = SampleBatch(512, 7);

  struct EngineCase {
    const char* name;
    PlanningOptions options;
  };
  const EngineCase cases[] = {
      {"sharded", {}},
      {"zone-aware", {.zone_aware_thresholds = true}},
  };
  for (const EngineCase& c : cases) {
    WireRequest request;
    request.options = c.options;
    request.batch = batch;
    const PlanClientResult remote = client.Plan(std::move(request));
    ASSERT_TRUE(remote.ok()) << c.name << ": " << remote.message;
    EXPECT_EQ(remote.attempts, 1) << c.name;
    ASSERT_NE(remote.plan, nullptr) << c.name;

    const PlanResponse local = rig.LocalPlan(batch, c.options);
    EXPECT_EQ(remote.digest, local.digest) << c.name;
    EXPECT_EQ(remote.stats.engine, local.stats.engine) << c.name;
    EXPECT_EQ(remote.stats.token_capacity, local.stats.token_capacity) << c.name;
    // The acceptance currency: the bytes that crossed the wire are the bytes
    // the in-process service serializes.
    EXPECT_EQ(remote.plan_bytes, SerializePlan(*local.plan)) << c.name;
  }
}

TEST(PlannerDaemonTest, DeltaSessionMatchesInProcess) {
  DaemonRig rig;
  PlanClient client = rig.Client();
  const LengthDistribution dist = DatasetByName("github");
  WorkloadStream stream(dist, SampleBatch(1024, 11),
                        StreamOptions{.churn_fraction = 0.01}, 99);
  PlanningOptions options;

  int patched = 0;
  for (int it = 0; it <= 20; ++it) {
    BatchDelta delta;
    if (it > 0) {
      delta = stream.Next();
    }
    WireRequest request;
    request.stream_id = "twin";
    request.options = options;
    request.batch = stream.batch();
    if (it > 0) {
      request.delta = delta;
    }
    const PlanClientResult remote = client.Plan(std::move(request));
    ASSERT_TRUE(remote.ok()) << "iteration " << it << ": " << remote.message;
    EXPECT_TRUE(remote.stats.verified) << "iteration " << it;
    EXPECT_EQ(remote.stats.cache_outcome, CacheOutcome::kBypass) << "iteration " << it;

    const PlanResponse local = rig.LocalPlan(stream.batch(), options, "twin",
                                             it > 0 ? &delta : nullptr);
    ASSERT_EQ(remote.digest, local.digest) << "iteration " << it;
    EXPECT_EQ(remote.stats.delta_outcome, local.stats.delta_outcome)
        << "iteration " << it;
    EXPECT_EQ(remote.plan_bytes, SerializePlan(*local.plan)) << "iteration " << it;
    if (remote.stats.delta_outcome == DeltaOutcome::kApplied) {
      ++patched;
    }
  }
  // The stream must actually exercise the patch path, not rebase throughout.
  EXPECT_GT(patched, 10);
  EXPECT_EQ(rig.daemon.counters().verify_failures, 0u);

  const PlanClientResult closed = client.CloseSession("twin");
  ASSERT_TRUE(closed.ok());
  EXPECT_EQ(rig.daemon.service().session_count(), 0u);
}

TEST(PlannerDaemonTest, AbruptDisconnectReapsSessions) {
  DaemonRig rig;
  const Batch batch = SampleBatch(256, 3);
  const size_t baseline = rig.daemon.service().session_count();
  {
    PlanClient client = rig.Client();
    for (const char* stream : {"a", "b"}) {
      WireRequest request;
      request.stream_id = stream;
      request.batch = batch;
      ASSERT_TRUE(client.Plan(std::move(request)).ok());
    }
    EXPECT_EQ(rig.daemon.service().session_count(), baseline + 2);
    // Destructor closes the socket abruptly — no CloseSession requests.
  }
  EXPECT_TRUE(WaitFor([&] {
    return rig.daemon.service().session_count() == baseline;
  })) << "sessions leaked after abrupt disconnect: "
      << rig.daemon.service().session_count();
  EXPECT_TRUE(WaitFor([&] { return rig.daemon.counters().sessions_reaped >= 2; }));
}

TEST(PlannerDaemonTest, IdleConnectionsAreReaped) {
  DaemonRig rig(DaemonOptions{.idle_timeout_ms = 100});
  PlanClient client = rig.Client();
  WireRequest request;
  request.stream_id = "idle";
  request.batch = SampleBatch(128, 5);
  ASSERT_TRUE(client.Plan(std::move(request)).ok());
  EXPECT_EQ(rig.daemon.service().session_count(), 1u);
  // No further traffic: the reader's receive times out, and it closes the
  // connection and its session.
  EXPECT_TRUE(WaitFor([&] { return rig.daemon.service().session_count() == 0; }));
  EXPECT_TRUE(WaitFor([&] { return rig.daemon.connection_count() == 0; }));
}

// Idle means waiting on the peer. A plan that takes longer than the idle
// timeout, and a request queued behind it for longer than that, are both
// served; neither connection is cut off mid-request.
TEST(PlannerDaemonTest, SlowRequestOutlivesIdleTimeout) {
  DaemonRig rig(DaemonOptions{.max_concurrent_plans = 1,
                              .idle_timeout_ms = 100,
                              .debug_plan_delay_ms = 300});
  PlanClient slow = rig.Client(PlanClientOptions{.max_retries = 0});
  std::thread holder([&] {
    WireRequest request;
    request.stream_id = "slow";
    request.batch = SampleBatch(128, 29);
    const PlanClientResult served = slow.Plan(std::move(request));
    EXPECT_EQ(served.status, WireStatus::kOk) << served.message;
  });
  ASSERT_TRUE(WaitForPermitHeld(rig.daemon));

  // Waits ~300 ms for the permit, then plans for 300 ms.
  PlanClient queued = rig.Client(PlanClientOptions{.max_retries = 0});
  WireRequest request;
  request.batch = SampleBatch(128, 31);
  const PlanClientResult served = queued.Plan(std::move(request));
  EXPECT_EQ(served.status, WireStatus::kOk) << served.message;
  holder.join();
  EXPECT_EQ(rig.daemon.counters().requests_ok, 2u);
}

// A peer that sends a request and never reads the reply: the reply (far
// larger than the peer's 4 KiB window) stalls the daemon's send, the send
// timeout ends the connection, and its session is reaped.
TEST(PlannerDaemonTest, UndrainedReplyEndsAtTheIdleTimeout) {
  DaemonRig rig(DaemonOptions{.idle_timeout_ms = 100});
  const int fd = ConnectRaw(rig.daemon.port(), /*rcvbuf=*/4096);
  ASSERT_GE(fd, 0);
  WireRequest request;
  request.stream_id = "undrained";
  request.batch.seq_lens.assign(200000, 64);  // A plan image of over 1 MB.
  std::string out;
  AppendRequestFrame(request, &out);
  ASSERT_EQ(::send(fd, out.data(), out.size(), 0), static_cast<ssize_t>(out.size()));

  ASSERT_TRUE(WaitFor([&] { return rig.daemon.counters().requests_ok == 1; }));
  EXPECT_TRUE(WaitFor([&] {
    return rig.daemon.connection_count() == 0 && rig.daemon.service().session_count() == 0;
  }));
  EXPECT_EQ(rig.daemon.counters().sessions_reaped, 1u);
  ::close(fd);
}

TEST(PlannerDaemonTest, OversizedFrameTypedRejection) {
  DaemonRig rig(DaemonOptions{.max_frame_bytes = 4096});
  PlanClient client = rig.Client();
  // ~64k seqs encode far past the 4 KiB daemon cap (the client's own cap is
  // the default, so the frame goes out).
  WireRequest request;
  request.batch.seq_lens.assign(65536, 100);
  const PlanClientResult rejected = client.Plan(std::move(request));
  EXPECT_EQ(rejected.status, WireStatus::kOversizedFrame) << rejected.message;
  EXPECT_EQ(rig.daemon.counters().malformed_frames, 1u);

  // The daemon closed that connection; a fresh (stateless, hence retryable)
  // request transparently reconnects and succeeds.
  WireRequest good;
  good.batch = SampleBatch(64, 1);
  const PlanClientResult ok = client.Plan(std::move(good));
  ASSERT_TRUE(ok.ok()) << ok.message;
}

// A request under the daemon's frame cap whose plan reply is over it: the
// reply is refused with a typed status instead of a frame the client's
// decoder could not accept, and the connection keeps serving.
TEST(PlannerDaemonTest, OversizedReplyTypedAndConnectionSurvives) {
  DaemonRig rig(DaemonOptions{.max_frame_bytes = 64 << 10});
  PlanClient client = rig.Client(PlanClientOptions{.max_frame_bytes = 64 << 10});
  // 6,000 locals: a ~48 KB request and a ~100 KB plan image.
  WireRequest request;
  request.batch.seq_lens.assign(6000, 64);
  const PlanClientResult refused = client.Plan(std::move(request));
  EXPECT_EQ(refused.status, WireStatus::kOversizedFrame) << refused.message;
  EXPECT_NE(refused.message.find("exceeds max_frame_bytes"), std::string::npos)
      << refused.message;
  EXPECT_EQ(rig.daemon.counters().oversized_replies, 1u);
  EXPECT_EQ(rig.daemon.counters().requests_ok, 0u);

  WireRequest good;
  good.batch = SampleBatch(64, 0x7c5);
  const PlanClientResult served = client.Plan(std::move(good));
  ASSERT_TRUE(served.ok()) << served.message;
  EXPECT_EQ(served.attempts, 1);
  EXPECT_EQ(rig.daemon.counters().connections_accepted, 1u);
  EXPECT_EQ(rig.daemon.counters().malformed_frames, 0u);
}

TEST(PlannerDaemonTest, MalformedRequestKeepsConnection) {
  DaemonRig rig;
  const int fd = ConnectRaw(rig.daemon.port());
  ASSERT_GE(fd, 0);

  // A well-framed kRequest whose payload is garbage: typed kMalformedRequest,
  // connection stays up (framing is still in sync).
  std::string out;
  AppendFrame(FrameType::kRequest, "not a request", &out);
  // Option flag bits 2 and 3 once selected the naive and serial engines, and
  // a clear bit 0 the global-ring layout: a request still asking for any of
  // them is malformed too, and gets no plan.
  for (uint8_t flags : {uint8_t{1u | 1u << 2}, uint8_t{1u | 1u << 3}, uint8_t{0}}) {
    WireRequest request;
    request.batch = SampleBatch(64, 3);
    std::string payload = EncodeRequest(request);
    const size_t flags_at = 4 + 1 + 8 + 4 + 4;  // Empty stream id.
    ASSERT_EQ(payload[flags_at], 1) << "bit 0 is always set";
    payload[flags_at] = static_cast<char>(flags);
    AppendFrame(FrameType::kRequest, payload, &out);
  }
  // Followed on the same connection by a valid request, which must succeed.
  WireRequest good;
  good.request_id = 42;
  good.batch = SampleBatch(64, 2);
  AppendRequestFrame(good, &out);
  ASSERT_EQ(::send(fd, out.data(), out.size(), 0), static_cast<ssize_t>(out.size()));

  FrameDecoder decoder(kDefaultMaxFrameBytes);
  std::vector<WireResponse> responses;
  char buf[16384];
  while (responses.size() < 5) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "daemon closed the connection after a malformed request";
    decoder.Feed(buf, static_cast<size_t>(n));
    Frame frame;
    while (decoder.Next(&frame) == FrameStatus::kOk) {
      WireResponse response;
      std::string error;
      ASSERT_EQ(ParseResponse(frame.type, frame.payload, &response, &error),
                WireStatus::kOk)
          << error;
      responses.push_back(std::move(response));
    }
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(responses[i].status, WireStatus::kMalformedRequest) << i;
    EXPECT_TRUE(responses[i].plan_bytes.empty()) << i;
  }
  EXPECT_EQ(responses[4].status, WireStatus::kOk);
  EXPECT_EQ(responses[4].request_id, 42u);
  ::close(fd);
}

TEST(PlannerDaemonTest, BadSemanticsTypedAndNoPartialMutation) {
  DaemonRig rig;
  PlanClient client = rig.Client();
  const Batch batch = SampleBatch(256, 13);

  {  // Empty batch.
    WireRequest request;
    EXPECT_EQ(client.Plan(std::move(request)).status, WireStatus::kBadRequest);
  }
  {  // Infeasible explicit capacity.
    WireRequest request;
    request.batch = batch;
    request.options.token_capacity = 1;
    EXPECT_EQ(client.Plan(std::move(request)).status, WireStatus::kBadRequest);
  }
  {  // Stateless requests may not carry deltas.
    WireRequest request;
    request.batch = batch;
    request.delta.emplace();
    EXPECT_EQ(client.Plan(std::move(request)).status, WireStatus::kBadRequest);
  }

  // Establish a session, then attack its delta path: every malformed delta is
  // rejected with kBadDelta and must leave the session state untouched.
  WireRequest base;
  base.stream_id = "s";
  base.batch = batch;
  ASSERT_TRUE(client.Plan(std::move(base)).ok());

  WorkloadStream stream(DatasetByName("github"), batch,
                        StreamOptions{.churn_fraction = 0.05}, 7);
  const BatchDelta delta = stream.Next();
  ASSERT_FALSE(delta.removed.empty() && delta.resized.empty() &&
               delta.added.empty());

  {  // Slot out of range.
    WireRequest request;
    request.stream_id = "s";
    request.batch = stream.batch();
    request.delta.emplace();
    request.delta->removed.push_back(batch.size() + 100);
    EXPECT_EQ(client.Plan(std::move(request)).status, WireStatus::kBadDelta);
  }
  {  // Delta that does not reproduce the request batch.
    WireRequest request;
    request.stream_id = "s";
    request.batch = stream.batch();
    request.delta.emplace();  // Empty delta != the churn the batch carries.
    EXPECT_EQ(client.Plan(std::move(request)).status, WireStatus::kBadDelta);
  }
  {  // Topology removing an out-of-range rank.
    WireRequest request;
    request.stream_id = "s";
    request.batch = batch;
    request.topology.emplace();
    request.topology->removed_ranks.push_back(10000);
    EXPECT_EQ(client.Plan(std::move(request)).status, WireStatus::kBadDelta);
  }

  // The true delta still applies cleanly afterwards: the rejected requests
  // mutated nothing (in-process twin session proves byte equivalence).
  WireRequest good;
  good.stream_id = "s";
  good.batch = stream.batch();
  good.delta = delta;
  const PlanClientResult remote = client.Plan(std::move(good));
  ASSERT_TRUE(remote.ok()) << remote.message;

  PlanningOptions options;
  rig.LocalPlan(batch, options, "twin");
  const PlanResponse local = rig.LocalPlan(stream.batch(), options, "twin", &delta);
  EXPECT_EQ(remote.digest, local.digest);
  EXPECT_EQ(remote.plan_bytes, SerializePlan(*local.plan));
  EXPECT_GE(rig.daemon.counters().bad_requests, 6u);
}

TEST(PlannerDaemonTest, BatchShapeCapsAreTypedBadRequests) {
  DaemonRig rig;
  PlanClient client = rig.Client();
  // Both batches pass parse (lengths <= kMaxWireSeqLen, counts <= 2^24).
  // The first's token total is past the cap; the second has one sequence
  // past the planner's packed-key id range, which used to abort the daemon.
  WireRequest over_tokens;
  over_tokens.batch.seq_lens.assign(kMaxPlanTokens / kMaxWireSeqLen + 1, kMaxWireSeqLen);
  WireRequest over_count;
  over_count.batch.seq_lens.assign(kMaxPlanSeqs + 1, 1);
  const PlanClientResult rejected = client.Plan(std::move(over_tokens));
  EXPECT_EQ(rejected.status, WireStatus::kBadRequest);
  EXPECT_NE(rejected.message.find("total-token cap"), std::string::npos) << rejected.message;
  const PlanClientResult too_many = client.Plan(std::move(over_count));
  EXPECT_EQ(too_many.status, WireStatus::kBadRequest);
  EXPECT_NE(too_many.message.find("sequence-count cap"), std::string::npos) << too_many.message;
  EXPECT_EQ(rig.daemon.counters().bad_requests, 2u);

  // The connection survives: the same one then serves a valid request.
  WireRequest good;
  good.batch = SampleBatch(64, 0x7c4);
  const PlanClientResult served = client.Plan(std::move(good));
  ASSERT_TRUE(served.ok()) << served.message;
  EXPECT_EQ(served.attempts, 1);
  EXPECT_EQ(rig.daemon.counters().connections_accepted, 1u);
  EXPECT_EQ(rig.daemon.counters().bad_requests, 2u);
}

TEST(PlannerDaemonTest, OverloadShedsBeyondBoundedQueue) {
  DaemonRig rig(DaemonOptions{.max_concurrent_plans = 1,
                              .queue_limit = 0,
                              .debug_plan_delay_ms = 150});
  const Batch batch = SampleBatch(128, 17);
  PlanClient slow = rig.Client();
  std::thread holder([&] {
    WireRequest request;
    request.batch = batch;
    EXPECT_TRUE(slow.Plan(std::move(request)).ok());
  });
  ASSERT_TRUE(WaitForPermitHeld(rig.daemon));

  PlanClient shed_client = rig.Client(PlanClientOptions{.max_retries = 0});
  WireRequest request;
  request.batch = batch;
  const PlanClientResult shed = shed_client.Plan(std::move(request));
  EXPECT_EQ(shed.status, WireStatus::kOverloaded) << shed.message;
  EXPECT_EQ(shed.attempts, 1);
  holder.join();
  EXPECT_GE(rig.daemon.counters().shed_overload, 1u);
}

TEST(PlannerDaemonTest, DeadlineExpiresWhileQueued) {
  DaemonRig rig(DaemonOptions{.max_concurrent_plans = 1,
                              .queue_limit = 8,
                              .debug_plan_delay_ms = 150});
  const Batch batch = SampleBatch(128, 19);
  PlanClient slow = rig.Client();
  std::thread holder([&] {
    WireRequest request;
    request.batch = batch;
    EXPECT_TRUE(slow.Plan(std::move(request)).ok());
  });
  ASSERT_TRUE(WaitForPermitHeld(rig.daemon));

  PlanClient hurried = rig.Client();
  WireRequest request;
  request.batch = batch;
  request.deadline_ms = 50;  // Expires long before the 150 ms plan finishes.
  const PlanClientResult dropped = hurried.Plan(std::move(request));
  EXPECT_EQ(dropped.status, WireStatus::kDeadlineExceeded) << dropped.message;
  // Deadline failures are terminal, never retried.
  EXPECT_EQ(dropped.attempts, 1);
  holder.join();
  EXPECT_GE(rig.daemon.counters().shed_deadline, 1u);
}

TEST(PlannerDaemonTest, DrainRejectsNewWorkThenStops) {
  DaemonRig rig;
  PlanClient client = rig.Client(PlanClientOptions{.max_retries = 0});
  WireRequest warm;
  warm.batch = SampleBatch(64, 23);
  ASSERT_TRUE(client.Plan(std::move(warm)).ok());

  rig.daemon.BeginDrain();
  WireRequest request;
  request.batch = SampleBatch(64, 23);
  const PlanClientResult rejected = client.Plan(std::move(request));
  EXPECT_EQ(rejected.status, WireStatus::kShuttingDown) << rejected.message;

  // New connections are refused while draining.
  PlanClient late = rig.Client(PlanClientOptions{.max_retries = 0});
  EXPECT_FALSE(late.Ping().ok());

  rig.daemon.Stop();
  EXPECT_TRUE(rig.daemon.stopped());
  EXPECT_EQ(rig.daemon.service().session_count(), 0u);
}

TEST(PlannerDaemonTest, SessionsArePrivatePerConnection) {
  DaemonRig rig;
  PlanClient first = rig.Client();
  PlanClient second = rig.Client();
  const Batch small = SampleBatch(128, 29);
  const Batch large = SampleBatch(512, 31);

  // Same client-side stream id, different batches: if the daemon shared the
  // session, the second base (different batch size) would clash with the
  // first session's tracked batch.
  WireRequest a;
  a.stream_id = "s";
  a.batch = small;
  ASSERT_TRUE(first.Plan(std::move(a)).ok());
  WireRequest b;
  b.stream_id = "s";
  b.batch = large;
  ASSERT_TRUE(second.Plan(std::move(b)).ok());
  EXPECT_EQ(rig.daemon.service().session_count(), 2u);

  // Each connection can still advance its own stream with a consistent delta.
  WorkloadStream stream(DatasetByName("github"), small,
                        StreamOptions{.churn_fraction = 0.01}, 5);
  const BatchDelta delta = stream.Next();
  WireRequest advance;
  advance.stream_id = "s";
  advance.batch = stream.batch();
  advance.delta = delta;
  const PlanClientResult advanced = first.Plan(std::move(advance));
  ASSERT_TRUE(advanced.ok()) << advanced.message;
}

TEST(PlannerDaemonTest, RepeatedRequestsHitTheCacheByteIdentically) {
  DaemonRig rig;
  PlanClient client = rig.Client();
  const Batch batch = SampleBatch(256, 0xcafe);

  auto plan_once = [&] {
    WireRequest request;
    request.batch = batch;
    return client.Plan(std::move(request));
  };
  const PlanClientResult first = plan_once();
  ASSERT_TRUE(first.ok()) << first.message;
  EXPECT_EQ(first.stats.cache_outcome, CacheOutcome::kMiss);
  EXPECT_TRUE(first.stats.verified);

  const PlanClientResult second = plan_once();
  const PlanClientResult third = plan_once();
  for (const PlanClientResult* hit : {&second, &third}) {
    ASSERT_TRUE(hit->ok()) << hit->message;
    EXPECT_EQ(hit->stats.cache_outcome, CacheOutcome::kHit);
    EXPECT_TRUE(hit->stats.verified);
    // Byte-identical plan image and digest, zeroed planning times: the
    // repeat contract a hit must honor.
    EXPECT_EQ(hit->plan_bytes, first.plan_bytes);
    EXPECT_EQ(hit->digest, first.digest);
    EXPECT_EQ(hit->stats.partition_time_us, 0);
    EXPECT_EQ(hit->stats.materialize_time_us, 0);
    EXPECT_EQ(hit->queue_wait_us, 0);
  }
  EXPECT_EQ(second.stats.engine, third.stats.engine);
  EXPECT_EQ(second.stats.token_capacity, third.stats.token_capacity);

  const DaemonCounters counters = rig.daemon.counters();
  EXPECT_EQ(counters.cache_misses, 1u);
  EXPECT_EQ(counters.cache_hits, 2u);
  EXPECT_EQ(counters.verify_failures, 0u);
  EXPECT_EQ(counters.requests_ok, 3u);
  // The cache counts into the service's registry, so kStats lists its
  // totals under "counters".
  const std::string json = rig.daemon.StatsJson();
  const size_t counters_at = json.find("\"counters\":{");
  const size_t gauges_at = json.find("\"gauges\":{");
  const size_t hits_at = json.find("\"cache.hits\":2");
  ASSERT_NE(hits_at, std::string::npos) << json;
  EXPECT_GT(hits_at, counters_at) << json;
  EXPECT_LT(hits_at, gauges_at) << json;
}

// Reads one histogram's count out of a metrics.v1 snapshot (0 when the
// histogram has no record yet).
uint64_t HistogramCount(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":{\"count\":";
  const size_t at = json.find(key);
  return at == std::string::npos ? 0 : std::stoull(json.substr(at + key.size()));
}

TEST(PlannerDaemonTest, CacheHitsEncodeNothing) {
  DaemonRig rig;
  PlanClient client = rig.Client();
  const Batch batch = SampleBatch(256, 0xe4c0de);
  constexpr int kRepeats = 6;
  std::vector<PlanClientResult> results;
  for (int i = 0; i < kRepeats; ++i) {
    WireRequest request;
    request.batch = batch;
    results.push_back(client.Plan(std::move(request)));
    ASSERT_TRUE(results.back().ok()) << results.back().message;
  }
  EXPECT_EQ(results.front().stats.cache_outcome, CacheOutcome::kMiss);
  for (int i = 1; i < kRepeats; ++i) {
    EXPECT_EQ(results[i].stats.cache_outcome, CacheOutcome::kHit);
    EXPECT_EQ(results[i].plan_bytes, results.front().plan_bytes);  // The miss's bytes.
    EXPECT_EQ(results[i].digest, results.front().digest);
  }
  // Histograms are recorded after the response is written.
  ASSERT_TRUE(WaitFor([&] {
    return HistogramCount(rig.daemon.StatsJson(), "request.total_us") == kRepeats;
  }));
  // Only the miss encoded a plan image: a hit sends the stored one.
  const std::string json = rig.daemon.StatsJson();
  EXPECT_EQ(HistogramCount(json, "stage_us.encode"), rig.daemon.counters().cache_misses);
  EXPECT_EQ(HistogramCount(json, "stage_us.encode"), 1u) << json;
  EXPECT_EQ(HistogramCount(json, "stage_us.cache_lookup"), static_cast<uint64_t>(kRepeats));
}

TEST(PlannerDaemonTest, PermutedBatchIsAMissPlannedForItsOwnOrder) {
  DaemonRig rig;
  PlanClient client = rig.Client();
  const Batch batch = SampleBatch(256, 0x9e4a);
  Batch permuted = batch;
  std::reverse(permuted.seq_lens.begin(), permuted.seq_lens.end());

  WireRequest first;
  first.batch = batch;
  const PlanClientResult original = client.Plan(std::move(first));
  ASSERT_TRUE(original.ok()) << original.message;
  EXPECT_EQ(original.stats.cache_outcome, CacheOutcome::kMiss);

  // The cache keys the batch as sent: the permutation is a miss, certified,
  // and its bytes are the in-process service's plan of the permuted order.
  WireRequest second;
  second.batch = permuted;
  const PlanClientResult miss = client.Plan(std::move(second));
  ASSERT_TRUE(miss.ok()) << miss.message;
  EXPECT_EQ(miss.stats.cache_outcome, CacheOutcome::kMiss);
  EXPECT_TRUE(miss.stats.verified);
  const PlanResponse local = rig.LocalPlan(permuted, PlanningOptions{});
  EXPECT_EQ(miss.digest, local.digest);
  EXPECT_EQ(miss.plan_bytes, SerializePlan(*local.plan));

  // A repeat of the permuted order is a hit of the bytes its miss stored.
  WireRequest third;
  third.batch = permuted;
  const PlanClientResult hit = client.Plan(std::move(third));
  ASSERT_TRUE(hit.ok()) << hit.message;
  EXPECT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
  EXPECT_EQ(hit.plan_bytes, miss.plan_bytes);
  const DaemonCounters counters = rig.daemon.counters();
  EXPECT_EQ(counters.cache_misses, 2u);
  EXPECT_EQ(counters.cache_hits, 1u);
  EXPECT_EQ(counters.verify_failures, 0u);
}

TEST(PlannerDaemonTest, ClientTimesItsOwnStages) {
  DaemonRig rig;
  PlanClient client = rig.Client();
  const Batch batch = SampleBatch(256, 0xc11e47);
  for (const CacheOutcome outcome : {CacheOutcome::kMiss, CacheOutcome::kHit}) {
    WireRequest request;
    request.batch = batch;
    const PlanClientResult result = client.Plan(std::move(request));
    ASSERT_TRUE(result.ok()) << result.message;
    EXPECT_EQ(result.stats.cache_outcome, outcome);
    const ClientStageUs& s = result.stage_us;
    for (const double stage : {s.encode, s.send, s.wait, s.read, s.parse, s.verify}) {
      EXPECT_GE(stage, 0.0);
    }
    EXPECT_GT(s.wait + s.read, 0.0);
    EXPECT_GT(s.parse, 0.0);
    EXPECT_GT(s.verify, 0.0);
    // The stages through the response parse lie inside the round trip (whole
    // µs, truncated).
    EXPECT_LE(s.encode + s.send + s.wait + s.read, result.rtt_us + 1.0);
  }
}

// --- observability (docs/OBSERVABILITY.md) -----------------------------------

TEST(PlannerDaemonTest, StatsRequestUnderLoad) {
  // kStats answers consistently while plan traffic is in flight: it takes no
  // admission permit, so it cannot be shed behind the planners it observes.
  DaemonRig rig(DaemonOptions{.max_concurrent_plans = 2});
  constexpr int kClients = 4;
  constexpr int kPlansPerClient = 6;
  std::atomic<int> planned{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&rig, &planned, t] {
      PlanClient client = rig.Client();
      for (int i = 0; i < kPlansPerClient; ++i) {
        WireRequest request;
        request.batch = SampleBatch(96, 0x51a75u + t * 100 + i);
        const PlanClientResult result = client.Plan(std::move(request));
        ASSERT_TRUE(result.ok()) << result.message;
        planned.fetch_add(1);
      }
    });
  }

  // Poll the introspection endpoint mid-load: every snapshot must be a
  // well-formed metrics.v1 document, never an error or a torn read.
  PlanClient observer = rig.Client();
  int mid_load_snapshots = 0;
  while (planned.load() < kClients * kPlansPerClient) {
    const PlanClientResult stats = observer.Stats();
    ASSERT_TRUE(stats.ok()) << stats.message;
    ASSERT_FALSE(stats.stats_json.empty());
    EXPECT_NE(stats.stats_json.find("\"schema\":\"zeppelin.metrics.v1\""),
              std::string::npos);
    EXPECT_NE(stats.stats_json.find("\"daemon.requests_ok\""),
              std::string::npos);
    ++mid_load_snapshots;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& c : clients) {
    c.join();
  }
  EXPECT_GE(mid_load_snapshots, 1);

  // Quiescent: the snapshot agrees with the typed counters and the request
  // histogram counted exactly the offered kPlan load (kStats is not a plan).
  constexpr int kTotal = kClients * kPlansPerClient;
  const DaemonCounters counters = rig.daemon.counters();
  EXPECT_EQ(counters.requests_ok, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(counters.shed_overload, 0u);
  // The histograms are recorded after the response bytes go out; joining the
  // clients does not mean the daemon finished observing the last request.
  ASSERT_TRUE(WaitFor([&] {
    return rig.daemon.StatsJson().find("\"request.total_us\":{\"count\":" +
                                       std::to_string(kTotal)) !=
           std::string::npos;
  }));
  const std::string json = rig.daemon.StatsJson();
  EXPECT_NE(json.find("\"daemon.requests_ok\":" + std::to_string(kTotal)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"request.total_us\":{\"count\":" +
                      std::to_string(kTotal)),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"stage_us.plan\":{\"count\":" + std::to_string(kTotal)),
            std::string::npos)
      << json;
  EXPECT_GE(rig.daemon.counters().requests_ok, counters.requests_ok);
}

TEST(PlannerDaemonTest, StageBreakdownOnWireAndZeroedOnCacheHit) {
  DaemonRig rig;
  PlanClient client = rig.Client();
  const Batch batch = SampleBatch(256, 0x57a6e5u);

  WireRequest first;
  first.batch = batch;
  const PlanClientResult miss = client.Plan(std::move(first));
  ASSERT_TRUE(miss.ok()) << miss.message;
  EXPECT_EQ(miss.stats.cache_outcome, CacheOutcome::kMiss);
  // A planned response carries its own stage breakdown on the wire (v3).
  EXPECT_GT(miss.stats.stage_us[static_cast<int>(obs::Stage::kPlan)], 0.0);
  // The write span cannot appear in its own response: the response bytes are
  // already encoded when the write happens. Histograms/trace file only.
  EXPECT_EQ(miss.stats.stage_us[static_cast<int>(obs::Stage::kWrite)], 0.0);

  // A cache hit must repeat byte-identically across requests, so its stage
  // breakdown is zeroed rather than leaking the first request's timings.
  WireRequest repeat;
  repeat.batch = batch;
  const PlanClientResult hit = client.Plan(std::move(repeat));
  ASSERT_TRUE(hit.ok()) << hit.message;
  EXPECT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
  for (int i = 0; i < obs::kNumStages; ++i) {
    EXPECT_EQ(hit.stats.stage_us[i], 0.0) << obs::StageName(
        static_cast<obs::Stage>(i));
  }
  EXPECT_EQ(hit.plan_bytes, miss.plan_bytes);
}

TEST(PlannerDaemonTest, TraceOutCoversRequestStages) {
  const std::string trace_path = ::testing::TempDir() + "/planner_daemon_trace." +
                                 std::to_string(::getpid()) + ".json";
  {
    DaemonRig rig(DaemonOptions{.trace_out = trace_path});
    PlanClient client = rig.Client();
    const Batch batch = SampleBatch(256, 0x7eace0u);
    WireRequest miss;
    miss.batch = batch;
    ASSERT_TRUE(client.Plan(std::move(miss)).ok());
    WireRequest hit;
    hit.batch = batch;
    ASSERT_TRUE(client.Plan(std::move(hit)).ok());
    ASSERT_NE(rig.daemon.trace_sink(), nullptr);
    // Spans drain after the response is written; wait rather than assume.
    ASSERT_TRUE(
        WaitFor([&] { return rig.daemon.trace_sink()->event_count() > 0; }));
    rig.daemon.Stop();  // Flushes the sink.
  }
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string trace = buffer.str();
  // The acceptance bar is >= 6 named stages on a served request; a cache-miss
  // plan emits all eight below (kMaterialize is session-path only).
  const char* expected[] = {"\"queue_wait\"", "\"decode\"",  "\"validate\"",
                            "\"cache_lookup\"", "\"plan\"",  "\"verify\"",
                            "\"encode\"",       "\"write\""};
  int found = 0;
  for (const char* stage : expected) {
    if (trace.find(stage) != std::string::npos) {
      ++found;
    } else {
      ADD_FAILURE() << "stage missing from trace: " << stage;
    }
  }
  EXPECT_GE(found, 6);
  std::remove(trace_path.c_str());
}

TEST(PlannerDaemonTest, SlowRequestLogCapturesSlowPlans) {
  // 25ms artificial plan delay against a 10ms threshold: every plan request
  // is "slow", and the typed ring records it with its slowest stage.
  DaemonRig rig(DaemonOptions{.debug_plan_delay_ms = 25,
                              .slow_request_us = 10'000.0});
  PlanClient client = rig.Client();
  WireRequest request;
  request.batch = SampleBatch(64, 0x510u);
  ASSERT_TRUE(client.Plan(std::move(request)).ok());

  ASSERT_NE(rig.daemon.slow_log(), nullptr);
  // The daemon observes the request after writing the response bytes, so the
  // client can get here first — wait for the observation, don't assume it.
  ASSERT_TRUE(
      WaitFor([&] { return rig.daemon.slow_log()->observed() >= 1; }));
  const auto entries = rig.daemon.slow_log()->entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_GE(entries[0].total_us, 10'000.0);
  EXPECT_EQ(rig.daemon.slow_log()->observed(), 1u);

  // Pings are not plan requests: they never enter the latency pipeline.
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_EQ(rig.daemon.slow_log()->observed(), 1u);
}

}  // namespace
}  // namespace net
}  // namespace zeppelin
