// PlannerService (src/core/plan_service.h): stateless plans byte-identical
// to the naive oracle, immutable handle semantics (stable across later
// requests, storage recycling never aliases a live handle), the
// multi-stream session table (independent per-stream state and fallback
// policies, per-stream twin-digest determinism), and the concurrency
// contract (N streams driven from N threads through one service, and
// concurrent stateless plans — the TSAN targets, see the sanitizer recipe
// in CMakeLists.txt).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/delta_planner.h"
#include "src/core/plan_cache.h"
#include "src/core/plan_io.h"
#include "src/core/plan_service.h"
#include "src/core/zeppelin.h"
#include "src/data/datasets.h"
#include "src/data/stream.h"
#include "src/model/transformer.h"
#include "src/sim/graph.h"
#include "src/topology/cluster.h"
#include "src/topology/path.h"

namespace zeppelin {
namespace {

constexpr double kThreshold = 0.08;
constexpr double kEps = kThreshold + 0.05;

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

int64_t SlackCapacity(const Batch& batch, const ClusterSpec& cluster) {
  const int64_t world = cluster.world_size();
  const int64_t average = (batch.total_tokens() + world - 1) / world;
  return average + average / 4;
}

struct TestRig {
  ClusterSpec cluster = MakeClusterA(2);
  FabricResources fabric{cluster};
  CostModel cost_model{MakeLlama3B(), cluster};

  PlanRequest Request(const Batch& batch) const {
    PlanRequest request;
    request.batch = &batch;
    request.cost_model = &cost_model;
    request.fabric = &fabric;
    return request;
  }
};

TEST(PlanServiceTest, StatelessByteIdenticalToDirectPartitioner) {
  TestRig rig;
  const Batch batch = SampleBatch(1024, 0xa11);
  const int64_t capacity = SlackCapacity(batch, rig.cluster);

  SequencePartitioner direct(rig.cluster, SequencePartitioner::Options{.token_capacity = capacity});
  const PartitionPlan reference = direct.PartitionNaive(batch);

  // The second request reuses the workspace the first checked back in.
  PlannerService service;
  for (int run = 0; run < 2; ++run) {
    PlanRequest request = rig.Request(batch);
    request.options.token_capacity = capacity;
    const PlanResponse response = service.Plan(request);
    ASSERT_NE(response.plan, nullptr);
    EXPECT_TRUE(*response.plan == reference) << "run=" << run;
    EXPECT_EQ(response.stats.engine, PlanEngine::kParallelSharded);
    EXPECT_EQ(response.digest, reference.StateDigest());
    EXPECT_EQ(response.stats.token_capacity, capacity);
    EXPECT_GT(response.stats.partition_time_us, 0);
  }
}

TEST(PlanServiceTest, HandlesAreImmutableAcrossLaterRequestsAndRecycling) {
  TestRig rig;
  PlannerService service;
  const Batch first = SampleBatch(512, 1);
  PlanResponse kept = service.Plan(rig.Request(first));
  const uint64_t kept_digest = kept.digest;
  const PartitionPlan kept_copy = *kept.plan;

  // Churn through more plans than the recycling pool holds, dropping each
  // handle immediately — storage reuse must never touch the live handle.
  for (int i = 0; i < PlannerService::kPlanPoolLimit + 4; ++i) {
    const Batch other = SampleBatch(512, 100 + i);
    const PlanResponse response = service.Plan(rig.Request(other));
    ASSERT_NE(response.plan, kept.plan);
  }
  EXPECT_EQ(kept.plan->StateDigest(), kept_digest);
  EXPECT_TRUE(*kept.plan == kept_copy);
}

TEST(PlanServiceTest, HandleOutlivesTheService) {
  TestRig rig;
  std::shared_ptr<const PartitionPlan> survivor;
  uint64_t digest = 0;
  {
    PlannerService service;
    const Batch batch = SampleBatch(256, 2);
    PlanResponse response = service.Plan(rig.Request(batch));
    survivor = response.plan;
    digest = response.digest;
  }
  EXPECT_EQ(survivor->StateDigest(), digest);
}

TEST(PlanServiceTest, SessionPatchesAndStaysEquivalent) {
  TestRig rig;
  PlannerService service;
  const Batch initial = SampleBatch(1024, 0xbee);
  WorkloadStream stream(DatasetByName("github"), initial,
                        StreamOptions{.stream_id = "s0", .churn_fraction = 0.01}, 0x11);

  PlanRequest base = rig.Request(stream.batch());
  base.stream_id = stream.stream_id();
  base.options.delta_replan_threshold = kThreshold;
  const PlanResponse base_response = service.Plan(base);
  EXPECT_EQ(base_response.stats.delta_outcome, DeltaOutcome::kRebasedNoBase);
  ASSERT_TRUE(service.HasSession("s0"));

  SequencePartitioner ref(
      rig.cluster,
      SequencePartitioner::Options{.token_capacity = SlackCapacity(initial, rig.cluster)});
  PlannerScratch ref_scratch;
  PartitionPlan ref_plan;
  int applied = 0;
  for (int it = 0; it < 30; ++it) {
    const BatchDelta delta = stream.Next();
    PlanRequest request = rig.Request(stream.batch());
    request.stream_id = "s0";
    request.options.delta_replan_threshold = kThreshold;
    request.delta = &delta;
    const PlanResponse response = service.Plan(request);
    applied += response.stats.delta_outcome == DeltaOutcome::kApplied ? 1 : 0;
    if (response.stats.engine == PlanEngine::kDeltaPatch) {
      EXPECT_EQ(response.stats.delta_outcome, DeltaOutcome::kApplied);
    }

    ref.set_options(
        SequencePartitioner::Options{.token_capacity = response.stats.token_capacity});
    ref.Partition(stream.batch(), &ref_scratch, &ref_plan);
    const DeltaEquivalenceResult eq =
        CheckDeltaEquivalence(*response.plan, ref_plan, stream.batch(), kEps);
    ASSERT_TRUE(eq.ok) << "iter " << it << ": " << eq.failure;
  }
  EXPECT_GT(applied, 0);

  DeltaStats stats;
  ASSERT_TRUE(service.GetSessionStats("s0", &stats));
  EXPECT_EQ(stats.count(DeltaOutcome::kApplied), applied);
}

TEST(PlanServiceTest, SessionsHaveIndependentFallbackPolicies) {
  TestRig rig;
  PlannerService service;
  const Batch initial = SampleBatch(1024, 0xcafe);

  // Same churn stream twice; the strict session re-plans every iteration
  // (threshold 0 => any churn falls back), the lenient one patches.
  for (const char* id : {"strict", "lenient"}) {
    PlanRequest base = rig.Request(initial);
    base.stream_id = id;
    base.options.delta_replan_threshold = std::string(id) == "strict" ? 0.0 : 0.5;
    service.Plan(base);
  }
  EXPECT_EQ(service.session_count(), 2u);

  WorkloadStream strict_stream(DatasetByName("github"), initial,
                               StreamOptions{.churn_fraction = 0.01}, 0x77);
  WorkloadStream lenient_stream(DatasetByName("github"), initial,
                                StreamOptions{.churn_fraction = 0.01}, 0x77);
  int strict_applied = 0;
  int lenient_applied = 0;
  for (int it = 0; it < 10; ++it) {
    const BatchDelta strict_delta = strict_stream.Next();
    PlanRequest request = rig.Request(strict_stream.batch());
    request.stream_id = "strict";
    request.options.delta_replan_threshold = 0.0;
    request.delta = &strict_delta;
    strict_applied +=
        service.Plan(request).stats.delta_outcome == DeltaOutcome::kApplied ? 1 : 0;

    const BatchDelta lenient_delta = lenient_stream.Next();
    PlanRequest lenient = rig.Request(lenient_stream.batch());
    lenient.stream_id = "lenient";
    lenient.options.delta_replan_threshold = 0.5;
    lenient.delta = &lenient_delta;
    lenient_applied +=
        service.Plan(lenient).stats.delta_outcome == DeltaOutcome::kApplied ? 1 : 0;
  }
  // Threshold 0 turns any churn into a fallback; the lenient stream patches.
  EXPECT_EQ(strict_applied, 0);
  EXPECT_GT(lenient_applied, 0);
  DeltaStats strict_stats;
  ASSERT_TRUE(service.GetSessionStats("strict", &strict_stats));
  EXPECT_EQ(strict_stats.count(DeltaOutcome::kRebasedChurn), 10);
}

TEST(PlanServiceTest, SessionLifecycle) {
  TestRig rig;
  PlannerService service;
  const Batch batch = SampleBatch(256, 9);

  PlanRequest base = rig.Request(batch);
  base.stream_id = "life";
  EXPECT_EQ(service.Plan(base).stats.delta_outcome, DeltaOutcome::kRebasedNoBase);
  EXPECT_TRUE(service.HasSession("life"));

  // A few streamed steps (patched or fallen back per policy — either way the
  // session keeps a base), then invalidation: the next request must re-base.
  WorkloadStream stream(DatasetByName("github"), batch, StreamOptions{.churn_fraction = 0.01},
                        0x3);
  DeltaOutcome last = DeltaOutcome::kRebasedNoBase;
  for (int it = 0; it < 3; ++it) {
    const BatchDelta delta = stream.Next();
    PlanRequest step = rig.Request(stream.batch());
    step.stream_id = "life";
    step.options.delta_replan_threshold = 0.5;
    step.delta = &delta;
    last = service.Plan(step).stats.delta_outcome;
  }
  EXPECT_NE(last, DeltaOutcome::kRebasedNoBase);

  service.InvalidateSession("life");
  const BatchDelta empty;
  PlanRequest after = rig.Request(stream.batch());
  after.stream_id = "life";
  after.delta = &empty;
  EXPECT_EQ(service.Plan(after).stats.delta_outcome, DeltaOutcome::kRebasedNoBase);

  EXPECT_TRUE(service.CloseSession("life"));
  EXPECT_FALSE(service.HasSession("life"));
  EXPECT_FALSE(service.CloseSession("life"));
  EXPECT_EQ(service.session_count(), 0u);
}

// Runs `streams` WorkloadStreams through `service`, one thread per stream
// when `threaded`, recording every iteration's response digest per stream.
std::vector<std::vector<uint64_t>> DriveStreams(PlannerService& service, const TestRig& rig,
                                                int streams, int iters, bool threaded) {
  std::vector<std::vector<uint64_t>> digests(streams);
  auto drive = [&](int s) {
    const Batch initial = SampleBatch(768, 0x1000 + s);
    WorkloadStream stream(DatasetByName("github"), initial,
                          StreamOptions{.stream_id = "soak-" + std::to_string(s),
                                        .churn_fraction = 0.01},
                          0x2000 + s);
    PlanRequest base = rig.Request(stream.batch());
    base.stream_id = stream.stream_id();
    base.options.delta_replan_threshold = kThreshold;
    digests[s].push_back(service.Plan(base).digest);
    for (int it = 0; it < iters; ++it) {
      const BatchDelta delta = stream.Next();
      PlanRequest request = rig.Request(stream.batch());
      request.stream_id = stream.stream_id();
      request.options.delta_replan_threshold = kThreshold;
      request.delta = &delta;
      digests[s].push_back(service.Plan(request).digest);
    }
  };
  if (threaded) {
    std::vector<std::thread> workers;
    workers.reserve(streams);
    for (int s = 0; s < streams; ++s) {
      workers.emplace_back(drive, s);
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  } else {
    for (int s = 0; s < streams; ++s) {
      drive(s);
    }
  }
  return digests;
}

TEST(PlanServiceTest, ConcurrentMultiStreamSoakIsDeterministicPerStream) {
  // The headline contract: N interleaved streams from N threads through one
  // service produce, per stream, exactly the digest sequence a serial twin
  // run produces. Run under TSAN via the sanitizer recipe (plan_service is
  // in the regex).
  constexpr int kStreams = 4;
  constexpr int kIters = 25;
  TestRig rig;

  PlannerService concurrent;
  const std::vector<std::vector<uint64_t>> threaded =
      DriveStreams(concurrent, rig, kStreams, kIters, /*threaded=*/true);
  EXPECT_EQ(concurrent.session_count(), static_cast<size_t>(kStreams));

  PlannerService serial;
  const std::vector<std::vector<uint64_t>> reference =
      DriveStreams(serial, rig, kStreams, kIters, /*threaded=*/false);

  for (int s = 0; s < kStreams; ++s) {
    ASSERT_EQ(threaded[s].size(), reference[s].size());
    for (size_t it = 0; it < threaded[s].size(); ++it) {
      EXPECT_EQ(threaded[s][it], reference[s][it]) << "stream " << s << " iter " << it;
    }
  }
}

TEST(PlanServiceTest, ConcurrentStatelessRequestsMatchSerial) {
  // Concurrent stateless requests each run the sharded engine on their own
  // thread and checked-out workspace, with no service-wide lock. Every
  // digest must equal a serial run's (TSAN target: plan_service is in the
  // sanitizer regex).
  constexpr int kThreads = 4;
  constexpr int kBatches = 12;
  TestRig rig;
  std::vector<Batch> batches;
  for (int b = 0; b < kBatches; ++b) {
    batches.push_back(SampleBatch(512, 0x1000 + b));
  }
  PlannerService serial;
  std::vector<uint64_t> expect;
  for (const Batch& batch : batches) {
    expect.push_back(serial.Plan(rig.Request(batch)).digest);
  }

  PlannerService service;
  std::vector<std::vector<uint64_t>> got(kThreads, std::vector<uint64_t>(kBatches, 0));
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Rotated start points keep every batch in flight on several threads.
      for (int i = 0; i < kBatches; ++i) {
        const int b = (t * 3 + i) % kBatches;
        got[t][b] = service.Plan(rig.Request(batches[b])).digest;
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int b = 0; b < kBatches; ++b) {
      EXPECT_EQ(got[t][b], expect[b]) << "thread " << t << " batch " << b;
    }
  }
}

TEST(PlanServiceTest, ConcurrentStatelessAndSessionTrafficCoexist) {
  TestRig rig;
  PlannerService service;
  const Batch batch = SampleBatch(512, 0xd00d);
  const uint64_t expect = service.Plan(rig.Request(batch)).digest;

  std::vector<std::thread> workers;
  std::vector<uint64_t> stateless_digests(3, 0);
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 5; ++i) {
        stateless_digests[t] = service.Plan(rig.Request(batch)).digest;
      }
    });
  }
  workers.emplace_back([&] {
    DriveStreams(service, rig, /*streams=*/1, /*iters=*/10, /*threaded=*/false);
  });
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (uint64_t digest : stateless_digests) {
    EXPECT_EQ(digest, expect);
  }
}

TEST(PlanServiceTest, ZeppelinStrategyIsAThinAdapter) {
  // The strategy surface (Plan / PlanDelta / plan_handle / partition_plan)
  // now rides on the service; its plans must match a direct service request
  // and survive the strategy re-planning.
  TestRig rig;
  const Batch batch = SampleBatch(768, 0xf00);

  ZeppelinStrategy strategy;
  strategy.Plan(batch, rig.cost_model, rig.fabric);
  const std::shared_ptr<const PartitionPlan> handle = strategy.plan_handle();
  ASSERT_NE(handle, nullptr);
  EXPECT_TRUE(*handle == strategy.partition_plan());
  const uint64_t first_digest = handle->StateDigest();

  PlannerService service;
  PlanRequest request = rig.Request(batch);
  const PlanResponse response = service.Plan(request);
  EXPECT_TRUE(*response.plan == *handle);

  // Handle stability: re-planning a different batch must not mutate it.
  strategy.Plan(SampleBatch(768, 0xf01), rig.cost_model, rig.fabric);
  EXPECT_EQ(handle->StateDigest(), first_digest);
  EXPECT_NE(strategy.plan_handle(), handle);
}

TEST(PlanServiceTest, SharedServiceAcrossStrategiesWithDistinctStreams) {
  TestRig rig;
  auto shared = std::make_shared<PlannerService>();
  ZeppelinOptions a_opts;
  a_opts.service = shared;
  a_opts.stream_id = "a";
  ZeppelinOptions b_opts;
  b_opts.service = shared;
  b_opts.stream_id = "b";
  ZeppelinStrategy a(a_opts);
  ZeppelinStrategy b(b_opts);

  WorkloadStream sa(DatasetByName("github"), SampleBatch(512, 1), StreamOptions{}, 10);
  WorkloadStream sb(DatasetByName("github"), SampleBatch(512, 2), StreamOptions{}, 20);
  a.PlanDelta(sa.batch(), BatchDelta{}, rig.cost_model, rig.fabric);
  b.PlanDelta(sb.batch(), BatchDelta{}, rig.cost_model, rig.fabric);
  EXPECT_EQ(shared->session_count(), 2u);
  for (int it = 0; it < 5; ++it) {
    const BatchDelta da = sa.Next();
    a.PlanDelta(sa.batch(), da, rig.cost_model, rig.fabric);
    const BatchDelta db = sb.Next();
    b.PlanDelta(sb.batch(), db, rig.cost_model, rig.fabric);
  }
  EXPECT_EQ(a.partition_plan().total_tokens(), sa.batch().total_tokens());
  EXPECT_EQ(b.partition_plan().total_tokens(), sb.batch().total_tokens());
  EXPECT_TRUE(a.delta_stats().has_value());
  EXPECT_TRUE(b.delta_stats().has_value());
}

TEST(PlanServiceTest, AdoptedSerializedPlanDrivesEmitLayer) {
  // Cross-process distribution in miniature: plan -> wire bytes -> fresh
  // strategy -> EmitLayer, without re-planning.
  TestRig rig;
  const Batch batch = SampleBatch(512, 0xace);
  ZeppelinStrategy producer;
  producer.Plan(batch, rig.cost_model, rig.fabric);
  const std::string bytes = SerializePlan(*producer.plan_handle());

  PartitionPlan decoded;
  ASSERT_TRUE(ParsePlan(bytes, &decoded).ok());
  auto plan = std::make_shared<const PartitionPlan>(std::move(decoded));

  ZeppelinStrategy consumer;
  consumer.AdoptPlan(plan, rig.cost_model, rig.fabric);
  EXPECT_EQ(consumer.plan_handle(), plan);
  TaskGraph graph;
  const std::vector<TaskId> done = consumer.EmitLayer(graph, Direction::kForward);
  EXPECT_EQ(static_cast<int>(done.size()), rig.cluster.world_size());
  EXPECT_GT(graph.size(), 0);
  EXPECT_EQ(consumer.LinearTokensPerRank(), producer.LinearTokensPerRank());
}

// Every malformed request PlannerDaemonTest.BadSemanticsTypedAndNoPartialMutation
// sends over the wire, plus session cases only the session's own state can
// judge, straight through PlannerService::Plan: each gets its typed status
// and no plan, and none mutates anything — the true delta afterwards patches
// to a twin session's digest, and a rejected first request opens no session.
TEST(PlanServiceTest, MalformedRequestsGetTypedRejections) {
  TestRig rig;
  PlannerService service;
  const int world = rig.cluster.world_size();
  const Batch batch = SampleBatch(256, 13);
  WorkloadStream stream(DatasetByName("github"), batch,
                        StreamOptions{.churn_fraction = 0.05}, 7);
  const BatchDelta delta = stream.Next();
  ASSERT_FALSE(delta.empty());
  const Batch& next = stream.batch();

  PlanRequest base = rig.Request(batch);
  base.stream_id = "s";
  ASSERT_EQ(service.Plan(base).status, PlanStatus::kOk);

  const Batch empty;
  const Batch no_tokens{.seq_lens = {0, 0, 0}};
  const Batch negative{.seq_lens = {128, -64}};
  // Batch-shape caps: one sequence past the packed-key id range, one length
  // past its length range (also lengths whose signed sum overflows), and a
  // token total past the cap.
  Batch too_many;
  too_many.seq_lens.assign(kMaxPlanSeqs + 1, 1);
  const Batch too_long{.seq_lens = {64, kMaxPlanSeqLen + 1}};
  const Batch overflowing{.seq_lens = {std::numeric_limits<int64_t>::max(),
                                       std::numeric_limits<int64_t>::max(), 64}};
  Batch too_many_tokens;
  too_many_tokens.seq_lens.assign(kMaxPlanTokens / (int64_t{1} << 40) + 1, int64_t{1} << 40);
  BatchDelta out_of_range;
  out_of_range.removed.push_back(batch.size() + 100);
  const BatchDelta no_churn;
  // A slot both removed and resized, against the batch ApplyBatchDelta would
  // produce from it (the resize lands, then the removal tombstones the slot).
  BatchDelta repeated;
  repeated.removed.push_back(3);
  repeated.resized.emplace_back(3, 64);
  Batch repeated_batch = batch;
  repeated_batch.seq_lens[3] = 0;
  // Same size as the tracked batch, but not what the delta produces.
  BatchDelta wrong_resize;
  wrong_resize.resized.emplace_back(5, batch.seq_lens[5] + 64);
  TopologyDelta kill_out_of_range;
  kill_out_of_range.removed_ranks.push_back(10000);
  TopologyDelta restore_alive;
  restore_alive.added_ranks.push_back(2);
  TopologyDelta kill_all;
  for (int rank = 0; rank < world; ++rank) {
    kill_all.removed_ranks.push_back(rank);
  }
  TopologyDelta bad_speed;
  bad_speed.speed_factors.emplace_back(1, std::nan(""));

  struct Case {
    const char* name;
    PlanRequest request;
    PlanStatus expected;
  };
  auto stateless = [&](const Batch& b) { return rig.Request(b); };
  auto session = [&](const Batch& b, const BatchDelta* d, const TopologyDelta* t,
                     const char* stream_id = "s") {
    PlanRequest request = rig.Request(b);
    request.stream_id = stream_id;
    request.delta = d;
    request.topology = t;
    return request;
  };
  std::vector<Case> cases = {
      {"empty batch", stateless(empty), PlanStatus::kBadRequest},
      {"no tokens", stateless(no_tokens), PlanStatus::kBadRequest},
      {"negative length", stateless(negative), PlanStatus::kBadRequest},
      {"too many sequences", stateless(too_many), PlanStatus::kBadRequest},
      {"session with too many sequences", session(too_many, nullptr, nullptr, "fresh"),
       PlanStatus::kBadRequest},
      {"length past the key range", stateless(too_long), PlanStatus::kBadRequest},
      {"overflowing lengths", stateless(overflowing), PlanStatus::kBadRequest},
      {"too many tokens", stateless(too_many_tokens), PlanStatus::kBadRequest},
      {"infeasible capacity", stateless(batch), PlanStatus::kBadRequest},
      {"non-finite threshold", stateless(batch), PlanStatus::kBadRequest},
      {"stateless delta", stateless(batch), PlanStatus::kBadRequest},
      {"slot out of range", session(next, &out_of_range, nullptr), PlanStatus::kBadDelta},
      {"delta misses the churn", session(next, &no_churn, nullptr), PlanStatus::kBadDelta},
      {"slot removed and resized", session(repeated_batch, &repeated, nullptr),
       PlanStatus::kBadDelta},
      {"same size, wrong batch", session(batch, &wrong_resize, nullptr),
       PlanStatus::kBadDelta},
      {"kill out of range", session(batch, nullptr, &kill_out_of_range),
       PlanStatus::kBadDelta},
      {"restore an alive rank", session(batch, nullptr, &restore_alive),
       PlanStatus::kBadDelta},
      {"kill every rank", session(batch, nullptr, &kill_all), PlanStatus::kBadDelta},
      {"non-finite speed", session(batch, nullptr, &bad_speed), PlanStatus::kBadDelta},
      {"first contact kills every rank", session(batch, nullptr, &kill_all, "fresh"),
       PlanStatus::kBadDelta},
  };
  cases[8].request.options.token_capacity = 1;
  cases[9].request.options.delta_replan_threshold = std::numeric_limits<double>::infinity();
  cases[10].request.delta = &delta;

  PlanCache cache(&service);
  for (const Case& c : cases) {
    const PlanResponse response = service.Plan(c.request);
    EXPECT_EQ(response.status, c.expected) << c.name;
    EXPECT_EQ(response.plan, nullptr) << c.name;
    EXPECT_FALSE(response.error.empty()) << c.name;
    // The cache answers the same, and stores nothing.
    EXPECT_EQ(cache.Plan(c.request).status, c.expected) << c.name;
  }
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(service.HasSession("fresh"));
  EXPECT_EQ(service.session_count(), 1u);

  PlanRequest good = session(next, &delta, nullptr);
  const PlanResponse remote = service.Plan(good);
  ASSERT_EQ(remote.status, PlanStatus::kOk) << remote.error;
  PlanRequest twin_base = rig.Request(batch);
  twin_base.stream_id = "twin";
  ASSERT_EQ(service.Plan(twin_base).status, PlanStatus::kOk);
  PlanRequest twin_step = session(next, &delta, nullptr, "twin");
  const PlanResponse twin = service.Plan(twin_step);
  EXPECT_EQ(remote.digest, twin.digest);
  EXPECT_EQ(remote.stats.delta_outcome, twin.stats.delta_outcome);
}

// One registry for the whole serving stack: the cache's counts and the
// session outcomes land in service.metrics(), each written once at its source.
TEST(PlanServiceTest, CacheAndSessionOutcomesCountIntoTheServiceRegistry) {
  TestRig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch batch = SampleBatch(256, 0x5eed);

  EXPECT_EQ(cache.Plan(rig.Request(batch)).stats.cache_outcome, CacheOutcome::kMiss);
  EXPECT_EQ(cache.Plan(rig.Request(batch)).stats.cache_outcome, CacheOutcome::kHit);

  std::array<uint64_t, kNumDeltaOutcomes> tally{};
  auto plan_session = [&](const Batch& b, const BatchDelta* delta) {
    PlanRequest request = rig.Request(b);
    request.stream_id = std::string("s");
    request.options.delta_replan_threshold = 0.5;
    request.delta = delta;
    const PlanResponse response = cache.Plan(request);
    if (response.status == PlanStatus::kOk) {
      ++tally[static_cast<int>(response.stats.delta_outcome)];
    }
    return response;
  };
  ASSERT_EQ(plan_session(batch, nullptr).status, PlanStatus::kOk);
  WorkloadStream stream(DatasetByName("github"), batch,
                        StreamOptions{.churn_fraction = 0.01}, 0x0c);
  for (int it = 0; it < 12; ++it) {
    const BatchDelta delta = stream.Next();
    ASSERT_EQ(plan_session(stream.batch(), &delta).status, PlanStatus::kOk) << it;
  }
  // A rejected request is not a session response: it counts nowhere.
  BatchDelta out_of_range;
  out_of_range.removed.push_back(batch.size() + 100);
  EXPECT_EQ(plan_session(stream.batch(), &out_of_range).status, PlanStatus::kBadDelta);

  const obs::MetricsSnapshot snapshot = service.metrics().Snapshot();
  auto counter = [&](const std::string& name) -> std::optional<uint64_t> {
    for (const auto& [n, value] : snapshot.counters) {
      if (n == name) {
        return value;
      }
    }
    return std::nullopt;
  };
  const PlanCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.bypasses, 14u);
  EXPECT_EQ(counter("cache.hits"), counters.hits);
  EXPECT_EQ(counter("cache.misses"), counters.misses);
  EXPECT_EQ(counter("cache.evictions"), counters.evictions);
  EXPECT_EQ(counter("cache.bypasses"), counters.bypasses);
  EXPECT_EQ(counter("cache.verify_failures"), counters.verify_failures);
  uint64_t session_responses = 0;
  for (int i = 0; i < kNumDeltaOutcomes; ++i) {
    const std::string name =
        std::string("delta.") + DeltaOutcomeName(static_cast<DeltaOutcome>(i));
    EXPECT_EQ(counter(name), tally[i]) << name;
    session_responses += tally[i];
  }
  EXPECT_EQ(session_responses, 13u);
  EXPECT_EQ(tally[static_cast<int>(DeltaOutcome::kRebasedNoBase)], 1u);
  EXPECT_GT(tally[static_cast<int>(DeltaOutcome::kApplied)], 0u);
}

}  // namespace
}  // namespace zeppelin
