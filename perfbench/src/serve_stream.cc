// serve_stream: two online-training jobs on the served setup (LLaMA-3B,
// 512 GPUs, fineweb). Each job owns one daemon session and runs closed loop:
// every step sends a WorkloadStream delta (1% churn) plus the step's
// FaultStream topology delta (kill rate 0.0002 per rank, restored after 4
// steps: about one rank loss every ~10 steps). Session requests bypass the
// cache and mostly the full partition, so the delta patch, elastic
// migration or rebase, the session mirrors, and per-plan verify / encode /
// parse dominate. The only workload that measures core/delta_planner.
//
// One caller thread drives both sessions, a step of each in turn, one
// request in flight; each request is timed in the CPU time of every thread
// of the process (see ThreadGroupCpu).
#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>

#include "perfbench/src/served.h"
#include "src/core/plan_service.h"
#include "src/data/datasets.h"
#include "src/data/stream.h"

namespace perfbench {

using namespace zeppelin;

namespace {

constexpr int kJobs = 2;
constexpr double kChurn = 0.01;
constexpr double kFaultRate = 0.0002;
constexpr int kRestoreAfter = 4;
// Every kEpochSteps steps a job starts a new data shard: a fresh stream from
// a newly sampled batch, sent without a delta, so the session re-bases
// (re-deriving its capacity). Churn keeps a stream's sequence count fixed,
// so without new shards a job's first batch would set the cost of all its
// steps, and a run's figures would rest on two draws.
constexpr int kEpochSteps = 128;
// sim_tokens_per_s: the session plans at steps 0, kSimStride, ... of each job.
constexpr int kSimStride = 16;
constexpr int kSimSamples = 24;
constexpr int kMinSteps = kSimStride * (kSimSamples - 1) + 1;
// Re-timed replies per job in the traced run (client parse + verify).
constexpr int kKeepSamples = 16;

uint64_t JobSeed(uint64_t seed, int job) { return seed * 1000003ULL + 17ULL * (job + 1); }

// Job `job`'s stream over the data shard of epoch `epoch`.
std::unique_ptr<WorkloadStream> MakeStream(uint64_t seed, int job, int epoch) {
  const uint64_t shard_seed = JobSeed(seed, job) + 7919ULL * static_cast<uint64_t>(epoch);
  BatchSampler sampler(MakeFinewebDistribution(), kServeBatchTokens, shard_seed);
  StreamOptions sopts;
  sopts.stream_id = "job" + std::to_string(job);
  sopts.churn_fraction = kChurn;
  return std::make_unique<WorkloadStream>(MakeFinewebDistribution(), sampler.NextBatch(), sopts,
                                          shard_seed + 1);
}

struct StreamJob {
  uint64_t seed = 0;
  int index = 0;
  std::unique_ptr<net::PlanClient> client;
  std::unique_ptr<WorkloadStream> workload;
  std::unique_ptr<FaultStream> faults;
  int steps = 0;
  std::vector<Reply> replies;  // One per step, in step order.
  // Plans (and their batches) at the sampled steps, for simulation.
  std::vector<std::pair<std::shared_ptr<const PartitionPlan>, Batch>> sim_plans;
  std::vector<int64_t> sim_capacity;
  std::deque<Batch> sample_batches;  // Batches of the re-timed replies.
  std::vector<SampledReply> samples;
};

std::unique_ptr<StreamJob> MakeJob(uint64_t seed, int job, int port) {
  auto j = std::make_unique<StreamJob>();
  j->seed = seed;
  j->index = job;
  j->client = std::make_unique<net::PlanClient>("127.0.0.1", port, ServeClientOptions());
  j->workload = MakeStream(seed, job, 0);
  FaultStreamOptions fopts;
  fopts.fault_rate = kFaultRate;
  fopts.restore_after = kRestoreAfter;
  j->faults = std::make_unique<FaultStream>(ServeCluster().world_size(), fopts,
                                            JobSeed(seed, job) + 2);
  return j;
}

// Draws step `step` (> 0) of `job`: the step's topology delta, and the next
// churn delta or, on the first step of an epoch, a new shard (no delta).
void Advance(StreamJob& job, int step, BatchDelta* delta, TopologyDelta* topology) {
  if (step % kEpochSteps == 0) {
    job.workload = MakeStream(job.seed, job.index, step / kEpochSteps);
  } else {
    *delta = job.workload->Next();
  }
  *topology = job.faults->Next();
}

// One closed-loop step: the first step of every epoch (re)bases the session
// with a full plan, every other step sends the next batch delta; every step
// after the first carries the step's topology delta.
void Step(StreamJob& job, const ThreadGroupCpu& cpu, int keep_samples) {
  Reply r;
  r.batch = job.steps;
  net::WireRequest request;
  request.stream_id = job.workload->stream_id();
  if (job.steps > 0) {
    BatchDelta delta;
    TopologyDelta topology;
    Advance(job, job.steps, &delta, &topology);
    if (job.steps % kEpochSteps != 0) {
      request.delta = std::move(delta);
    }
    if (!topology.empty()) {
      request.topology = std::move(topology);
    }
  }
  request.batch = job.workload->batch();
  const double c0 = cpu.Us();
  r.send_us = NowUs();
  net::PlanClientResult res = job.client->Plan(std::move(request));
  r.done_us = NowUs();
  r.cpu_us = cpu.Us() - c0;
  r.status = res.status;
  r.digest = res.digest;
  r.delta = res.stats.delta_outcome;
  r.partition_us = res.stats.partition_time_us;
  r.stage_us = res.stats.stage_us;
  job.replies.push_back(r);
  if (res.ok() && job.steps % kSimStride == 0 &&
      static_cast<int>(job.sim_plans.size()) < kSimSamples) {
    job.sim_plans.push_back({res.plan, job.workload->batch()});
    job.sim_capacity.push_back(res.stats.token_capacity);
  }
  if (res.ok() && static_cast<int>(job.samples.size()) < keep_samples) {
    job.sample_batches.push_back(job.workload->batch());
    job.samples.push_back({std::move(res.plan_bytes), &job.sample_batches.back()});
  }
  ++job.steps;
}

struct StreamSetup {
  std::unique_ptr<net::PlannerDaemon> daemon;
  std::vector<std::unique_ptr<StreamJob>> jobs;
};

// Builds the workload: a started daemon and one connected job per session.
// Drops whatever `setup` held first.
void BuildSetup(uint64_t seed, StreamSetup* setup) {
  setup->jobs.clear();
  setup->daemon = std::make_unique<net::PlannerDaemon>(ServeModel(), ServeCluster());
  std::string error;
  if (!setup->daemon->Start(&error)) {
    std::fprintf(stderr, "daemon start failed: %s\n", error.c_str());
    std::exit(1);
  }
  for (int j = 0; j < kJobs; ++j) {
    setup->jobs.push_back(MakeJob(seed, j, setup->daemon->port()));
    if (!setup->jobs.back()->client->Ping().ok()) {
      std::fprintf(stderr, "daemon ping failed\n");
      std::exit(1);
    }
  }
}

// Runs both jobs closed loop, a step of each in turn, for `seconds` (and at
// least until every job passed the last sampled step), calling `between`
// after each round, outside its timed windows. Returns the replies.
std::vector<Reply> RunPhase(std::vector<std::unique_ptr<StreamJob>>& jobs,
                            const ThreadGroupCpu& cpu, double seconds, int keep_samples,
                            const std::function<void()>& between) {
  const double start = NowUs();
  while ((NowUs() - start) / 1e6 < seconds || jobs.back()->steps < kMinSteps) {
    for (auto& job : jobs) {
      Step(*job, cpu, keep_samples);
    }
    between();
  }
  std::vector<Reply> replies;
  for (const auto& job : jobs) {
    replies.insert(replies.end(), job->replies.begin(), job->replies.end());
  }
  return replies;
}

// Replays job `job`'s deltas into an in-process twin session and compares
// the digest sequences.
void CheckTwin(const StreamJob& served, uint64_t seed, int job, const Trainer& trainer,
               RunResult* result) {
  PlannerService twin;
  const std::unique_ptr<StreamJob> replay = MakeJob(seed, job, 0);
  for (int step = 0; step < served.steps; ++step) {
    const Reply& r = served.replies[step];
    ++result->attempted;
    BatchDelta delta;
    TopologyDelta topology;
    if (step > 0) {
      Advance(*replay, step, &delta, &topology);
    }
    if (r.status != net::WireStatus::kOk) {
      result->Fail("job " + std::to_string(job) + " step " + std::to_string(step) + ": " +
                   net::WireStatusName(r.status));
      continue;
    }
    PlanRequest request;
    request.batch = &replay->workload->batch();
    request.cost_model = &trainer.cost_model();
    request.fabric = &trainer.fabric();
    request.stream_id = replay->workload->stream_id();
    request.delta = step % kEpochSteps != 0 ? &delta : nullptr;
    request.topology = topology.empty() ? nullptr : &topology;
    if (twin.Plan(request).digest != r.digest) {
      result->Fail("job " + std::to_string(job) + " step " + std::to_string(step) +
                   ": session digest differs from the in-process twin");
    }
  }
}

}  // namespace

RunResult RunServeStream(const RunConfig& config) {
  RunResult result;
  StreamSetup setup;
  const Trainer trainer(ServeModel(), ServeCluster());
  SetupTimer setup_timer(kSetupEverySeconds);
  for (int i = 0; i < kSetupsBefore; ++i) {
    setup_timer.Time([&] { BuildSetup(config.seed, &setup); });
  }
  SpeedProbe probe(kProbeEverySeconds);
  const auto between = [&] {
    probe.MaybeRun();
    setup_timer.MaybeTime([&] {
      StreamSetup scratch;
      BuildSetup(config.seed, &scratch);
    });
  };
  net::PlannerDaemon* daemon = setup.daemon.get();
  std::vector<std::unique_ptr<StreamJob>>& jobs = setup.jobs;
  std::printf("serve_stream: LLaMA-3B, cluster A, 512 GPUs, fineweb, %d closed-loop sessions, "
              "churn %.2f, kill rate %.4f restored after %d steps\n",
              kJobs, kChurn, kFaultRate, kRestoreAfter);

  // Every daemon thread (acceptor, reaper, one per connection) runs by now.
  const ThreadGroupCpu cpu;
  const DaemonStages before = DaemonStages::Read(*daemon);
  const std::vector<Reply> replies =
      RunPhase(jobs, cpu, config.seconds, config.trace ? kKeepSamples : 0, between);
  const DaemonStages after = DaemonStages::Read(*daemon);

  // Output checks, outside every timed window.
  for (int j = 0; j < kJobs; ++j) {
    CheckTwin(*jobs[j], config.seed, j, trainer, &result);
  }
  SimTally sims;
  DecisionTally decisions;
  SpanRecorder off(false);
  for (const auto& job : jobs) {
    for (size_t i = 0; i < job->sim_plans.size(); ++i) {
      ZeppelinStrategy strategy;
      sims.Add(SimulatePlan(strategy, job->sim_plans[i].first, job->sim_plans[i].second, trainer,
                            off, -1, 0));
      decisions.Add(ReadDecisions(*job->sim_plans[i].first, job->sim_capacity[i]));
    }
  }
  std::vector<double> cpu_ms;
  std::vector<double> wall_ms;
  double cpu_s = 0;
  for (const Reply& r : replies) {
    cpu_ms.push_back(r.cpu_us / 1e3);
    wall_ms.push_back(r.wall_ms());
    cpu_s += r.cpu_us / 1e6;
  }
  const double n = static_cast<double>(replies.size());
  std::printf("%zu set-ups timed; %zu requests over %zu threads, %.2f CPU s; wall per request "
              "p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (printed, not bounded)\n",
              setup_timer.samples(), replies.size(), cpu.threads(), cpu_s, Percentile(wall_ms, 0.5),
              Percentile(wall_ms, 0.9), Percentile(wall_ms, 0.99));

  if (!config.trace) {
    const double success =
        1.0 - static_cast<double>(result.failed) / std::max<double>(1, result.attempted);
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    result.Set("success_rate", success, "ratio");
    SetTimedMetrics(setup_timer, probe, cpu_ms, &result);
    result.Set("sim_tokens_per_s", sims.sum.tokens_per_second / std::max(1.0, sims.n), "tokens/s");
    return result;
  }

  ZeroPerLayer(&result);
  std::vector<SampledReply> samples;
  for (const auto& job : jobs) {
    samples.insert(samples.end(), job->samples.begin(), job->samples.end());
  }
  const ClientSplit client = RetimeClient(samples, ServeCluster().world_size());
  ReportServedLayers(replies, before, after, client, &result);
  decisions.Report(&result);
  sims.Report(&result);

  // Delta planner outcomes, read from each reply's PlanStats.
  double applied = 0;
  double patch_us = 0;
  double rebased = 0;
  double rebase_us = 0;
  std::map<DeltaOutcome, double> reasons;
  for (const Reply& r : replies) {
    if (r.delta == DeltaOutcome::kApplied || r.delta == DeltaOutcome::kAppliedTopology) {
      applied += 1;
      patch_us += r.partition_us;
    } else {
      rebased += 1;
      rebase_us += r.partition_us;
      reasons[r.delta] += 1;
    }
  }
  // A rebase is a full partition: report it as the partition layer's calls.
  result.Set("partition.us", rebased > 0 ? rebase_us / rebased : 0, "us");
  result.Set("partition.calls", rebased, "count");
  result.Set("delta.applied_ratio", applied / std::max(1.0, n), "ratio");
  result.Set("delta.patch_us", applied > 0 ? patch_us / applied : 0, "us");
  result.Set("delta.rebase_us", rebased > 0 ? rebase_us / rebased : 0, "us");
  const std::pair<DeltaOutcome, const char*> kReasons[] = {
      {DeltaOutcome::kRebasedNoBase, "no_base"},     {DeltaOutcome::kRebasedChurn, "churn"},
      {DeltaOutcome::kRebasedZone, "zone"},          {DeltaOutcome::kRebasedRefined, "refined"},
      {DeltaOutcome::kRebasedCapacity, "capacity"},  {DeltaOutcome::kRebasedImbalance, "imbalance"},
      {DeltaOutcome::kRebasedTopology, "topology"},  {DeltaOutcome::kRebasedMigration, "migration"},
  };
  for (const auto& [outcome, name] : kReasons) {
    result.Set(std::string("delta.rebases_by_reason.") + name, reasons[outcome], "count");
  }
  // As on serve_sweep, the spans are built from the replies after the run, so
  // obs.* stay 0.
  SpanRecorder spans(true);
  RecordReplySpans(replies, spans);
  ReportSpans(spans, "serve_stream", config, n);
  return result;
}

}  // namespace perfbench
