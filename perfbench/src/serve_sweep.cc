// serve_sweep: four jobs of one hyperparameter sweep share one data order and
// ask an in-process PlannerDaemon (default options: cache on,
// verify-before-serve on) for each batch's plan. Job j runs kStagger * j
// batches behind job 0, so the first request for a batch misses and the other
// three hit: misses run partition + verify + encode, hits run lookup +
// encode, and the client parses and verifies every reply. p50 sits in the hit
// mode and p90 in the miss mode.
//
// One caller thread and one connection per job; at each step the jobs ask in
// turn, one request in flight. Each request is timed in the CPU time of every
// thread of the process (client and daemon alike, see ThreadGroupCpu), so
// no other request's work lands in its figure.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "perfbench/src/served.h"
#include "src/core/plan_service.h"
#include "src/data/datasets.h"

namespace perfbench {

using namespace zeppelin;

namespace {

constexpr int kJobs = 4;
constexpr int kStagger = 2;      // Batches between consecutive jobs.
constexpr int kPoolBatches = 256;  // Data order cycles over this many batches
                                   // (twice the daemon's cache capacity).
constexpr int kSimBatches = 16;  // sim_tokens_per_s: the first 16 batches' plans.
// Re-timed replies of the traced run (client parse + verify).
constexpr int kKeepSamples = 64;

struct SweepSetup {
  std::vector<Batch> pool;
  std::unique_ptr<net::PlannerDaemon> daemon;
  std::vector<std::unique_ptr<net::PlanClient>> jobs;
};

// What one phase measured.
struct PhaseResult {
  std::vector<Reply> replies;
  std::vector<SampledReply> samples;
  double cpu_s = 0;
};

int BatchOf(int job, uint64_t k) {
  const int64_t b = static_cast<int64_t>(k) - int64_t{kStagger} * job;
  return static_cast<int>(((b % kPoolBatches) + kPoolBatches) % kPoolBatches);
}

// The first served plan of a batch, with the capacity it was planned at.
struct ServedPlan {
  std::shared_ptr<const PartitionPlan> plan;
  int64_t capacity = 0;
};

// Builds the workload: the seeded data order, a started daemon, and one
// connected client per job. Drops whatever `setup` held first.
void BuildSetup(uint64_t seed, SweepSetup* setup) {
  setup->jobs.clear();
  setup->daemon.reset();
  setup->pool.clear();
  BatchSampler sampler(MakeFinewebDistribution(), kServeBatchTokens, seed);
  for (int b = 0; b < kPoolBatches; ++b) {
    setup->pool.push_back(sampler.NextBatch());
  }
  setup->daemon = std::make_unique<net::PlannerDaemon>(ServeModel(), ServeCluster());
  std::string error;
  if (!setup->daemon->Start(&error)) {
    std::fprintf(stderr, "daemon start failed: %s\n", error.c_str());
    std::exit(1);
  }
  for (int j = 0; j < kJobs; ++j) {
    setup->jobs.push_back(std::make_unique<net::PlanClient>("127.0.0.1", setup->daemon->port(),
                                                            ServeClientOptions()));
    if (!setup->jobs.back()->Ping().ok()) {
      std::fprintf(stderr, "daemon ping failed\n");
      std::exit(1);
    }
  }
}

// Runs the sweep from data-order position `*step` on, one step (every job
// asks once) at a time, for `seconds` and at least `min_steps` steps, calling
// `between` after each step, outside its timed windows.
PhaseResult RunPhase(SweepSetup& setup, const ThreadGroupCpu& cpu, double seconds, int min_steps,
                     int keep_samples, uint64_t* step, std::vector<ServedPlan>* first_plans,
                     const std::function<void()>& between) {
  PhaseResult phase;
  const double start = NowUs();
  for (int n = 0; n < min_steps || (NowUs() - start) / 1e6 < seconds; ++n, ++*step) {
    for (int j = 0; j < kJobs; ++j) {
      Reply r;
      r.batch = BatchOf(j, *step);
      net::WireRequest request;
      request.batch = setup.pool[r.batch];
      const double c0 = cpu.Us();
      r.send_us = NowUs();
      net::PlanClientResult res = setup.jobs[j]->Plan(std::move(request));
      r.done_us = NowUs();
      r.cpu_us = cpu.Us() - c0;
      phase.cpu_s += r.cpu_us / 1e6;
      r.status = res.status;
      r.digest = res.digest;
      r.cache = res.stats.cache_outcome;
      r.stage_us = res.stats.stage_us;
      phase.replies.push_back(r);
      if (static_cast<int>(phase.samples.size()) < keep_samples && res.ok()) {
        phase.samples.push_back({std::move(res.plan_bytes), &setup.pool[r.batch]});
      }
      if (first_plans != nullptr && r.batch < kSimBatches && res.ok() &&
          (*first_plans)[r.batch].plan == nullptr) {
        (*first_plans)[r.batch] = {res.plan, res.stats.token_capacity};
      }
    }
    between();
  }
  return phase;
}

}  // namespace

RunResult RunServeSweep(const RunConfig& config) {
  RunResult result;
  SweepSetup setup;
  const Trainer trainer(ServeModel(), ServeCluster());
  SetupTimer setup_timer(kSetupEverySeconds);
  for (int i = 0; i < kSetupsBefore; ++i) {
    setup_timer.Time([&] { BuildSetup(config.seed, &setup); });
  }
  SpeedProbe probe(kProbeEverySeconds);
  const auto between = [&] {
    probe.MaybeRun();
    setup_timer.MaybeTime([&] {
      SweepSetup scratch;
      BuildSetup(config.seed, &scratch);
    });
  };
  double mean_seqs = 0;
  for (const Batch& b : setup.pool) {
    mean_seqs += b.size();
  }
  std::printf("serve_sweep: LLaMA-3B, cluster A, 512 GPUs, fineweb, %lld tokens/batch, "
              "%.0f sequences/batch on average, %d jobs\n",
              static_cast<long long>(kServeBatchTokens), mean_seqs / kPoolBatches, kJobs);

  // Every daemon thread (acceptor, reaper, one per connection) runs by now.
  const ThreadGroupCpu cpu;
  uint64_t step = 0;
  std::vector<ServedPlan> first_plans(kSimBatches);
  // Warm-up: one full pass over the data order, so the cache reaches its
  // steady state (every first visit of a batch misses from here on).
  const PhaseResult warm = RunPhase(setup, cpu, 0, kPoolBatches + kStagger * (kJobs - 1), 0, &step,
                                    &first_plans, between);
  const DaemonStages before = DaemonStages::Read(*setup.daemon);
  const PhaseResult measured = RunPhase(setup, cpu, config.seconds, 1,
                                        config.trace ? kKeepSamples : 0, &step, nullptr, between);
  const DaemonStages after = DaemonStages::Read(*setup.daemon);
  std::vector<Reply> all = warm.replies;
  all.insert(all.end(), measured.replies.begin(), measured.replies.end());

  // Output checks, outside every timed window: each reply's digest equals an
  // in-process PlannerService plan of the same batch.
  std::vector<uint64_t> reference(kPoolBatches, 0);
  std::vector<bool> planned(kPoolBatches, false);
  PlannerService service;
  for (const Reply& r : all) {
    ++result.attempted;
    if (r.status != net::WireStatus::kOk) {
      result.Fail(std::string("request failed: ") + net::WireStatusName(r.status));
      continue;
    }
    if (!planned[r.batch]) {
      PlanRequest request;
      request.batch = &setup.pool[r.batch];
      request.cost_model = &trainer.cost_model();
      request.fabric = &trainer.fabric();
      reference[r.batch] = service.Plan(request).digest;
      planned[r.batch] = true;
    }
    if (r.digest != reference[r.batch]) {
      result.Fail("batch " + std::to_string(r.batch) +
                  ": served digest differs from in-process plan");
    }
  }

  // The served plans of the first batches, simulated: the paper's metric
  // over plans that went through the whole served path.
  SimTally sims;
  DecisionTally decisions;
  SpanRecorder off(false);
  for (int b = 0; b < kSimBatches; ++b) {
    if (first_plans[b].plan == nullptr) {
      result.Fail("no served plan for batch " + std::to_string(b));
      continue;
    }
    ZeppelinStrategy strategy;
    sims.Add(SimulatePlan(strategy, first_plans[b].plan, setup.pool[b], trainer, off, -1, 0));
    decisions.Add(ReadDecisions(*first_plans[b].plan, first_plans[b].capacity));
  }
  const double success =
      1.0 - static_cast<double>(result.failed) / std::max<double>(1, result.attempted);

  std::vector<double> cpu_ms;
  std::vector<double> wall_ms;
  double hits = 0;
  for (const Reply& r : measured.replies) {
    cpu_ms.push_back(r.cpu_us / 1e3);
    wall_ms.push_back(r.wall_ms());
    hits += r.cache == CacheOutcome::kHit ? 1 : 0;
  }
  const double n = static_cast<double>(measured.replies.size());
  std::printf("%zu set-ups timed; %zu requests (%.1f%% cache hits) over %zu threads, %.2f CPU s; "
              "wall per request p50 %.3f ms, p90 %.3f ms, p99 %.3f ms (printed, not bounded)\n",
              setup_timer.samples(), measured.replies.size(), 100 * hits / n, cpu.threads(),
              measured.cpu_s,
              Percentile(wall_ms, 0.5), Percentile(wall_ms, 0.9), Percentile(wall_ms, 0.99));

  if (!config.trace) {
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    result.Set("success_rate", success, "ratio");
    SetTimedMetrics(setup_timer, probe, cpu_ms, &result);
    result.Set("sim_tokens_per_s", sims.sum.tokens_per_second / std::max(1.0, sims.n), "tokens/s");
    return result;
  }

  ZeroPerLayer(&result);
  const ClientSplit client = RetimeClient(measured.samples, ServeCluster().world_size());
  ReportServedLayers(measured.replies, before, after, client, &result);
  decisions.Report(&result);
  sims.Report(&result);
  // The spans below are built after the run from each reply's timestamps, not
  // recorded in-band, so obs.* stay 0 here: they could show no overhead.
  SpanRecorder spans(true);
  RecordReplySpans(measured.replies, spans);
  ReportSpans(spans, "serve_sweep", config, n);
  return result;
}

}  // namespace perfbench
