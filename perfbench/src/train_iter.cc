// train_iter: the paper's own measurement (Fig. 8 panel: LLaMA-7B, Cluster A,
// 64 GPUs, github, 256k tokens per batch = 4k per GPU). In-process, closed
// loop, one caller. Each iteration plans a fresh BatchSampler batch through
// PlannerService::Plan, then AdoptPlan (remap solve) -> EmitLayer ->
// Engine::Run forward and backward. Emit and simulate do almost all the work
// here; the cache, wire, certifier and delta layers do none, so serving
// changes must predict no change on this workload.
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>

#include "perfbench/src/workloads.h"
#include "src/core/plan_service.h"
#include "src/core/plan_verify.h"
#include "src/data/datasets.h"
#include "src/model/memory.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"

namespace perfbench {

using namespace zeppelin;

namespace {

constexpr int64_t kBatchTokens = 262144;
// sim_tokens_per_s averages the first kSimSteps iterations of the seeded
// batch sequence, so it repeats exactly for a seed.
constexpr int kSimSteps = 256;
constexpr int kWarmupSteps = 3;
// Every kTrainerCheckEvery-th iteration is re-run through Trainer::Run.
constexpr int kTrainerCheckEvery = 32;
// Plans over the memory cap allowed among the first kSimSteps iterations. The
// planner at this commit breaks the cap on rare github batches (the ROADMAP's
// capacity-contract item): over seeds 0..19,999 it did so on 106 seeds' first
// 256 batches, never more than once per seed. A planner that overruns the cap
// more often fails the run. Set to 0 when that item lands.
constexpr int kMemcapAllowance = 1;

struct TrainSetup {
  std::unique_ptr<Trainer> trainer;
  std::shared_ptr<PlannerService> service;
  std::unique_ptr<ZeppelinStrategy> strategy;
  int64_t memory_cap = 0;
};

// What one timed phase measured.
struct Phase {
  std::vector<double> cpu_ms;   // CPU time of each iteration.
  std::vector<double> iter_ms;  // Wall time of each iteration.
  std::vector<double> first_tps;
  double cpu_s = 0;
  int iterations = 0;
  DecisionTally decisions;
  SimTally sims;
  double partition_us = 0;
  int memcap_violations = 0;
};

// Builds the workload, with warm-up iterations on fixed batches outside the
// measured sequence (the same for every seed, so set-up time does not depend
// on the seed).
void BuildSetup(TrainSetup* setup) {
  const TransformerConfig model = MakeLlama7B();
  const ClusterSpec cluster = MakeClusterA(8);
  setup->trainer = std::make_unique<Trainer>(model, cluster);
  setup->service = std::make_shared<PlannerService>();
  ZeppelinOptions options;
  options.service = setup->service;
  setup->strategy = std::make_unique<ZeppelinStrategy>(options);
  setup->memory_cap = TokenCapacity(model, cluster, cluster.world_size());
  BatchSampler warm(MakeGithubDistribution(), kBatchTokens, /*seed=*/0);
  for (int i = 0; i < kWarmupSteps; ++i) {
    const Batch batch = warm.NextBatch();
    PlanRequest request;
    request.batch = &batch;
    request.cost_model = &setup->trainer->cost_model();
    request.fabric = &setup->trainer->fabric();
    SpanRecorder off(false);
    SimulatePlan(*setup->strategy, setup->service->Plan(request).plan, batch, *setup->trainer, off,
                 -1, 0);
  }
}

// Runs iterations for `seconds` (and at least kSimSteps), calling `between`
// after each, outside its timed window.
Phase RunPhase(const TrainSetup& setup, const RunConfig& config, double seconds,
               SpanRecorder& spans, RunResult* result, const std::function<void()>& between) {
  Phase phase;
  const Trainer& trainer = *setup.trainer;
  const int world = trainer.fabric().cluster().world_size();
  BatchSampler sampler(MakeGithubDistribution(), kBatchTokens, config.seed);
  const ThreadGroupCpu cpu;
  const double start = NowUs();
  while ((NowUs() - start) / 1e6 < seconds || phase.iterations < kSimSteps) {
    const Batch batch = sampler.NextBatch();
    const uint64_t request = static_cast<uint64_t>(phase.iterations);

    const double c0 = cpu.Us();
    const double t0 = NowUs();
    const int root = spans.Open("iteration", t0, -1, request);
    PlanRequest plan_request;
    plan_request.batch = &batch;
    plan_request.cost_model = &trainer.cost_model();
    plan_request.fabric = &trainer.fabric();
    const PlanResponse response = setup.service->Plan(plan_request);
    const double t1 = NowUs();
    spans.Record("partition", t0, t1, root, request);
    const SimulatedIteration it =
        SimulatePlan(*setup.strategy, response.plan, batch, trainer, spans, root, request);
    const double t2 = NowUs();
    const double c2 = cpu.Us();
    spans.Close(root, t2);

    // Everything below is outside the timed window.
    phase.cpu_ms.push_back((c2 - c0) / 1e3);
    phase.iter_ms.push_back((t2 - t0) / 1e3);
    phase.cpu_s += (c2 - c0) / 1e6;
    phase.partition_us += t1 - t0;
    phase.decisions.Add(ReadDecisions(*response.plan, response.stats.token_capacity));
    phase.sims.Add(it);
    if (phase.iterations < kSimSteps) {
      phase.first_tps.push_back(it.tokens_per_second);
    }

    // Output checks: the plan passes VerifyPlan with every clause on, and on
    // sampled batches the split path reproduces Trainer::Run. Capacity is
    // checked against the memory cap, not the derived L. VerifyPlan stops at
    // the capacity clause, so an over-cap plan is verified again without it
    // and fails on any other clause. Over-cap plans fail the run beyond
    // kMemcapAllowance within the fixed first kSimSteps iterations, which
    // every run reaches; later ones are counted and printed, so a run's
    // verdict does not depend on how many batches it reached.
    PlanVerifyOptions vopts;
    vopts.token_capacity = setup.memory_cap;
    vopts.world = world;
    PlanVerifyResult verdict = VerifyPlan(*response.plan, batch, trainer.fabric(), vopts);
    if (verdict.status == PlanVerifyStatus::kCapacityOverflow) {
      ++phase.memcap_violations;
      std::printf("WARNING: iteration %d: plan exceeds the memory cap: %s\n", phase.iterations,
                  verdict.message.c_str());
      if (phase.iterations < kSimSteps && phase.memcap_violations > kMemcapAllowance) {
        result->Fail("iteration " + std::to_string(phase.iterations) + ": plan " +
                     std::to_string(phase.memcap_violations) +
                     " over the memory cap in the first " + std::to_string(kSimSteps));
      }
      vopts.token_capacity = 0;
      verdict = VerifyPlan(*response.plan, batch, trainer.fabric(), vopts);
    }
    if (!verdict.ok()) {
      result->Fail("iteration " + std::to_string(phase.iterations) + ": VerifyPlan " +
                   PlanVerifyStatusName(verdict.status) + " " + verdict.message);
    }
    if (phase.iterations % kTrainerCheckEvery == 0) {
      ZeppelinStrategy reference;
      const IterationResult expected = trainer.Run(reference, batch);
      if (expected.tokens_per_second != it.tokens_per_second) {
        char what[160];
        std::snprintf(what, sizeof(what),
                      "iteration %d: split path %.6f tokens/s != Trainer::Run %.6f",
                      phase.iterations, it.tokens_per_second, expected.tokens_per_second);
        result->Fail(what);
      }
    }
    ++phase.iterations;
    between();
  }
  result->attempted += static_cast<uint64_t>(phase.iterations);
  return phase;
}

}  // namespace

RunResult RunTrainIter(const RunConfig& config) {
  RunResult result;
  TrainSetup setup;
  SetupTimer setup_timer(kSetupEverySeconds);
  for (int i = 0; i < kSetupsBefore; ++i) {
    setup_timer.Time([&] { BuildSetup(&setup); });
  }
  SpeedProbe probe(kProbeEverySeconds);
  const auto between = [&] {
    probe.MaybeRun();
    setup_timer.MaybeTime([] {
      TrainSetup scratch;
      BuildSetup(&scratch);
    });
  };
  std::printf("train_iter: LLaMA-7B, cluster A, 64 GPUs, github, %lld tokens/batch, "
              "memory cap %lld tokens/GPU\n",
              static_cast<long long>(kBatchTokens), static_cast<long long>(setup.memory_cap));

  if (!config.trace) {
    SpanRecorder off(false);
    const Phase p = RunPhase(setup, config, config.seconds, off, &result, between);
    const double success =
        1.0 - static_cast<double>(result.failed) / static_cast<double>(result.attempted);
    result.Set("peak_rss_mb", PeakRssMb(), "MB");
    result.Set("success_rate", success, "ratio");
    SetTimedMetrics(setup_timer, probe, p.cpu_ms, &result);
    result.Set("sim_tokens_per_s", Mean(p.first_tps), "tokens/s");
    std::printf("%zu set-ups timed; %d iterations, %.2f CPU s; wall per iteration p50 %.3f ms, "
                "p90 %.3f ms (printed, not bounded); %d plans over the memory cap\n",
                setup_timer.samples(), p.iterations, p.cpu_s, Percentile(p.iter_ms, 0.5),
                Percentile(p.iter_ms, 0.9), p.memcap_violations);
    return result;
  }

  // Traced run: an untraced half, then a traced half over the same batches;
  // the p50 difference is the tracing overhead.
  SpanRecorder off(false);
  const Phase untraced = RunPhase(setup, config, config.seconds / 2, off, &result, between);
  SpanRecorder spans(true);
  const Phase traced = RunPhase(setup, config, config.seconds / 2, spans, &result, between);

  ZeroPerLayer(&result);
  const double n = traced.iterations;
  result.Set("partition.us", traced.partition_us / n, "us");
  result.Set("partition.calls", n, "count");
  result.Set("partition.memcap_violations", untraced.memcap_violations + traced.memcap_violations,
             "count");
  traced.decisions.Report(&result);
  traced.sims.Report(&result);
  const double p50_untraced = Percentile(untraced.cpu_ms, 0.5);
  result.Set("obs.tracing_overhead_pct",
             (Percentile(traced.cpu_ms, 0.5) - p50_untraced) / p50_untraced * 100.0, "%");
  // Per iteration, the layers' self times sum to the iteration span.
  const std::vector<double> self = SelfTimes(spans.spans());
  std::vector<double> per_iter(traced.iterations, 0);
  for (size_t i = 0; i < self.size(); ++i) {
    per_iter[spans.spans()[i].request] += self[i];
  }
  result.Set("obs.span_self_sum_ms", Percentile(per_iter, 0.5) / 1e3, "ms");
  std::printf("untraced iter p50 %.3f CPU ms, traced self-time sum p50 %.3f ms\n", p50_untraced,
              Percentile(per_iter, 0.5) / 1e3);
  ReportSpans(spans, "train_iter", config, n);
  return result;
}

}  // namespace perfbench
