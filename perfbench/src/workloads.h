// The three named workloads and the helpers they share. Each workload fills a
// RunResult: with tracing off, every end-to-end metric; with tracing on,
// every per-layer metric (perfbench/README.md defines each one).
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/bench_core.h"
#include "src/core/partitioner.h"
#include "src/core/trainer.h"
#include "src/core/zeppelin.h"
#include "src/data/sampler.h"

namespace perfbench {

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // Where the traced run writes its spans.
};

RunResult RunTrainIter(const RunConfig& config);
RunResult RunServeSweep(const RunConfig& config);
RunResult RunServeStream(const RunConfig& config);

// CPU time of one ReferenceTask run on the machine the benchmark was tuned
// on (4-vCPU KVM guest on a shared Xeon host), in µs: the reference speed.
inline constexpr double kReferenceTaskUs = 7500;
// Seconds of timed work between two ReferenceTask runs.
inline constexpr double kProbeEverySeconds = 0.25;

// The machine's speed over a run: ReferenceTask runs spread over it, one
// every `every_s` seconds between two timed units. Scale() converts a CPU
// time measured in the run to the reference speed, so that a shared host
// running slower or faster for a while (contended caches and cores, which
// CPU time does not exclude) moves the reported figures far less.
class SpeedProbe {
 public:
  explicit SpeedProbe(double every_s) : every_us_(every_s * 1e6) {}
  void MaybeRun() {
    if (NowUs() >= next_us_) {
      samples_.push_back(task_.RunUs());
      next_us_ = NowUs() + every_us_;
    }
  }
  double MedianUs() const { return Percentile(samples_, 0.5); }
  // Multiply a CPU time of this run by this to get it at reference speed.
  double Scale() const { return samples_.empty() ? 1.0 : kReferenceTaskUs / MedianUs(); }
  size_t samples() const { return samples_.size(); }

 private:
  ReferenceTask task_;
  double every_us_;
  double next_us_ = 0;
  std::vector<double> samples_;
};

// setup_s: the median process CPU time of set-ups spread over a run -- a few
// before the timed work, then one every `every_s` seconds of it between two
// timed units, each into a scratch copy the caller builds and drops -- so a
// slow phase of a shared host that is shorter than the run moves few of the
// samples.
class SetupTimer {
 public:
  explicit SetupTimer(double every_s) : every_us_(every_s * 1e6) {}
  // Runs `setup` and records the CPU time it took.
  void Time(const std::function<void()>& setup) {
    const double t0 = ProcessCpuUs();
    setup();
    seconds_.push_back((ProcessCpuUs() - t0) / 1e6);
    next_us_ = NowUs() + every_us_;
  }
  // Runs and records `setup` when a sample is due (every_s after the last).
  void MaybeTime(const std::function<void()>& setup) {
    if (NowUs() >= next_us_) {
      Time(setup);
    }
  }
  double MedianSeconds() const { return Percentile(seconds_, 0.5); }
  size_t samples() const { return seconds_.size(); }

 private:
  double every_us_;
  double next_us_ = 0;
  std::vector<double> seconds_;
};

// Seconds of timed work between two in-run set-up samples.
inline constexpr double kSetupEverySeconds = 1.5;
// Set-up samples taken before the timed work.
inline constexpr int kSetupsBefore = 3;

// Sets the timed end-to-end metrics of an untraced run, each at reference
// speed (see SpeedProbe): setup_s; cpu_ms_p50 and cpu_ms_p90 over the CPU
// time of each timed unit (an iteration or a request); plans_per_cpu_s,
// units per CPU second over them all. Prints the figures as measured too.
void SetTimedMetrics(const SetupTimer& setup, const SpeedProbe& probe,
                     const std::vector<double>& cpu_ms, RunResult* result);

// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb();

// Decision counts read from a returned plan, against the capacity `derived_l`
// the plan was computed at.
struct PlanDecisions {
  double imbalance = 0;       // max / mean rank tokens.
  double zone_inter = 0;      // Sequences per zone.
  double zone_intra = 0;
  double zone_local = 0;
  double capacity_slack = 0;  // (L - max rank tokens) / L; negative = overrun.
  bool overrun = false;       // max rank tokens > L.
};
PlanDecisions ReadDecisions(const zeppelin::PartitionPlan& plan, int64_t derived_l);

// Running means of PlanDecisions over many plans, reported as the
// partition.* per-layer metrics.
struct DecisionTally {
  double plans = 0;
  double imbalance = 0;
  double zone_inter = 0;
  double zone_intra = 0;
  double zone_local = 0;
  double capacity_slack = 0;
  double overruns = 0;

  void Add(const PlanDecisions& d);
  void Report(RunResult* result) const;
};

// One simulated training iteration of `plan` on `batch` through the split
// call path: AdoptPlan (remap solve) -> EmitLayer -> Engine::Run, forward
// then backward, with the paper's tokens/s for it. Each call into a layer is
// a span under `parent` when `spans` records.
struct SimulatedIteration {
  double tokens_per_second = 0;
  double layer_fwd_us = 0;
  double layer_bwd_us = 0;
  double attention_busy_us = 0;
  double inter_comm_busy_us = 0;
  double remap_comm_busy_us = 0;
  double nic_utilization = 0;
  // Wall time of the calls themselves (emit and sim: both directions).
  double remap_us = 0;
  double emit_us = 0;
  double sim_us = 0;
  double tasks = 0;         // Tasks emitted, both directions.
  double tokens_moved = 0;  // Off-diagonal tokens of the remap solution.
};
SimulatedIteration SimulatePlan(zeppelin::ZeppelinStrategy& strategy,
                                std::shared_ptr<const zeppelin::PartitionPlan> plan,
                                const zeppelin::Batch& batch, const zeppelin::Trainer& trainer,
                                SpanRecorder& spans, int parent, uint64_t request);

// Means of SimulatedIteration fields over many iterations, reported as the
// remap.*, emit.* and sim.* per-layer metrics.
struct SimTally {
  double n = 0;
  SimulatedIteration sum;

  void Add(const SimulatedIteration& it);
  void Report(RunResult* result) const;
};

// Sets every per-layer metric to 0, so a workload reports the layers it does
// not exercise by name as well.
void ZeroPerLayer(RunResult* result);

// Prints one human-readable line per span name: total and per-request self
// time, then writes the spans to `dir`/spans-<workload>-<seed>.jsonl.
void ReportSpans(const SpanRecorder& spans, const std::string& workload, const RunConfig& config,
                 double requests);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
