#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "perfbench/src/workloads.h"
#include "src/common/units.h"
#include "src/sim/engine.h"
#include "src/sim/trace.h"

namespace perfbench {

using namespace zeppelin;

void SetTimedMetrics(const SetupTimer& setup, const SpeedProbe& probe,
                     const std::vector<double>& cpu_ms, RunResult* result) {
  double total_ms = 0;
  for (double ms : cpu_ms) {
    total_ms += ms;
  }
  const double scale = probe.Scale();
  const double rate = total_ms > 0 ? static_cast<double>(cpu_ms.size()) / (total_ms / 1e3) : 0;
  std::printf("as measured: setup %.4f s, CPU per unit p50 %.4f ms, p90 %.4f ms, %.1f units per "
              "CPU s; reference task median %.0f us over %zu runs (scale %.4f)\n",
              setup.MedianSeconds(), Percentile(cpu_ms, 0.5), Percentile(cpu_ms, 0.9), rate,
              probe.MedianUs(), probe.samples(), scale);
  result->Set("setup_s", setup.MedianSeconds() * scale, "s");
  result->Set("cpu_ms_p50", Percentile(cpu_ms, 0.5) * scale, "ms");
  result->Set("cpu_ms_p90", Percentile(cpu_ms, 0.9) * scale, "ms");
  result->Set("plans_per_cpu_s", rate / scale, "1/s");
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

PlanDecisions ReadDecisions(const PartitionPlan& plan, int64_t derived_l) {
  PlanDecisions d;
  d.imbalance = plan.TokenImbalance();
  d.zone_inter = static_cast<double>(plan.inter_node.size());
  d.zone_intra = static_cast<double>(plan.intra_node.size());
  d.zone_local = static_cast<double>(plan.local.size());
  const int64_t max_load =
      plan.tokens_per_rank.empty()
          ? 0
          : *std::max_element(plan.tokens_per_rank.begin(), plan.tokens_per_rank.end());
  if (derived_l > 0) {
    d.capacity_slack = static_cast<double>(derived_l - max_load) / static_cast<double>(derived_l);
  }
  d.overrun = max_load > derived_l;
  return d;
}

void DecisionTally::Add(const PlanDecisions& d) {
  plans += 1;
  imbalance += d.imbalance;
  zone_inter += d.zone_inter;
  zone_intra += d.zone_intra;
  zone_local += d.zone_local;
  capacity_slack += d.capacity_slack;
  overruns += d.overrun ? 1 : 0;
}

void DecisionTally::Report(RunResult* result) const {
  const double n = std::max(plans, 1.0);
  result->Set("partition.imbalance", imbalance / n, "ratio");
  result->Set("partition.zone_inter", zone_inter / n, "count");
  result->Set("partition.zone_intra", zone_intra / n, "count");
  result->Set("partition.zone_local", zone_local / n, "count");
  result->Set("partition.capacity_slack", capacity_slack / n, "ratio");
  result->Set("partition.capacity_overruns", overruns, "count");
  result->Set("partition.plans_read", plans, "count");
}

SimulatedIteration SimulatePlan(ZeppelinStrategy& strategy,
                                std::shared_ptr<const PartitionPlan> plan, const Batch& batch,
                                const Trainer& trainer, SpanRecorder& spans, int parent,
                                uint64_t request) {
  SimulatedIteration it;
  const Engine engine(trainer.fabric());

  double t0 = NowUs();
  strategy.AdoptPlan(std::move(plan), trainer.cost_model(), trainer.fabric());
  double t1 = NowUs();
  spans.Record("remap", t0, t1, parent, request);
  it.remap_us = t1 - t0;

  SimResult sims[2];
  const Direction directions[2] = {Direction::kForward, Direction::kBackward};
  for (int d = 0; d < 2; ++d) {
    TaskGraph graph;
    t0 = NowUs();
    strategy.EmitLayer(graph, directions[d]);
    t1 = NowUs();
    sims[d] = engine.Run(graph);
    const double t2 = NowUs();
    spans.Record("emit", t0, t1, parent, request);
    spans.Record("sim", t1, t2, parent, request);
    it.emit_us += t1 - t0;
    it.sim_us += t2 - t1;
    it.tasks += graph.size();
  }

  // Trainer::Run's iteration model, term for term.
  const SimResult& fwd = sims[0];
  it.layer_fwd_us = fwd.makespan_us;
  it.layer_bwd_us = sims[1].makespan_us;
  const double iteration_us = trainer.model().num_layers * (it.layer_fwd_us + it.layer_bwd_us) +
                              trainer.FixedCostUs(batch.total_tokens());
  it.tokens_per_second =
      static_cast<double>(batch.total_tokens()) / UsToSeconds(iteration_us);
  it.attention_busy_us = fwd.CategoryBusy(TaskCategory::kAttentionCompute);
  it.inter_comm_busy_us = fwd.CategoryBusy(TaskCategory::kInterComm);
  it.remap_comm_busy_us = fwd.CategoryBusy(TaskCategory::kRemapComm);
  it.nic_utilization = MeanNicUtilization(trainer.fabric(), fwd);

  const auto& transfer = strategy.remap_solution().transfer;
  for (size_t i = 0; i < transfer.size(); ++i) {
    for (size_t j = 0; j < transfer[i].size(); ++j) {
      if (i != j) {
        it.tokens_moved += static_cast<double>(transfer[i][j]);
      }
    }
  }
  return it;
}

void SimTally::Add(const SimulatedIteration& it) {
  n += 1;
  sum.tokens_per_second += it.tokens_per_second;
  sum.layer_fwd_us += it.layer_fwd_us;
  sum.layer_bwd_us += it.layer_bwd_us;
  sum.attention_busy_us += it.attention_busy_us;
  sum.inter_comm_busy_us += it.inter_comm_busy_us;
  sum.remap_comm_busy_us += it.remap_comm_busy_us;
  sum.nic_utilization += it.nic_utilization;
  sum.remap_us += it.remap_us;
  sum.emit_us += it.emit_us;
  sum.sim_us += it.sim_us;
  sum.tasks += it.tasks;
  sum.tokens_moved += it.tokens_moved;
}

void SimTally::Report(RunResult* result) const {
  const double k = std::max(n, 1.0);
  result->Set("remap.us", sum.remap_us / k, "us");
  result->Set("remap.tokens_moved", sum.tokens_moved / k, "count");
  result->Set("emit.us", sum.emit_us / k, "us");
  result->Set("emit.tasks", sum.tasks / k, "count");
  result->Set("sim.us", sum.sim_us / k, "us");
  result->Set("sim.tasks_per_ms", sum.sim_us > 0 ? sum.tasks / (sum.sim_us / 1e3) : 0, "1/ms");
  result->Set("sim.layer_fwd_us", sum.layer_fwd_us / k, "us");
  result->Set("sim.layer_bwd_us", sum.layer_bwd_us / k, "us");
  result->Set("sim.attention_busy_us", sum.attention_busy_us / k, "us");
  result->Set("sim.inter_comm_busy_us", sum.inter_comm_busy_us / k, "us");
  result->Set("sim.remap_comm_busy_us", sum.remap_comm_busy_us / k, "us");
  result->Set("sim.nic_utilization", sum.nic_utilization / k, "ratio");
}

void ZeroPerLayer(RunResult* result) {
  static const char* const kPerLayer[][2] = {
      {"partition.us", "us"},
      {"partition.calls", "count"},
      {"partition.imbalance", "ratio"},
      {"partition.zone_inter", "count"},
      {"partition.zone_intra", "count"},
      {"partition.zone_local", "count"},
      {"partition.capacity_slack", "ratio"},
      {"partition.capacity_overruns", "count"},
      {"partition.plans_read", "count"},
      {"partition.memcap_violations", "count"},
      {"remap.us", "us"},
      {"remap.tokens_moved", "count"},
      {"emit.us", "us"},
      {"emit.tasks", "count"},
      {"sim.us", "us"},
      {"sim.tasks_per_ms", "1/ms"},
      {"sim.layer_fwd_us", "us"},
      {"sim.layer_bwd_us", "us"},
      {"sim.attention_busy_us", "us"},
      {"sim.inter_comm_busy_us", "us"},
      {"sim.remap_comm_busy_us", "us"},
      {"sim.nic_utilization", "ratio"},
      {"cache.hit_ratio", "ratio"},
      {"cache.lookup_us", "us"},
      {"cache.evictions", "count"},
      {"verify.daemon_us", "us"},
      {"verify.client_us", "us"},
      {"verify.failures", "count"},
      {"plan_io.encode_us", "us"},
      {"plan_io.parse_us", "us"},
      {"plan_io.bytes", "bytes"},
      {"net.queue_wait_us", "us"},
      {"net.decode_us", "us"},
      {"net.validate_us", "us"},
      {"net.client_us", "us"},
      {"net.shed", "count"},
      {"net.deadline", "count"},
      {"delta.applied_ratio", "ratio"},
      {"delta.patch_us", "us"},
      {"delta.rebase_us", "us"},
      {"delta.rebases_by_reason.no_base", "count"},
      {"delta.rebases_by_reason.churn", "count"},
      {"delta.rebases_by_reason.zone", "count"},
      {"delta.rebases_by_reason.refined", "count"},
      {"delta.rebases_by_reason.capacity", "count"},
      {"delta.rebases_by_reason.imbalance", "count"},
      {"delta.rebases_by_reason.topology", "count"},
      {"delta.rebases_by_reason.migration", "count"},
      {"obs.tracing_overhead_pct", "%"},
      {"obs.span_self_sum_ms", "ms"},
  };
  for (const auto& [name, unit] : kPerLayer) {
    result->Set(name, 0, unit);
  }
}

void ReportSpans(const SpanRecorder& spans, const std::string& workload, const RunConfig& config,
                 double requests) {
  const auto by_name = SelfTimeByName(spans.spans());
  std::printf("self time by span (%zu spans, %.0f requests):\n", spans.spans().size(), requests);
  for (const auto& [name, us] : by_name) {
    std::printf("  %-22s total %12.1f ms   per request %10.2f us\n", name.c_str(), us / 1e3,
                requests > 0 ? us / requests : 0.0);
  }
  if (config.trace_dir.empty()) {
    return;
  }
  ::mkdir(config.trace_dir.c_str(), 0755);
  const std::string path =
      config.trace_dir + "/spans-" + workload + "-" + std::to_string(config.seed) + ".jsonl";
  if (spans.WriteJsonLines(path)) {
    std::printf("spans written to %s\n", path.c_str());
  } else {
    std::printf("could not write spans to %s\n", path.c_str());
  }
}

}  // namespace perfbench
