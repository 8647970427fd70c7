#include "perfbench/src/served.h"

#include <cstdio>
#include <cstring>

#include "src/core/plan_io.h"
#include "src/core/plan_verify.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"

namespace perfbench {

using namespace zeppelin;

TransformerConfig ServeModel() { return MakeLlama3B(); }
ClusterSpec ServeCluster() { return MakeClusterA(kServeNodes); }

net::PlanClientOptions ServeClientOptions() {
  net::PlanClientOptions options;
  options.max_world = ServeCluster().world_size();
  options.request_timeout_ms = 20000;
  return options;
}

DaemonStages DaemonStages::Read(net::PlannerDaemon& daemon) {
  DaemonStages s;
  s.counters = daemon.counters();
  const std::string json = daemon.StatsJson();
  std::string names[obs::kNumStages + 1];
  for (int i = 0; i < obs::kNumStages; ++i) {
    names[i] = std::string("stage_us.") + obs::StageName(static_cast<obs::Stage>(i));
  }
  names[obs::kNumStages] = "request.total_us";
  for (const std::string& name : names) {
    const std::string key = "\"" + name + "\":{\"count\":";
    const size_t at = json.find(key);
    unsigned long long count = 0;
    unsigned long long sum = 0;
    if (at != std::string::npos) {
      std::sscanf(json.c_str() + at + key.size(), "%llu,\"sum\":%llu", &count, &sum);
    }
    s.hist[name] = {static_cast<double>(count), static_cast<double>(sum)};
  }
  return s;
}

double DaemonStages::Requests(const DaemonStages& before) const {
  return hist.at("request.total_us").first - before.hist.at("request.total_us").first;
}

double DaemonStages::PerRequestUs(const DaemonStages& before, const std::string& name) const {
  const double requests = Requests(before);
  if (requests <= 0) {
    return 0;
  }
  return (hist.at(name).second - before.hist.at(name).second) / requests;
}

ClientSplit RetimeClient(const std::vector<SampledReply>& samples, int world) {
  ClientSplit split;
  if (samples.empty()) {
    return split;
  }
  PlanVerifyOptions vopts;  // PlanClient's: no capacity, no balance clause.
  vopts.eps = -1;
  vopts.world = world;
  for (const SampledReply& s : samples) {
    PartitionPlan plan;
    const double t0 = NowUs();
    const PlanIoResult parsed = ParsePlan(s.plan_bytes, &plan, world);
    const double t1 = NowUs();
    const PlanVerifyResult verdict = VerifyPlan(plan, s.batch, nullptr, vopts);
    const double t2 = NowUs();
    split.parse_us += t1 - t0;
    split.verify_us += t2 - t1;
    split.bytes += static_cast<double>(s.plan_bytes.size());
    if (!parsed.ok() || !verdict.ok()) {
      ++split.failures;
    }
  }
  const double n = static_cast<double>(samples.size());
  split.parse_us /= n;
  split.verify_us /= n;
  split.bytes /= n;
  return split;
}

void ReportServedLayers(const std::vector<Reply>& replies, const DaemonStages& before,
                        const DaemonStages& after, const ClientSplit& client,
                        RunResult* result) {
  double hits = 0;
  double plan_calls = 0;
  double plan_us = 0;
  double rejected = 0;
  std::vector<double> rtt;
  for (const Reply& r : replies) {
    hits += r.cache == CacheOutcome::kHit ? 1 : 0;
    rejected += r.status == net::WireStatus::kPlanRejected ? 1 : 0;
    if (r.stage_us[static_cast<int>(obs::Stage::kPlan)] > 0) {
      plan_calls += 1;
      plan_us += r.stage_us[static_cast<int>(obs::Stage::kPlan)];
    }
    rtt.push_back(r.done_us - r.send_us);
  }
  const double n = std::max<double>(1, replies.size());
  auto stage = [&](const char* name) {
    return after.PerRequestUs(before, std::string("stage_us.") + name);
  };
  result->Set("partition.us", plan_calls > 0 ? plan_us / plan_calls : 0, "us");
  result->Set("partition.calls", plan_calls, "count");
  result->Set("cache.hit_ratio", hits / n, "ratio");
  result->Set("cache.lookup_us", stage("cache_lookup"), "us");
  result->Set("cache.evictions",
              static_cast<double>(after.counters.cache_evictions - before.counters.cache_evictions),
              "count");
  result->Set("verify.daemon_us", stage("verify"), "us");
  result->Set("verify.client_us", client.verify_us, "us");
  result->Set("verify.failures",
              static_cast<double>(after.counters.verify_failures -
                                  before.counters.verify_failures) +
                  rejected + client.failures,
              "count");
  result->Set("plan_io.encode_us", stage("encode"), "us");
  result->Set("plan_io.parse_us", client.parse_us, "us");
  result->Set("plan_io.bytes", client.bytes, "bytes");
  result->Set("net.queue_wait_us", stage("queue_wait"), "us");
  result->Set("net.decode_us", stage("decode"), "us");
  result->Set("net.validate_us", stage("validate"), "us");
  const double daemon_total = after.PerRequestUs(before, "request.total_us");
  result->Set("net.client_us", Mean(rtt) - daemon_total - client.parse_us - client.verify_us,
              "us");
  result->Set("net.shed",
              static_cast<double>(after.counters.shed_overload - before.counters.shed_overload),
              "count");
  result->Set("net.deadline",
              static_cast<double>(after.counters.shed_deadline - before.counters.shed_deadline),
              "count");
  std::printf("daemon window: %.0f requests, total %.1f us/request (write included); "
              "client rtt mean %.1f us\n",
              after.Requests(before), daemon_total, Mean(rtt));
}

void RecordReplySpans(const std::vector<Reply>& replies, SpanRecorder& spans) {
  for (size_t i = 0; i < replies.size(); ++i) {
    const Reply& r = replies[i];
    const int root = spans.Record("request", r.send_us, r.done_us, -1, i);
    double cursor = r.send_us;
    for (int s = 0; s < obs::kNumStages; ++s) {
      if (r.stage_us[s] > 0) {
        spans.Record(std::string("daemon.") + obs::StageName(static_cast<obs::Stage>(s)), cursor,
                     cursor + r.stage_us[s], root, i);
        cursor += r.stage_us[s];
      }
    }
  }
}

}  // namespace perfbench
