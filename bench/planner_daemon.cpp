// Planner-daemon bench: plans/s and tail latency of the TCP-served
// PlannerService (src/net/planner_daemon.h) vs the in-process service —
// what the framed protocol, the per-connection reader threads, the plan
// cache, and the bounded admission gate cost on top of pure planning — plus
// an overload arm measuring what the gate buys: beyond-capacity load is shed
// with kOverloaded while the *admitted* requests keep a bounded p99.
//
// Arms:
//   - in-process: one thread calling PlannerService::Plan directly
//     (zero-copy, no sockets) — the floor of a planned request; and one
//     thread calling PlanCache::Plan on one cached batch — the floor of a
//     cache hit that yields a plan: the cache lookup plus the ParsePlan
//     of the stored image.
//   - daemon "hot" at {1, 16, 64} concurrent clients: each client is one TCP
//     connection re-sending the same stateless batch back-to-back, so every
//     request after the first is an exact cache hit. Its overhead is
//     measured against the in-process hit.
//   - daemon "cold" at {1, 16, 64} clients: each request carries a fresh
//     batch, so every request misses and plans. Its overhead is measured
//     against the in-process plan.
//   Every point records the cache outcome of each reply; p50/p99 are
//   client-observed round-trip latencies.
//   - overload: 1 permit + queue_limit=4 + a fixed debug plan delay, hammered
//     by 16 impatient clients. Reports the shed rate and checks admitted
//     p99 <= (queue_limit + 2) * plan_delay — the bounded-queue guarantee
//     (an unbounded queue would grow the tail with offered load).
//
// Output: a table plus machine-readable BENCH_daemon.json:
//   { "bench": "planner_daemon", "model", "cluster", "quick", "num_seqs",
//     "iters_per_client",
//     "inprocess": { "plans_per_sec", "p50_us", "p99_us" },
//     "inprocess_hit": { "p50_us", "p99_us" },
//     "points": [ { "arm", "clients", "total_plans", "wall_ms",
//                   "plans_per_sec", "p50_us", "p99_us", "cache_hits",
//                   "cache_misses", "daemon_overhead_p50_us" } ],
//     "overload": { "clients", "queue_limit", "plan_delay_ms", "offered",
//                   "admitted", "shed", "shed_rate", "admitted_p50_us",
//                   "admitted_p99_us", "p99_bound_us", "p99_within_bound" } }
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/core/plan_cache.h"
#include "src/core/plan_service.h"
#include "src/model/transformer.h"
#include "src/net/plan_client.h"
#include "src/net/planner_daemon.h"
#include "src/topology/cluster.h"

namespace {

using namespace zeppelin;
using clock_type = std::chrono::steady_clock;

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t at = std::min(samples.size() - 1,
                             static_cast<size_t>(p * (samples.size() - 1) + 0.5));
  return samples[at];
}

Batch SampleBenchBatch(int num_seqs, uint64_t seed = 4242) {
  const LengthDistribution dist = DatasetByName("github");
  Rng rng(seed);
  Batch batch;
  batch.seq_lens.reserve(num_seqs);
  for (int i = 0; i < num_seqs; ++i) {
    batch.seq_lens.push_back(dist.Sample(rng));
  }
  return batch;
}

double ElapsedUs(clock_type::time_point start) {
  return std::chrono::duration<double, std::micro>(clock_type::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = bench::QuickMode(argc, argv);
  const int num_seqs = quick ? 512 : 2048;
  const int iters_per_client = quick ? 20 : 120;
  const std::vector<int> client_counts = {1, 16, 64};

  const TransformerConfig model = MakeLlama3B();
  const ClusterSpec cluster = MakeClusterA(2);
  const Batch batch = SampleBenchBatch(num_seqs);

  bench::PrintHeader("Planner daemon — served plans/s and tail latency (3B, Cluster A)");
  std::printf("S=%d per request, %d requests per client, stateless; hot arms re-send one "
              "batch (cache hits), cold arms a fresh batch per request (misses)\n\n",
              num_seqs, iters_per_client);

  // --- In-process floor -----------------------------------------------------
  FabricResources fabric(cluster);
  CostModel cost_model(model, cluster);
  PlannerService local;
  const int local_iters = iters_per_client * 4;
  std::vector<double> local_us;
  local_us.reserve(local_iters);
  const auto local_start = clock_type::now();
  for (int i = 0; i < local_iters; ++i) {
    PlanRequest request;
    request.batch = &batch;
    request.cost_model = &cost_model;
    request.fabric = &fabric;
    const auto t0 = clock_type::now();
    const PlanResponse response = local.Plan(request);
    local_us.push_back(ElapsedUs(t0));
    (void)response;
  }
  const double local_wall_ms =
      std::chrono::duration<double, std::milli>(clock_type::now() - local_start).count();
  const double local_pps = local_iters / (local_wall_ms / 1000.0);
  const double local_p50 = Percentile(local_us, 0.5);
  const double local_p99 = Percentile(local_us, 0.99);

  // The in-process cache-hit floor: PlanCache::Plan on a cached batch (the
  // slot-order hash, the lookup and length compare, and the parse of the
  // stored image, which re-checks its trailer).
  PlanCache local_cache(&local);
  std::vector<double> hit_us;
  hit_us.reserve(local_iters);
  {
    PlanRequest request;
    request.batch = &batch;
    request.cost_model = &cost_model;
    request.fabric = &fabric;
    local_cache.Plan(request);
    for (int i = 0; i < local_iters; ++i) {
      const auto t0 = clock_type::now();
      const PlanResponse hit = local_cache.Plan(request);
      hit_us.push_back(ElapsedUs(t0));
      if (hit.stats.cache_outcome != CacheOutcome::kHit) {
        std::fprintf(stderr, "in-process cache missed a cached batch\n");
        return 1;
      }
    }
  }
  const double hit_p50 = Percentile(hit_us, 0.5);
  const double hit_p99 = Percentile(hit_us, 0.99);

  // --- Daemon throughput arms ----------------------------------------------
  net::DaemonOptions daemon_options;
  daemon_options.max_concurrent_plans =
      std::max(4u, std::thread::hardware_concurrency() / 2);
  daemon_options.queue_limit = 4096;  // Throughput arms must not shed.
  net::PlannerDaemon daemon(model, cluster, daemon_options);
  std::string error;
  if (!daemon.Start(&error)) {
    std::fprintf(stderr, "daemon start failed: %s\n", error.c_str());
    return 1;
  }

  struct Arm {
    const char* name = "";
    int clients = 0;
    long total = 0;
    double wall_ms = 0;
    double pps = 0;
    double p50 = 0;
    double p99 = 0;
    long hits = 0;
    long misses = 0;
    double overhead_p50 = 0;
  };
  std::vector<Arm> arms;
  for (const bool cold : {false, true}) {
    for (const int clients : client_counts) {
      std::vector<std::vector<double>> latencies(clients);
      std::vector<long> hits(clients, 0);
      std::vector<long> misses(clients, 0);
      std::vector<std::thread> threads;
      threads.reserve(clients);
      const auto start = clock_type::now();
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          net::PlanClient client("127.0.0.1", daemon.port());
          latencies[c].reserve(iters_per_client);
          for (int i = 0; i < iters_per_client; ++i) {
            net::WireRequest request;
            // A cold request's batch is drawn from a seed no other request
            // uses, so it can only miss. rtt_us covers the round trip alone;
            // the arm's wall time (and plans/s) includes the draws.
            request.batch = cold ? SampleBenchBatch(
                                       num_seqs, (uint64_t{1} << 40) + (uint64_t(clients) << 24) +
                                                     (uint64_t(c) << 12) + i)
                                 : batch;
            const net::PlanClientResult result = client.Plan(std::move(request));
            if (result.ok()) {
              latencies[c].push_back(result.rtt_us);
              hits[c] += result.stats.cache_outcome == CacheOutcome::kHit ? 1 : 0;
              misses[c] += result.stats.cache_outcome == CacheOutcome::kMiss ? 1 : 0;
            }
          }
        });
      }
      for (std::thread& t : threads) {
        t.join();
      }
      Arm arm;
      arm.name = cold ? "cold" : "hot";
      arm.clients = clients;
      arm.wall_ms =
          std::chrono::duration<double, std::milli>(clock_type::now() - start).count();
      std::vector<double> merged;
      for (int c = 0; c < clients; ++c) {
        merged.insert(merged.end(), latencies[c].begin(), latencies[c].end());
        arm.hits += hits[c];
        arm.misses += misses[c];
      }
      arm.total = static_cast<long>(merged.size());
      arm.pps = arm.total / (arm.wall_ms / 1000.0);
      arm.p50 = Percentile(merged, 0.5);
      arm.p99 = Percentile(merged, 0.99);
      arm.overhead_p50 = arm.p50 - (cold ? local_p50 : hit_p50);
      arms.push_back(arm);
    }
  }
  daemon.Stop();

  // --- Overload arm ---------------------------------------------------------
  const int overload_clients = 16;
  const int overload_queue_limit = 4;
  const int plan_delay_ms = quick ? 5 : 10;
  const int overload_iters = quick ? 8 : 25;
  net::DaemonOptions overload_options;
  overload_options.max_concurrent_plans = 1;
  overload_options.queue_limit = overload_queue_limit;
  overload_options.debug_plan_delay_ms = plan_delay_ms;
  net::PlannerDaemon overloaded(model, cluster, overload_options);
  if (!overloaded.Start(&error)) {
    std::fprintf(stderr, "overload daemon start failed: %s\n", error.c_str());
    return 1;
  }
  std::vector<std::vector<double>> admitted_us(overload_clients);
  std::vector<long> shed_counts(overload_clients, 0);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < overload_clients; ++c) {
      threads.emplace_back([&, c] {
        net::PlanClientOptions impatient;
        impatient.max_retries = 0;  // Count sheds instead of retrying them.
        impatient.request_timeout_ms = 30000;
        net::PlanClient client("127.0.0.1", overloaded.port(), impatient);
        for (int i = 0; i < overload_iters; ++i) {
          net::WireRequest request;
          request.batch = batch;
          const net::PlanClientResult result = client.Plan(std::move(request));
          if (result.ok()) {
            admitted_us[c].push_back(result.rtt_us);
          } else if (result.status == net::WireStatus::kOverloaded) {
            ++shed_counts[c];
          }
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  overloaded.Stop();
  std::vector<double> admitted;
  long shed = 0;
  for (int c = 0; c < overload_clients; ++c) {
    admitted.insert(admitted.end(), admitted_us[c].begin(), admitted_us[c].end());
    shed += shed_counts[c];
  }
  const long offered = static_cast<long>(overload_clients) * overload_iters;
  const double shed_rate = offered > 0 ? static_cast<double>(shed) / offered : 0;
  const double admitted_p50 = Percentile(admitted, 0.5);
  const double admitted_p99 = Percentile(admitted, 0.99);
  // Bounded-queue guarantee: an admitted request waits behind at most
  // queue_limit queued + 1 planning request, each holding the permit for the
  // debug delay (+1 of slack for scheduling noise).
  const double p99_bound_us = (overload_queue_limit + 2) * plan_delay_ms * 1000.0;
  const bool p99_within_bound = admitted_p99 <= p99_bound_us;

  // --- Report ---------------------------------------------------------------
  Table table({"arm", "clients", "plans", "hits", "misses", "wall ms", "plans/s", "p50 us",
               "p99 us", "overhead p50 us"});
  table.AddRow({"in-process plan", "-", Table::Cell(static_cast<int64_t>(local_iters)), "-",
                "-", Table::Cell(local_wall_ms, 1), Table::Cell(local_pps, 0),
                Table::Cell(local_p50, 0), Table::Cell(local_p99, 0), "-"});
  table.AddRow({"in-process hit", "-", Table::Cell(static_cast<int64_t>(local_iters)), "-", "-",
                "-", "-", Table::Cell(hit_p50, 1), Table::Cell(hit_p99, 1), "-"});
  for (const Arm& arm : arms) {
    table.AddRow({std::string("daemon ") + arm.name,
                  Table::Cell(static_cast<int64_t>(arm.clients)),
                  Table::Cell(static_cast<int64_t>(arm.total)),
                  Table::Cell(static_cast<int64_t>(arm.hits)),
                  Table::Cell(static_cast<int64_t>(arm.misses)), Table::Cell(arm.wall_ms, 1),
                  Table::Cell(arm.pps, 0), Table::Cell(arm.p50, 0), Table::Cell(arm.p99, 0),
                  Table::Cell(arm.overhead_p50, 0)});
  }
  table.Print();
  std::printf(
      "\noverload: %ld offered on 1 permit + queue %d, %ld admitted, %ld shed "
      "(%.0f%%), admitted p99 %.0f us vs bound %.0f us -> %s\n",
      offered, overload_queue_limit, offered - shed, shed, shed_rate * 100,
      admitted_p99, p99_bound_us, p99_within_bound ? "BOUNDED" : "UNBOUNDED");

  bench::JsonEmitter json;
  json.BeginObject();
  json.Key("bench");
  json.Value("planner_daemon");
  json.Key("model");
  json.Value(model.name);
  json.Key("cluster");
  json.Value("A");
  json.Key("quick");
  json.Value(quick);
  json.Key("num_seqs");
  json.Value(static_cast<int64_t>(num_seqs));
  json.Key("iters_per_client");
  json.Value(static_cast<int64_t>(iters_per_client));
  json.Key("inprocess");
  json.BeginObject();
  json.Key("plans_per_sec");
  json.Value(local_pps);
  json.Key("p50_us");
  json.Value(local_p50);
  json.Key("p99_us");
  json.Value(local_p99);
  json.EndObject();
  json.Key("inprocess_hit");
  json.BeginObject();
  json.Key("p50_us");
  json.Value(hit_p50);
  json.Key("p99_us");
  json.Value(hit_p99);
  json.EndObject();
  json.Key("points");
  json.BeginArray();
  for (const Arm& arm : arms) {
    json.BeginObject();
    json.Key("arm");
    json.Value(arm.name);
    json.Key("clients");
    json.Value(static_cast<int64_t>(arm.clients));
    json.Key("total_plans");
    json.Value(static_cast<int64_t>(arm.total));
    json.Key("wall_ms");
    json.Value(arm.wall_ms);
    json.Key("plans_per_sec");
    json.Value(arm.pps);
    json.Key("p50_us");
    json.Value(arm.p50);
    json.Key("p99_us");
    json.Value(arm.p99);
    json.Key("cache_hits");
    json.Value(static_cast<int64_t>(arm.hits));
    json.Key("cache_misses");
    json.Value(static_cast<int64_t>(arm.misses));
    json.Key("daemon_overhead_p50_us");
    json.Value(arm.overhead_p50);
    json.EndObject();
  }
  json.EndArray();
  json.Key("overload");
  json.BeginObject();
  json.Key("clients");
  json.Value(static_cast<int64_t>(overload_clients));
  json.Key("queue_limit");
  json.Value(static_cast<int64_t>(overload_queue_limit));
  json.Key("plan_delay_ms");
  json.Value(static_cast<int64_t>(plan_delay_ms));
  json.Key("offered");
  json.Value(static_cast<int64_t>(offered));
  json.Key("admitted");
  json.Value(static_cast<int64_t>(offered - shed));
  json.Key("shed");
  json.Value(static_cast<int64_t>(shed));
  json.Key("shed_rate");
  json.Value(shed_rate);
  json.Key("admitted_p50_us");
  json.Value(admitted_p50);
  json.Key("admitted_p99_us");
  json.Value(admitted_p99);
  json.Key("p99_bound_us");
  json.Value(p99_bound_us);
  json.Key("p99_within_bound");
  json.Value(p99_within_bound);
  json.EndObject();
  json.EndObject();
  json.WriteFile("BENCH_daemon.json");
  std::printf("wrote BENCH_daemon.json\n");
  return 0;
}
