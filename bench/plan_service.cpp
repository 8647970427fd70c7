// Plan-service bench: concurrent-stream planning throughput through one
// PlannerService (src/core/plan_service.h) — the multi-tenant streaming
// scenario the service exists for: N independent delta streams (continuous-
// batching queues / online-training shards) planned from N threads against
// one session table.
//
// For each stream count in {1, 4, 16}, N WorkloadStreams evolve N distinct
// S-sequence batches for `iters` iterations each; every iteration is a
// session request (base rebase first, then delta patches with the PR-4
// fallback policy). Wall-clock is measured over the whole fan-out, so the
// plans/sec figure includes session locking, handle materialization (the
// O(plan) immutable-copy), digest computation, and the fallback re-plans
// each stream runs on its own thread — the end-to-end service cost, not just
// the patch kernel (BENCH_delta.json isolates that). Each arm is then replayed
// serially on a fresh service and the per-stream digest sequences must
// match — the twin-digest determinism contract.
//
// Output: a table plus machine-readable BENCH_service.json:
//   { "bench": "plan_service", "model", "cluster", "quick", "iters",
//     "num_seqs", "gpus", "churn",
//     "points": [ { "streams", "total_plans", "wall_ms", "plans_per_sec",
//                   "mean_plan_us", "applied", "rebased",
//                   "digests_deterministic" } ],
//     "all_deterministic": bool, "peak_plans_per_sec": double }
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/core/plan_service.h"
#include "src/data/stream.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"

int main(int argc, char** argv) {
  using namespace zeppelin;
  using clock = std::chrono::steady_clock;
  const bool quick = bench::QuickMode(argc, argv);

  const int num_seqs = quick ? 1024 : 8192;
  const int gpus = quick ? 32 : 128;
  const int iters = quick ? 8 : 40;
  const double churn = 0.01;
  const double threshold = 0.08;
  const std::vector<int> stream_counts = {1, 4, 16};

  const ClusterSpec cluster = MakeClusterA(gpus / 8);
  const FabricResources fabric(cluster);
  const TransformerConfig model = MakeLlama3B();
  const CostModel cost_model(model, cluster);
  const LengthDistribution dist = DatasetByName("github");

  bench::PrintHeader("Plan service — concurrent-stream planning throughput (3B, Cluster A)");
  std::printf("S=%d per stream, GPUs=%d, %d iterations per stream, churn=%.2f%%\n", num_seqs,
              gpus, iters, churn * 100);
  Table table({"streams", "plans", "wall ms", "plans/s", "mean us", "applied", "rebased",
               "deterministic"});

  bench::JsonEmitter json;
  json.BeginObject();
  json.Key("bench");
  json.Value("plan_service");
  json.Key("model");
  json.Value("llama3b");
  json.Key("cluster");
  json.Value("A");
  json.Key("quick");
  json.Value(quick);
  json.Key("iters");
  json.Value(iters);
  json.Key("num_seqs");
  json.Value(num_seqs);
  json.Key("gpus");
  json.Value(gpus);
  json.Key("churn");
  json.Value(churn);
  json.Key("points");
  json.BeginArray();

  // One stream's full request sequence against `service`; returns the
  // digest of every response, in iteration order.
  auto drive_stream = [&](PlannerService& service, int stream_index,
                          std::vector<uint64_t>* digests) {
    Rng rng(0x9e3779b97f4a7c15ull ^ static_cast<uint64_t>(stream_index));
    Batch initial;
    initial.seq_lens.reserve(num_seqs);
    for (int i = 0; i < num_seqs; ++i) {
      initial.seq_lens.push_back(dist.Sample(rng));
    }
    WorkloadStream stream(dist,
                          std::move(initial),
                          StreamOptions{.stream_id = "bench-" + std::to_string(stream_index),
                                        .churn_fraction = churn},
                          0xbadcafe + static_cast<uint64_t>(stream_index));
    PlanRequest request;
    request.cost_model = &cost_model;
    request.fabric = &fabric;
    request.options.delta_replan_threshold = threshold;
    request.stream_id = stream.stream_id();

    request.batch = &stream.batch();
    digests->push_back(service.Plan(request).digest);  // Base plan.
    for (int it = 0; it < iters; ++it) {
      const BatchDelta delta = stream.Next();
      request.batch = &stream.batch();
      request.delta = &delta;
      digests->push_back(service.Plan(request).digest);
    }
  };

  bool all_deterministic = true;
  double peak_plans_per_sec = 0;
  for (int streams : stream_counts) {
    // Concurrent arm: one thread per stream, one shared service.
    PlannerService service;
    std::vector<std::vector<uint64_t>> digests(streams);
    const auto t0 = clock::now();
    {
      std::vector<std::thread> workers;
      workers.reserve(streams);
      for (int s = 0; s < streams; ++s) {
        workers.emplace_back(drive_stream, std::ref(service), s, &digests[s]);
      }
      for (std::thread& worker : workers) {
        worker.join();
      }
    }
    const double wall_ms =
        std::chrono::duration<double, std::milli>(clock::now() - t0).count();

    // Serial twin: identical per-stream digest sequences required.
    PlannerService twin;
    bool deterministic = true;
    for (int s = 0; s < streams; ++s) {
      std::vector<uint64_t> reference;
      drive_stream(twin, s, &reference);
      deterministic = deterministic && reference == digests[s];
    }
    all_deterministic = all_deterministic && deterministic;

    int64_t applied = 0;
    int64_t rebased = 0;
    for (int s = 0; s < streams; ++s) {
      DeltaStats stats;
      if (service.GetSessionStats("bench-" + std::to_string(s), &stats)) {
        applied += stats.count(DeltaOutcome::kApplied);
        rebased += stats.rebased();
      }
    }

    const int64_t total_plans = static_cast<int64_t>(streams) * (iters + 1);
    const double plans_per_sec = total_plans / (wall_ms / 1e3);
    const double mean_plan_us = wall_ms * 1e3 / total_plans;
    peak_plans_per_sec = std::max(peak_plans_per_sec, plans_per_sec);

    table.AddRow({Table::Cell(static_cast<int64_t>(streams)), Table::Cell(total_plans),
                  Table::Cell(wall_ms, 1), Table::Cell(plans_per_sec, 0),
                  Table::Cell(mean_plan_us, 1), Table::Cell(applied), Table::Cell(rebased),
                  deterministic ? "yes" : "NO"});

    json.BeginObject();
    json.Key("streams");
    json.Value(streams);
    json.Key("total_plans");
    json.Value(total_plans);
    json.Key("wall_ms");
    json.Value(wall_ms);
    json.Key("plans_per_sec");
    json.Value(plans_per_sec);
    json.Key("mean_plan_us");
    json.Value(mean_plan_us);
    json.Key("applied");
    json.Value(applied);
    json.Key("rebased");
    json.Value(rebased);
    json.Key("digests_deterministic");
    json.Value(deterministic);
    json.EndObject();
  }
  json.EndArray();
  json.Key("all_deterministic");
  json.Value(all_deterministic);
  json.Key("peak_plans_per_sec");
  json.Value(peak_plans_per_sec);
  json.EndObject();

  table.Print();
  const std::string out_path = "BENCH_service.json";
  if (json.WriteFile(out_path)) {
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::printf("\nERROR: could not write %s\n", out_path.c_str());
    return 1;
  }
  if (!all_deterministic) {
    std::printf("ERROR: a concurrent stream diverged from its serial twin\n");
    return 1;
  }
  std::printf(
      "Expected shape: plans/sec grows with the stream count until the host's\n"
      "cores saturate (patches and fallback re-plans on distinct sessions\n"
      "run fully in parallel), and every stream's digest sequence matches\n"
      "its serial twin exactly.\n");
  return 0;
}
