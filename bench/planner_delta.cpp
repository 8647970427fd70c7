// Planner-delta bench: per-iteration cost of the delta-planning subsystem
// (src/core/delta_planner.h) against a full re-plan, across workload churn
// rates — the streaming/online-batch scenario where consecutive iterations'
// batches differ by a handful of sequences.
//
// For each churn rate, a WorkloadStream evolves one S-sequence batch for
// `iters` iterations. A DeltaPlanner patches its plan per iteration
// (Apply()), while a reference SequencePartitioner (the sharded engine
// inline, with a warm scratch — its steady-state cost) re-plans the same
// batch from scratch. Every iteration is verified through CheckDeltaEquivalence: ring-
// set equivalence (coverage, arena validity, token conservation, identical
// inter-node-zone ring set) plus the ε-bound on the max rank load, with
// ε = replan_threshold + 0.05 (the imbalance-guard budget plus a
// stationarity margin — see docs/DELTA_PLANS.md). The 20% churn point is
// above the fallback threshold by design: it shows the policy degrading
// gracefully to ~full-replan cost rather than patching a mostly-new batch.
//
// Output: a table plus machine-readable BENCH_delta.json:
//   { "bench": "planner_delta", "model", "cluster", "quick", "iters",
//     "num_seqs", "gpus", "total_tokens", "replan_threshold", "eps",
//     "points": [ { "churn_rate", "delta_time_us", "full_replan_time_us",
//                   "delta_speedup", "applied", "rebased",
//                   "repacked_nodes", "evicted_rings",
//                   "max_load_ratio", "eps_bound_ok", "equivalence_ok" } ],
//     "all_equivalent": bool, "low_churn_speedup": double }
// Times are medians over the stream's iterations; delta_speedup is
// full_replan_time_us / delta_time_us at the same churn rate.
// Target (ROADMAP): >= 10x at <= 1% churn, S=64k, P=512.
#include <algorithm>
#include <chrono>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/table.h"
#include "src/core/delta_planner.h"
#include "src/data/stream.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"

int main(int argc, char** argv) {
  using namespace zeppelin;
  using clock = std::chrono::steady_clock;
  const bool quick = bench::QuickMode(argc, argv);

  const int num_seqs = quick ? 4096 : 65536;
  const int gpus = quick ? 64 : 512;
  const int iters = quick ? 10 : 40;
  const std::vector<double> churn_rates = {0.001, 0.01, 0.05, 0.20};
  const double replan_threshold = 0.08;  // 20% churn falls back by design.
  const double eps = replan_threshold + 0.05;

  const ClusterSpec cluster = MakeClusterA(gpus / 8);
  const LengthDistribution dist = DatasetByName("github");

  // One initial batch shared by every churn arm (each arm evolves its own
  // copy), lengths drawn from the dataset histogram as in planner_scaling.
  Rng rng(0x9e3779b97f4a7c15ull ^ (static_cast<uint64_t>(num_seqs) << 20) ^
          static_cast<uint64_t>(gpus));
  Batch initial;
  initial.seq_lens.reserve(num_seqs);
  for (int i = 0; i < num_seqs; ++i) {
    initial.seq_lens.push_back(dist.Sample(rng));
  }
  const int64_t world = cluster.world_size();
  const int64_t average = (initial.total_tokens() + world - 1) / world;
  const int64_t capacity = average + average / 4;

  bench::PrintHeader("Planner delta — incremental patch vs full re-plan (3B, Cluster A)");
  std::printf("S=%d, GPUs=%d, %d iterations per churn rate, threshold=%.2f, eps=%.2f\n",
              num_seqs, gpus, iters, replan_threshold, eps);
  Table table({"churn", "delta us", "full us", "speedup", "applied", "rebased", "max ratio",
               "equivalent"});

  bench::JsonEmitter json;
  json.BeginObject();
  json.Key("bench");
  json.Value("planner_delta");
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
  json.Key("total_tokens");
  json.Value(initial.total_tokens());
  json.Key("replan_threshold");
  json.Value(replan_threshold);
  json.Key("eps");
  json.Value(eps);
  json.Key("points");
  json.BeginArray();

  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };

  bool all_equivalent = true;
  double low_churn_speedup = 0;  // Best speedup among the <= 1% churn arms.
  for (double churn : churn_rates) {
    DeltaPlannerOptions dopts;
    dopts.partitioner.token_capacity = capacity;
    dopts.replan_threshold = replan_threshold;
    DeltaPlanner dp(cluster, dopts);
    dp.Rebase(initial);
    const int64_t stats_base_applied = dp.stats().count(DeltaOutcome::kApplied);

    // Full-replan arm: the inline sharded engine with persistent (warm) scratch —
    // what a non-streaming planner pays every iteration. Capacity tracks the
    // delta planner's (auto-raises are rare and shared).
    SequencePartitioner ref(cluster,
                            SequencePartitioner::Options{.token_capacity = capacity});
    PlannerScratch ref_scratch;
    PartitionPlan ref_plan;
    ref.Partition(initial, &ref_scratch, &ref_plan);  // Warm the scratch.

    WorkloadStream stream(dist, initial, StreamOptions{.churn_fraction = churn}, 0xdeadbeef);
    std::vector<double> delta_times;
    std::vector<double> full_times;
    bool point_equivalent = true;
    double max_ratio = 0;
    for (int it = 0; it < iters; ++it) {
      const BatchDelta delta = stream.Next();
      const auto t0 = clock::now();
      const DeltaOutcome outcome = dp.Apply(delta);
      const auto t1 = clock::now();
      ref.set_options(SequencePartitioner::Options{.token_capacity = dp.token_capacity()});
      ref.Partition(dp.batch(), &ref_scratch, &ref_plan);
      const auto t2 = clock::now();
      delta_times.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
      full_times.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());

      const DeltaEquivalenceResult eq =
          CheckDeltaEquivalence(dp.plan(), ref_plan, dp.batch(), eps);
      point_equivalent = point_equivalent && eq.ok;
      max_ratio = std::max(max_ratio, eq.max_load_ratio);
      if (!eq.ok) {
        std::printf("churn %.3f iter %d: NOT EQUIVALENT: %s (ratio %.4f)\n", churn, it,
                    eq.failure.c_str(), eq.max_load_ratio);
      }
      // A fallback is a full re-plan and must match the reference exactly;
      // StateDigest compares the plans in O(plan) without copies.
      if (outcome != DeltaOutcome::kApplied &&
          dp.plan().StateDigest() != ref_plan.StateDigest()) {
        std::printf("churn %.3f iter %d: fallback (%s) diverged from the reference plan\n",
                    churn, it, DeltaOutcomeName(outcome));
        point_equivalent = false;
      }
    }
    all_equivalent = all_equivalent && point_equivalent;

    const double delta_us = median(delta_times);
    const double full_us = median(full_times);
    const double speedup = delta_us > 0 ? full_us / delta_us : 0;
    if (churn <= 0.01) {
      low_churn_speedup = std::max(low_churn_speedup, speedup);
    }
    const DeltaStats& stats = dp.stats();
    const int64_t applied = stats.count(DeltaOutcome::kApplied) - stats_base_applied;

    table.AddRow({Table::Cell(churn, 3), Table::Cell(delta_us, 1), Table::Cell(full_us, 1),
                  Table::Cell(speedup, 1) + "x",
                  Table::Cell(applied) + "/" + Table::Cell(static_cast<int64_t>(iters)),
                  Table::Cell(stats.rebased()), Table::Cell(max_ratio, 3),
                  point_equivalent ? "yes" : "NO"});

    json.BeginObject();
    json.Key("churn_rate");
    json.Value(churn);
    json.Key("delta_time_us");
    json.Value(delta_us);
    json.Key("full_replan_time_us");
    json.Value(full_us);
    json.Key("delta_speedup");
    json.Value(speedup);
    json.Key("applied");
    json.Value(applied);
    json.Key("rebased");
    json.Value(stats.rebased());
    json.Key("repacked_nodes");
    json.Value(stats.repacked_nodes);
    json.Key("evicted_rings");
    json.Value(stats.evicted_rings);
    json.Key("max_load_ratio");
    json.Value(max_ratio);
    json.Key("eps_bound_ok");
    json.Value(max_ratio <= 1.0 + eps);
    json.Key("equivalence_ok");
    json.Value(point_equivalent);
    json.EndObject();
  }
  json.EndArray();
  json.Key("all_equivalent");
  json.Value(all_equivalent);
  json.Key("low_churn_speedup");
  json.Value(low_churn_speedup);
  json.EndObject();

  table.Print();
  const std::string out_path = "BENCH_delta.json";
  if (json.WriteFile(out_path)) {
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::printf("\nERROR: could not write %s\n", out_path.c_str());
    return 1;
  }
  if (!all_equivalent) {
    std::printf("ERROR: a patched plan failed the equivalence contract\n");
    return 1;
  }
  std::printf(
      "Expected shape: the delta path wins most at low churn (>= 10x at <= 1%%\n"
      "churn at the full S=64k, P=512 sweep) and degrades gracefully to\n"
      "~full-replan cost at 20%% churn, where the fallback policy re-plans by\n"
      "design. Every point must report equivalence_ok (ring-set equivalence\n"
      "and the eps max-load bound against the from-scratch plan).\n");
  return 0;
}
