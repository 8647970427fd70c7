// Planner-elastic bench: recovery latency of the elastic replanning subsystem
// (docs/ELASTIC.md) under seeded rank faults, against a full elastic re-plan,
// across failure rates — the fault-tolerant daemon scenario where ranks die,
// restore, and straggle while the batch itself keeps churning.
//
// For each failure rate, a FaultStream drives kill/restore/slowdown
// TopologyDeltas and a WorkloadStream drives light batch churn. The patch arm
// is a DeltaPlanner absorbing both deltas incrementally (ApplyTopology +
// Apply — its fallback policy replans fully when the damage is structural);
// the reference arm is a twin planner forced through Invalidate() +
// ApplyTopology() + Rebase(), i.e. the from-scratch elastic re-plan a
// planner without the patch path would pay every iteration. Every iteration
// is verified through the topology-aware CheckDeltaEquivalence overload:
// coverage, arena validity, token conservation, dead-rank exclusion on BOTH
// plans, and the ε-bound on the max *effective* (speed-normalized) rank load
// over the surviving fabric.
//
// The heterogeneous arm grounds the speed-factor model in the Fig. 10
// cluster-comparison harness (bench/fig10_cluster_comparison.cpp): the same
// straggler pattern — half of node 0's ranks at half speed — is applied on
// Cluster A and Cluster B presets and verified to rebalance by effective
// load on both fabrics.
//
// Output: a table plus machine-readable BENCH_elastic.json:
//   { "bench": "planner_elastic", "model", "cluster", "quick", "iters",
//     "num_seqs", "gpus", "total_tokens", "migration_budget", "eps",
//     "points": [ { "fault_rate", "patch_time_us", "full_replan_time_us",
//                   "recovery_speedup", "applied_topology", "rebase_topology",
//                   "rebase_migration", "replans", "migrated_sequences",
//                   "max_load_ratio", "equivalence_ok" } ],
//     "hetero_points": [ { "cluster", "slow_ranks", "speed_factor",
//                          "patch_time_us", "max_load_ratio",
//                          "equivalence_ok" } ],
//     "all_equivalent": bool, "low_rate_speedup": double }
// Times are medians over the stream's iterations; recovery_speedup is
// full_replan_time_us / patch_time_us at the same failure rate. The outcome
// counts (applied_topology, rebase_*, replans: every fallback of the patch
// arm, batch and topology) are deterministic; the times are not only noisy
// but layout-sensitive: where the linker places the sharded engine's code
// moves full_replan_time_us by ~20% between builds of equal work, so compare
// times across commits only with an alignment-pinned build.
// Target (ROADMAP open item 3): patching beats the full re-plan at low
// failure rates, and every post-failure plan passes the surviving-fabric
// equivalence contract.
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

  const int num_seqs = quick ? 2048 : 16384;
  const int gpus = quick ? 64 : 256;
  const int iters = quick ? 12 : 40;
  const std::vector<double> fault_rates = {0.001, 0.01, 0.05};
  const double replan_threshold = 0.08;
  const double eps = replan_threshold + 0.07;  // Guard budget + slowdown margin.
  const int64_t migration_budget = 256;

  const ClusterSpec cluster = MakeClusterA(gpus / 8);
  const LengthDistribution dist = DatasetByName("github");

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

  bench::PrintHeader("Planner elastic — topology patch vs full elastic re-plan (3B, Cluster A)");
  std::printf("S=%d, GPUs=%d, %d iterations per failure rate, budget=%ld, eps=%.2f\n",
              num_seqs, gpus, iters, static_cast<long>(migration_budget), eps);
  Table table({"fault rate", "patch us", "full us", "speedup", "topo ok", "topo rebase",
               "replans", "migrated", "max ratio", "equivalent"});

  bench::JsonEmitter json;
  json.BeginObject();
  json.Key("bench");
  json.Value("planner_elastic");
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
  json.Key("migration_budget");
  json.Value(migration_budget);
  json.Key("eps");
  json.Value(eps);
  json.Key("points");
  json.BeginArray();

  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v.empty() ? 0.0 : v[v.size() / 2];
  };

  bool all_equivalent = true;
  double low_rate_speedup = 0;  // Best speedup among the <= 1% arms.
  for (double rate : fault_rates) {
    DeltaPlannerOptions dopts;
    dopts.partitioner.token_capacity = capacity;
    dopts.replan_threshold = replan_threshold;
    dopts.migration_budget = migration_budget;
    DeltaPlanner dp(cluster, dopts);
    dp.Rebase(initial);
    DeltaPlanner full(cluster, dopts);
    full.Rebase(initial);

    FaultStreamOptions fopts;
    fopts.fault_rate = rate;
    fopts.restore_after = 4;
    fopts.slowdown_rate = rate / 2;
    FaultStream faults(cluster.world_size(), fopts, 0xe1a57ull);
    WorkloadStream stream(dist, initial, StreamOptions{.churn_fraction = 0.005}, 0xdeadbeef);

    std::vector<double> patch_times;
    std::vector<double> full_times;
    bool point_equivalent = true;
    double max_ratio = 0;
    for (int it = 0; it < iters; ++it) {
      const TopologyDelta topo = faults.Next();
      const BatchDelta delta = stream.Next();

      const auto t0 = clock::now();
      dp.ApplyTopology(topo);
      dp.Apply(delta);
      const auto t1 = clock::now();
      patch_times.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());

      // Reference: the same fabric + batch state, re-planned from scratch —
      // Invalidate() drops the base so ApplyTopology only advances the
      // topology, and the timed Rebase is the pure elastic re-plan cost.
      full.Invalidate();
      full.ApplyTopology(topo);
      const auto t2 = clock::now();
      full.Rebase(dp.batch());
      const auto t3 = clock::now();
      full_times.push_back(std::chrono::duration<double, std::micro>(t3 - t2).count());

      const DeltaEquivalenceResult eq =
          CheckDeltaEquivalence(dp.plan(), full.plan(), dp.batch(), dp.topology(), eps);
      point_equivalent = point_equivalent && eq.ok;
      max_ratio = std::max(max_ratio, eq.max_load_ratio);
      if (!eq.ok) {
        std::printf("rate %.3f iter %d: NOT EQUIVALENT: %s (ratio %.4f)\n", rate, it,
                    eq.failure.c_str(), eq.max_load_ratio);
      }
    }
    all_equivalent = all_equivalent && point_equivalent;

    const double patch_us = median(patch_times);
    const double full_us = median(full_times);
    const double speedup = patch_us > 0 ? full_us / patch_us : 0;
    if (rate <= 0.01) {
      low_rate_speedup = std::max(low_rate_speedup, speedup);
    }
    const DeltaStats& stats = dp.stats();

    table.AddRow({Table::Cell(rate, 3), Table::Cell(patch_us, 1), Table::Cell(full_us, 1),
                  Table::Cell(speedup, 1) + "x", Table::Cell(stats.count(DeltaOutcome::kAppliedTopology)),
                  Table::Cell(stats.count(DeltaOutcome::kRebasedTopology) +
                              stats.count(DeltaOutcome::kRebasedMigration)),
                  Table::Cell(stats.rebased()), Table::Cell(stats.migrated_sequences),
                  Table::Cell(max_ratio, 3),
                  point_equivalent ? "yes" : "NO"});

    json.BeginObject();
    json.Key("fault_rate");
    json.Value(rate);
    json.Key("patch_time_us");
    json.Value(patch_us);
    json.Key("full_replan_time_us");
    json.Value(full_us);
    json.Key("recovery_speedup");
    json.Value(speedup);
    json.Key("applied_topology");
    json.Value(stats.count(DeltaOutcome::kAppliedTopology));
    json.Key("rebase_topology");
    json.Value(stats.count(DeltaOutcome::kRebasedTopology));
    json.Key("rebase_migration");
    json.Value(stats.count(DeltaOutcome::kRebasedMigration));
    json.Key("replans");
    json.Value(stats.rebased());
    json.Key("migrated_sequences");
    json.Value(stats.migrated_sequences);
    json.Key("max_load_ratio");
    json.Value(max_ratio);
    json.Key("equivalence_ok");
    json.Value(point_equivalent);
    json.EndObject();
  }
  json.EndArray();

  // Heterogeneous-fabric arm (Fig. 10 grounding): the same straggler pattern
  // on two cluster presets, rebalanced by effective load.
  json.Key("hetero_points");
  json.BeginArray();
  bench::PrintHeader("Heterogeneous fabric — node-0 stragglers at half speed");
  Table htable({"cluster", "slow ranks", "patch us", "max ratio", "equivalent"});
  const double slow_factor = 0.5;
  struct HeteroArm {
    const char* name;
    ClusterSpec spec;
  };
  const int hetero_nodes = std::max(2, gpus / 16);
  const std::vector<HeteroArm> arms = {{"A", MakeClusterA(hetero_nodes)},
                                       {"B", MakeClusterB(hetero_nodes)}};
  for (const HeteroArm& arm : arms) {
    Rng hrng(0xf19107ull ^ static_cast<uint64_t>(arm.spec.world_size()));
    Batch hbatch;
    hbatch.seq_lens.reserve(num_seqs / 2);
    for (int i = 0; i < num_seqs / 2; ++i) {
      hbatch.seq_lens.push_back(dist.Sample(hrng));
    }
    const int64_t hworld = arm.spec.world_size();
    const int64_t havg = (hbatch.total_tokens() + hworld - 1) / hworld;
    DeltaPlannerOptions hopts;
    hopts.partitioner.token_capacity = havg + havg / 2;  // Headroom for the slowed node.
    hopts.replan_threshold = replan_threshold;
    hopts.migration_budget = migration_budget;
    DeltaPlanner hdp(arm.spec, hopts);
    hdp.Rebase(hbatch);
    DeltaPlanner hfull(arm.spec, hopts);

    TopologyDelta slow;
    const int slow_ranks = arm.spec.gpus_per_node / 2;
    for (int d = 0; d < slow_ranks; ++d) {
      slow.speed_factors.emplace_back(d, slow_factor);
    }
    const auto t0 = clock::now();
    hdp.ApplyTopology(slow);
    const auto t1 = clock::now();
    const double patch_us = std::chrono::duration<double, std::micro>(t1 - t0).count();

    hfull.ApplyTopology(slow);
    hfull.Rebase(hbatch);
    const DeltaEquivalenceResult eq =
        CheckDeltaEquivalence(hdp.plan(), hfull.plan(), hbatch, hdp.topology(), eps);
    all_equivalent = all_equivalent && eq.ok;
    htable.AddRow({arm.name, Table::Cell(static_cast<int64_t>(slow_ranks)),
                   Table::Cell(patch_us, 1), Table::Cell(eq.max_load_ratio, 3),
                   eq.ok ? "yes" : "NO"});
    if (!eq.ok) {
      std::printf("hetero cluster %s: NOT EQUIVALENT: %s (ratio %.4f)\n", arm.name,
                  eq.failure.c_str(), eq.max_load_ratio);
    }

    json.BeginObject();
    json.Key("cluster");
    json.Value(arm.name);
    json.Key("slow_ranks");
    json.Value(slow_ranks);
    json.Key("speed_factor");
    json.Value(slow_factor);
    json.Key("patch_time_us");
    json.Value(patch_us);
    json.Key("max_load_ratio");
    json.Value(eq.max_load_ratio);
    json.Key("equivalence_ok");
    json.Value(eq.ok);
    json.EndObject();
  }
  json.EndArray();
  json.Key("all_equivalent");
  json.Value(all_equivalent);
  json.Key("low_rate_speedup");
  json.Value(low_rate_speedup);
  json.EndObject();

  table.Print();
  htable.Print();
  const std::string out_path = "BENCH_elastic.json";
  if (json.WriteFile(out_path)) {
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::printf("\nERROR: could not write %s\n", out_path.c_str());
    return 1;
  }
  if (!all_equivalent) {
    std::printf("ERROR: a post-failure plan failed the surviving-fabric equivalence contract\n");
    return 1;
  }
  if (low_rate_speedup <= 1.0) {
    std::printf("ERROR: topology patching did not beat the full elastic re-plan at low "
                "failure rates (speedup %.2fx)\n", low_rate_speedup);
    return 1;
  }
  std::printf(
      "Expected shape: patching wins most at low failure rates (few rings touch a\n"
      "dead or slowed rank, so the dirty set stays small) and converges toward\n"
      "full-replan cost as the rate grows and structural fallbacks dominate.\n"
      "Every point must report equivalence_ok: coverage, dead-rank exclusion,\n"
      "and the eps bound on max effective load over the surviving fabric.\n");
  return 0;
}
