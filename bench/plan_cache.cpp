// Plan-cache bench: served-plans/s through the content-addressed cache
// (src/core/plan_cache.h) versus planning every request from scratch — the
// serving-tier scenario the cache exists for: a frontend replaying a skewed
// mix of recurring batches against one planner.
//
// A Zipfian request stream (s = 1.1) over D distinct batches, each sent in
// its own slot order as a data loader hands it, is driven through two arms.
// The cache arm routes every request through PlanCache::Plan — a hit parses
// the stored certified image, a miss plans once and serializes the plan into
// the new entry, and every served plan must carry stats.verified (it was
// certified before it was stored). The no-cache arm sends the identical
// request sequence straight to PlannerService::Plan, and every served digest
// must equal the fresh plan's. Both arms are timed over the whole replay, so
// the speedup includes key derivation, LRU bookkeeping, the image encode on
// every miss and the parse on every hit — the honest in-process serving
// cost, not just the lookup.
//
// One cache replay lasts ~25 ms, which a shared host moves by up to 2x, so
// each of R repetitions runs both arms against fresh state, alternating
// which goes first. `speedup` is the median of the R per-repetition speedups
// (speedup_min/speedup_max give their range); the walls and plans/s are each
// arm's median.
//
// Output: a table plus machine-readable BENCH_cache.json:
//   { "bench": "plan_cache", "model", "cluster", "quick", "requests",
//     "distinct", "num_seqs", "zipf_s", "reps",
//     "hits", "misses", "evictions", "verify_failures",
//     "hit_rate", "cache_wall_ms", "nocache_wall_ms",
//     "cache_plans_per_s", "nocache_plans_per_s",
//     "speedup", "speedup_min", "speedup_max",
//     "all_verified": bool, "digests_match": bool }
// Exits 1 if a served plan was uncertified or differs from the fresh plan.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/core/plan_cache.h"
#include "src/core/plan_service.h"
#include "src/data/datasets.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"

int main(int argc, char** argv) {
  using namespace zeppelin;
  using clock = std::chrono::steady_clock;
  const bool quick = bench::QuickMode(argc, argv);

  const int requests = quick ? 300 : 3000;
  const int distinct = quick ? 12 : 64;
  const int num_seqs = 256;
  const double zipf_s = 1.1;

  const ClusterSpec cluster = MakeClusterA(32);
  const FabricResources fabric(cluster);
  const CostModel cost_model(MakeLlama30B(), cluster);
  const LengthDistribution dist = DatasetByName("github");

  // D distinct batches, each replayed in its own slot order.
  std::vector<Batch> batches(distinct);
  {
    Rng rng(0x5eed5eedull);
    for (Batch& batch : batches) {
      batch.seq_lens.reserve(num_seqs + 2);
      // Two ring-scale heads: long-context shapes force the hierarchical
      // partitioner through its inter-node ring machinery, the regime where
      // planning is expensive and caching pays.
      batch.seq_lens.push_back(1500000);
      batch.seq_lens.push_back(1400000);
      for (int i = 0; i < num_seqs; ++i) {
        batch.seq_lens.push_back(dist.Sample(rng));
      }
    }
  }

  // Zipfian request stream over the D batches, shared by both arms: per
  // request, the batch to replay. Requests are materialized inside each arm's
  // timed loop — identically in both — mimicking a frontend that receives
  // fresh request bytes per call.
  std::vector<int> schedule;
  schedule.reserve(requests);
  {
    Rng rng(0x21f1a2ull);
    std::vector<double> weights(distinct);
    for (int d = 0; d < distinct; ++d) {
      weights[d] = 1.0 / std::pow(static_cast<double>(d + 1), zipf_s);
    }
    for (int r = 0; r < requests; ++r) {
      schedule.push_back(static_cast<int>(rng.NextWeighted(weights)));
    }
  }

  bench::PrintHeader("Plan cache — served-plans/s vs cache-off (30B, Cluster A)");
  std::printf("%d requests over %d distinct batches (S=%d), zipf s=%.1f\n",
              requests, distinct, num_seqs, zipf_s);

  auto make_request = [&](const Batch& batch) {
    PlanRequest request;
    request.batch = &batch;
    request.cost_model = &cost_model;
    request.fabric = &fabric;
    return request;
  };

  auto wall_ms_since = [](clock::time_point start) {
    return std::chrono::duration<double, std::milli>(clock::now() - start).count();
  };

  // Cache arm, configured as the daemon's serving tier deploys it: one
  // replay against a fresh cache. Counters are deterministic across replays
  // (same schedule, fresh cache each time).
  bool all_verified = true;
  PlanCacheCounters counters;
  auto run_cache = [&](std::vector<uint64_t>* digests) {
    PlannerService service;
    PlanCache cache(&service);
    Batch scratch;
    const auto start = clock::now();
    for (const int b : schedule) {
      scratch.seq_lens = batches[b].seq_lens;
      const PlanResponse response = cache.Plan(make_request(scratch));
      all_verified = all_verified && response.stats.verified;
      digests->push_back(response.digest);
    }
    const double wall = wall_ms_since(start);
    counters = cache.counters();
    return wall;
  };
  // No-cache arm: the identical schedule, planned from scratch every time.
  auto run_direct = [&](std::vector<uint64_t>* digests) {
    PlannerService service;
    Batch scratch;
    const auto start = clock::now();
    for (const int b : schedule) {
      scratch.seq_lens = batches[b].seq_lens;
      digests->push_back(service.Plan(make_request(scratch)).digest);
    }
    return wall_ms_since(start);
  };

  const int reps = quick ? 3 : 15;
  std::vector<double> cache_walls, nocache_walls, speedups;
  bool digests_match = true;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<uint64_t> cache_digests, direct_digests;
    cache_digests.reserve(requests);
    direct_digests.reserve(requests);
    double cache_wall = 0;
    double nocache_wall = 0;
    // Alternate which arm goes first, so neither always meets a warmer host.
    if (rep % 2 == 0) {
      cache_wall = run_cache(&cache_digests);
      nocache_wall = run_direct(&direct_digests);
    } else {
      nocache_wall = run_direct(&direct_digests);
      cache_wall = run_cache(&cache_digests);
    }
    // Every request is a verbatim repeat, so a served plan is byte-identical
    // to the fresh one: the digests agree request by request.
    digests_match = digests_match && cache_digests == direct_digests;
    cache_walls.push_back(cache_wall);
    nocache_walls.push_back(nocache_wall);
    speedups.push_back(nocache_wall / cache_wall);
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double cache_wall_ms = median(cache_walls);
  const double nocache_wall_ms = median(nocache_walls);
  const double speedup = median(speedups);
  const double speedup_min = *std::min_element(speedups.begin(), speedups.end());
  const double speedup_max = *std::max_element(speedups.begin(), speedups.end());

  const double hit_rate =
      static_cast<double>(counters.hits) /
      static_cast<double>(std::max<int64_t>(1, counters.hits + counters.misses));
  const double cache_plans_per_s = requests / (cache_wall_ms / 1e3);
  const double nocache_plans_per_s = requests / (nocache_wall_ms / 1e3);

  Table table({"arm", "plans", "wall ms", "plans/s", "hits", "misses", "hit rate"});
  table.AddRow({"cache", Table::Cell(static_cast<int64_t>(requests)),
                Table::Cell(cache_wall_ms, 1), Table::Cell(cache_plans_per_s, 0),
                Table::Cell(static_cast<int64_t>(counters.hits)),
                Table::Cell(static_cast<int64_t>(counters.misses)),
                Table::Cell(hit_rate, 3)});
  table.AddRow({"no-cache", Table::Cell(static_cast<int64_t>(requests)),
                Table::Cell(nocache_wall_ms, 1), Table::Cell(nocache_plans_per_s, 0),
                Table::Cell(static_cast<int64_t>(0)),
                Table::Cell(static_cast<int64_t>(requests)), Table::Cell(0.0, 3)});
  table.Print();
  std::printf("\nspeedup %.1fx (median of %d; min %.1fx, max %.1fx) at %.1f%% hit rate\n",
              speedup, reps, speedup_min, speedup_max, hit_rate * 100);
  std::printf("%s, %s\n",
              all_verified ? "every served plan certified" : "UNCERTIFIED PLAN SERVED",
              digests_match ? "served digests match fresh plans" : "SERVED DIGEST MISMATCH");

  bench::JsonEmitter json;
  json.BeginObject();
  json.Key("bench");
  json.Value("plan_cache");
  json.Key("model");
  json.Value("llama30b");
  json.Key("cluster");
  json.Value("A");
  json.Key("quick");
  json.Value(quick);
  json.Key("requests");
  json.Value(requests);
  json.Key("distinct");
  json.Value(distinct);
  json.Key("num_seqs");
  json.Value(num_seqs);
  json.Key("zipf_s");
  json.Value(zipf_s);
  json.Key("reps");
  json.Value(reps);
  json.Key("hits");
  json.Value(static_cast<int64_t>(counters.hits));
  json.Key("misses");
  json.Value(static_cast<int64_t>(counters.misses));
  json.Key("evictions");
  json.Value(static_cast<int64_t>(counters.evictions));
  json.Key("verify_failures");
  json.Value(static_cast<int64_t>(counters.verify_failures));
  json.Key("hit_rate");
  json.Value(hit_rate);
  json.Key("cache_wall_ms");
  json.Value(cache_wall_ms);
  json.Key("nocache_wall_ms");
  json.Value(nocache_wall_ms);
  json.Key("cache_plans_per_s");
  json.Value(cache_plans_per_s);
  json.Key("nocache_plans_per_s");
  json.Value(nocache_plans_per_s);
  json.Key("speedup");
  json.Value(speedup);
  json.Key("speedup_min");
  json.Value(speedup_min);
  json.Key("speedup_max");
  json.Value(speedup_max);
  json.Key("all_verified");
  json.Value(all_verified);
  json.Key("digests_match");
  json.Value(digests_match);
  json.EndObject();

  const std::string out_path = "BENCH_cache.json";
  if (json.WriteFile(out_path)) {
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::printf("ERROR: could not write %s\n", out_path.c_str());
    return 1;
  }
  return all_verified && digests_match ? 0 : 1;
}
