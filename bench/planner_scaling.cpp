// Planner-scaling bench: per-iteration Plan() cost of the hierarchical
// partitioner — the naive oracle vs the sharded engine.
//
// The paper's premise (§3.1) is that two-level sequence partitioning is cheap
// enough to run every iteration on the global batch. This harness sweeps the
// batch size S and the cluster size P over the Table 2 length distributions
// and times ZeppelinStrategy::Plan() (surfaced as partition_time_us) on the
// sharded engine against the reference linear-scan greedy ("naive", the seed
// algorithm), which is timed through SequencePartitioner::PartitionNaive
// directly at the capacity the strategy derived. The engine's plan is
// verified bit-identical to the oracle's at every point — the determinism
// contract of partitioner.h.
//
// Each point also isolates the *materialization* cost of the plan
// representation: the time to build the final plan's ring storage from its
// decisions. `materialize_time_us` measures the flat rank-arena form (three
// allocations + bulk copies regardless of ring count);
// `legacy_materialize_time_us` builds the same rings as the pre-arena
// representation (one std::vector<int> per ring, the PR-2 RingSequence
// layout) — one allocation per ring, the ~1 ms floor at S=64k that the
// arena removes. materialize_speedup = legacy / flat. The *_warm_* variants
// repeat both with cursor-recycled destinations (the planners' steady-state
// emission discipline), isolating the pure layout effect.
//
// Output: a human-readable table plus machine-readable BENCH_planner.json:
//   { "bench": "planner_scaling", "model": ..., "cluster": ...,
//     "quick": bool, "reps": int,
//     "points": [ { "dataset", "num_seqs", "gpus", "total_tokens",
//                   "naive_partition_time_us", "engine_partition_time_us",
//                   "speedup", "materialize_time_us", "legacy_materialize_time_us",
//                   "materialize_speedup", "materialize_warm_time_us",
//                   "legacy_materialize_warm_time_us", "plans_identical" } ],
//     "all_plans_identical": bool }
// Times are the median over `reps` interleaved repetitions after one untimed
// warmup (noise-robust and fair to both arms). speedup is the naive oracle's
// time over the sharded engine's on the same point.
#include <algorithm>
#include <chrono>

#include "src/core/partitioner.h"

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"

namespace {

// Keeps the materialization microbench's copies observable to the optimizer.
volatile size_t sink;

}  // namespace

int main(int argc, char** argv) {
  using namespace zeppelin;
  const bool quick = bench::QuickMode(argc, argv);
  const int reps = quick ? 1 : 7;
  const std::vector<int> seq_counts = quick ? std::vector<int>{1024}
                                            : std::vector<int>{1024, 4096, 16384, 65536};
  const std::vector<int> gpu_counts = quick ? std::vector<int>{16, 64}
                                            : std::vector<int>{16, 64, 256, 512};

  bench::PrintHeader("Planner scaling — naive oracle vs sharded engine (3B, Cluster A)");
  Table table({"dataset", "seqs", "GPUs", "naive us", "engine us", "naive/engine", "mat us",
               "mat x", "identical"});

  bench::JsonEmitter json;
  json.BeginObject();
  json.Key("bench");
  json.Value("planner_scaling");
  json.Key("model");
  json.Value("llama3b");
  json.Key("cluster");
  json.Value("A");
  json.Key("quick");
  json.Value(quick);
  json.Key("reps");
  json.Value(reps);
  json.Key("points");
  json.BeginArray();

  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };

  bool all_identical = true;
  for (const auto& dist : EvaluationDatasets()) {
    for (int num_seqs : seq_counts) {
      for (int gpus : gpu_counts) {
        const Trainer trainer(MakeLlama3B(), MakeClusterA(gpus / 8));

        // Exactly `num_seqs` sequences per batch (the sweep axis), lengths
        // drawn from the dataset histogram. The strategy derives its token
        // capacity from the batch, so any S fits any P.
        Rng rng(0x9e3779b97f4a7c15ull ^ (static_cast<uint64_t>(num_seqs) << 20) ^
                static_cast<uint64_t>(gpus));
        Batch batch;
        batch.seq_lens.reserve(num_seqs);
        for (int i = 0; i < num_seqs; ++i) {
          batch.seq_lens.push_back(dist.Sample(rng));
        }

        ZeppelinStrategy engine;
        // The oracle plans at the capacity the strategy derives for this
        // batch (the first Plan() call doubles as the engine's warmup).
        engine.Plan(batch, trainer.cost_model(), trainer.fabric());
        const SequencePartitioner naive(
            trainer.fabric().cluster(),
            {.token_capacity = engine.last_plan_stats().token_capacity});
        PlannerScratch naive_scratch;
        PartitionPlan naive_plan;

        using clock = std::chrono::steady_clock;
        std::vector<double> naive_times;
        std::vector<double> engine_times;
        for (int r = 0; r < reps + 1; ++r) {
          const auto t0 = clock::now();
          naive.PartitionNaive(batch, &naive_scratch, &naive_plan);
          const double naive_time =
              std::chrono::duration<double, std::micro>(clock::now() - t0).count();
          engine.Plan(batch, trainer.cost_model(), trainer.fabric());
          if (r == 0) {
            continue;  // Warmup: both arms grow their buffers untimed.
          }
          naive_times.push_back(naive_time);
          engine_times.push_back(engine.partition_time_us());
        }
        const double naive_us = median(naive_times);
        const double engine_us = median(engine_times);
        const double speedup = engine_us > 0 ? naive_us / engine_us : 0;
        const bool point_identical = engine.partition_plan() == naive_plan;
        all_identical = all_identical && point_identical;

        // Materialization microbench: the cost of building the final plan's
        // ring storage, flat rank-arena layout vs the pre-arena per-ring
        // std::vector<int> layout (PR-2's RingSequence), on identical plan
        // data. Two regimes per layout:
        //   fresh — from-scratch construction, what any plan copy / one-shot
        //     Partition() / plan-holding consumer pays. The flat layout is a
        //     fixed three allocations + bulk memcpys; the legacy layout pays
        //     one allocation per ring (the ~1 ms floor the arena removes).
        //     materialize_speedup compares these.
        //   warm — cursor-recycled destinations (the planners' steady-state
        //     emission discipline): the residual delta is pure memory layout
        //     (bulk copies vs scattered per-ring writes).
        // The legacy arm materializes into the real owning RingSequence type
        // (kept in partitioner.h for external producers) — exactly the
        // pre-arena per-ring layout.
        const PartitionPlan& src = naive_plan;
        PartitionPlan flat_dst;
        std::vector<RingSequence> legacy;
        size_t legacy_count = 0;
        std::vector<double> flat_times;
        std::vector<double> legacy_times;
        std::vector<double> flat_warm_times;
        std::vector<double> legacy_warm_times;
        for (int r = 0; r < reps + 1; ++r) {
          const auto t0 = clock::now();
          {
            PartitionPlan fresh;
            fresh.inter_node = src.inter_node;
            fresh.intra_node = src.intra_node;
            fresh.rank_arena = src.rank_arena;
            sink = fresh.rank_arena.size();
          }
          const auto t1 = clock::now();
          {
            std::vector<RingSequence> fresh;
            fresh.reserve(src.inter_node.size() + src.intra_node.size());
            auto emit = [&](RingView ring) {
              fresh.push_back({ring.seq_id, ring.length, ring.zone,
                               std::vector<int>(ring.ranks.begin(), ring.ranks.end())});
            };
            for (RingView ring : src.rings(src.inter_node)) {
              emit(ring);
            }
            for (RingView ring : src.rings(src.intra_node)) {
              emit(ring);
            }
            sink = fresh.size();
          }
          const auto t2 = clock::now();
          flat_dst.inter_node = src.inter_node;
          flat_dst.intra_node = src.intra_node;
          flat_dst.rank_arena = src.rank_arena;
          sink = flat_dst.rank_arena.size();
          const auto t3 = clock::now();
          legacy_count = 0;
          auto emit_warm = [&](RingView ring) {
            if (legacy_count == legacy.size()) {
              legacy.emplace_back();
            }
            RingSequence& slot = legacy[legacy_count++];
            slot.seq_id = ring.seq_id;
            slot.length = ring.length;
            slot.zone = ring.zone;
            slot.ranks.assign(ring.ranks.begin(), ring.ranks.end());
          };
          for (RingView ring : src.rings(src.inter_node)) {
            emit_warm(ring);
          }
          for (RingView ring : src.rings(src.intra_node)) {
            emit_warm(ring);
          }
          sink = legacy_count;
          const auto t4 = clock::now();
          if (r == 0) {
            continue;  // Warmup: warm destinations grow to steady state.
          }
          flat_times.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
          legacy_times.push_back(std::chrono::duration<double, std::micro>(t2 - t1).count());
          flat_warm_times.push_back(std::chrono::duration<double, std::micro>(t3 - t2).count());
          legacy_warm_times.push_back(std::chrono::duration<double, std::micro>(t4 - t3).count());
        }
        const double mat_us = median(flat_times);
        const double legacy_mat_us = median(legacy_times);
        const double mat_warm_us = median(flat_warm_times);
        const double legacy_mat_warm_us = median(legacy_warm_times);
        const double mat_speedup = mat_us > 0 ? legacy_mat_us / mat_us : 0;

        table.AddRow({dist.name(), Table::Cell(static_cast<int64_t>(num_seqs)),
                      Table::Cell(static_cast<int64_t>(gpus)), Table::Cell(naive_us, 1),
                      Table::Cell(engine_us, 1), Table::Cell(speedup, 1) + "x",
                      Table::Cell(mat_us, 1), Table::Cell(mat_speedup, 1) + "x",
                      point_identical ? "yes" : "NO"});

        json.BeginObject();
        json.Key("dataset");
        json.Value(dist.name());
        json.Key("num_seqs");
        json.Value(num_seqs);
        json.Key("gpus");
        json.Value(gpus);
        json.Key("total_tokens");
        json.Value(batch.total_tokens());
        json.Key("naive_partition_time_us");
        json.Value(naive_us);
        json.Key("engine_partition_time_us");
        json.Value(engine_us);
        json.Key("speedup");
        json.Value(speedup);
        json.Key("materialize_time_us");
        json.Value(mat_us);
        json.Key("legacy_materialize_time_us");
        json.Value(legacy_mat_us);
        json.Key("materialize_speedup");
        json.Value(mat_speedup);
        json.Key("materialize_warm_time_us");
        json.Value(mat_warm_us);
        json.Key("legacy_materialize_warm_time_us");
        json.Value(legacy_mat_warm_us);
        json.Key("plans_identical");
        json.Value(point_identical);
        json.EndObject();
      }
    }
  }
  json.EndArray();
  json.Key("all_plans_identical");
  json.Value(all_identical);
  json.EndObject();

  table.Print();
  std::printf("\nall_plans_identical: %s\n", all_identical ? "true" : "false");
  const std::string out_path = "BENCH_planner.json";
  if (json.WriteFile(out_path)) {
    std::printf("\nwrote %s\n", out_path.c_str());
  } else {
    std::printf("\nERROR: could not write %s\n", out_path.c_str());
    return 1;
  }
  if (!all_identical) {
    std::printf("ERROR: the engine's plan diverged from the naive reference\n");
    return 1;
  }
  std::printf(
      "Expected shape: the engine's speedup over the naive oracle grows with\n"
      "S and P (round-batched packing, O(log P) placements). The\n"
      "materialization columns compare the flat rank-arena plan layout\n"
      "against the legacy per-ring vector layout on identical plan data —\n"
      "the arena's bulk copies should win by >= 2x at the largest points.\n");
  return 0;
}
