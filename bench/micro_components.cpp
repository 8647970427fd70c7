// Micro-benchmarks (google-benchmark) for the planning-path components whose
// cost the paper claims is negligible (Table 3's "Sequence Partition" row and
// the Eq. 2 solver), the simulator's emit and run stages, and the codec steps
// of one served plan.
#include <benchmark/benchmark.h>

#include <chrono>

#include "src/common/rng.h"
#include "src/core/chunking.h"
#include "src/core/partitioner.h"
#include "src/core/plan_io.h"
#include "src/core/plan_service.h"
#include "src/core/plan_verify.h"
#include "src/core/zeppelin.h"
#include "src/data/datasets.h"
#include "src/model/transformer.h"
#include "src/net/wire.h"
#include "src/sim/engine.h"
#include "src/solver/minimax_remap.h"
#include "src/solver/transport.h"

namespace zeppelin {
namespace {

void BM_SequencePartitioner(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const ClusterSpec cluster = MakeClusterA(nodes);
  const int64_t context = cluster.world_size() * 4096;
  BatchSampler sampler(MakeGithubDistribution(), context, 99);
  const Batch batch = sampler.NextBatch();
  SequencePartitioner partitioner(cluster, {.token_capacity = 5120});
  for (auto _ : state) {
    benchmark::DoNotOptimize(partitioner.Partition(batch));
  }
  state.SetLabel(std::to_string(cluster.world_size()) + " GPUs, " +
                 std::to_string(batch.size()) + " seqs");
}
BENCHMARK(BM_SequencePartitioner)->Arg(2)->Arg(8)->Arg(16);

void BM_MinimaxRemapSolver(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  Rng rng(7);
  RemapProblem problem;
  problem.b_intra = 1.0;
  problem.b_inter = 8.0;
  for (int r = 0; r < ranks; ++r) {
    problem.tokens.push_back(rng.NextInt(0, 8192));
    problem.node_of.push_back(r / 8);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMinimaxRemap(problem));
  }
}
BENCHMARK(BM_MinimaxRemapSolver)->Arg(16)->Arg(64)->Arg(128);

void BM_MinTotalRemapSolverMcmf(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  Rng rng(7);
  RemapProblem problem;
  problem.b_intra = 1.0;
  problem.b_inter = 8.0;
  for (int r = 0; r < ranks; ++r) {
    problem.tokens.push_back(rng.NextInt(0, 8192));
    problem.node_of.push_back(r / 8);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMinTotalRemap(problem));
  }
}
BENCHMARK(BM_MinTotalRemapSolverMcmf)->Arg(16)->Arg(64)->Arg(128);

void BM_RingRoundFlops(benchmark::State& state) {
  const CostModel cm(MakeLlama7B(), MakeClusterA(2));
  const int g = static_cast<int>(state.range(0));
  const auto assignment = BalancedChunkAssignment(262144, g);
  for (auto _ : state) {
    double total = 0;
    for (int k = 0; k < g; ++k) {
      for (int r = 0; r < g; ++r) {
        total += RingRoundFlops(cm, assignment, 262144, k, r);
      }
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_RingRoundFlops)->Arg(8)->Arg(32)->Arg(64);

void BM_SimEngineRingAttention(benchmark::State& state) {
  // Full Zeppelin forward-layer simulation, the inner loop of every bench.
  const int nodes = static_cast<int>(state.range(0));
  const ClusterSpec cluster = MakeClusterA(nodes);
  const FabricResources fabric(cluster);
  const CostModel cm(MakeLlama7B(), cluster);
  BatchSampler sampler(MakeArxivDistribution(), cluster.world_size() * 4096, 3);
  const Batch batch = sampler.NextBatch();
  ZeppelinStrategy zep;
  zep.Plan(batch, cm, fabric);
  const Engine engine(fabric);
  for (auto _ : state) {
    TaskGraph graph;
    zep.EmitLayer(graph, Direction::kForward);
    benchmark::DoNotOptimize(engine.Run(graph));
  }
}
BENCHMARK(BM_SimEngineRingAttention)->Arg(2)->Arg(8);

void BM_EmitAndRunLayer(benchmark::State& state) {
  // The simulator stages at two shapes, split by counters into emit and run
  // time per iteration:
  //   0: one training iteration at the layered benchmark's train_iter shape
  //      (7B, 64 GPUs on cluster A, github, 256k tokens, seed 1): one layer
  //      forward and backward.
  //   1: the planner_scaling point S=2048/P=64 (3B, 64 GPUs on cluster A,
  //      2048 github sequences drawn as planner_scaling draws them): one
  //      forward layer.
  const bool scaling_point = state.range(0) == 1;
  const int gpus = 64;
  const ClusterSpec cluster = MakeClusterA(gpus / 8);
  const FabricResources fabric(cluster);
  const CostModel cm(scaling_point ? MakeLlama3B() : MakeLlama7B(), cluster);
  Batch batch;
  if (scaling_point) {
    const int num_seqs = 2048;
    Rng rng(0x9e3779b97f4a7c15ull ^ (static_cast<uint64_t>(num_seqs) << 20) ^
            static_cast<uint64_t>(gpus));
    const LengthDistribution dist = MakeGithubDistribution();
    for (int i = 0; i < num_seqs; ++i) {
      batch.seq_lens.push_back(dist.Sample(rng));
    }
  } else {
    BatchSampler sampler(MakeGithubDistribution(), 262144, 1);
    batch = sampler.NextBatch();
  }
  ZeppelinStrategy zep;
  zep.Plan(batch, cm, fabric);
  const Engine engine(fabric);
  std::vector<Direction> directions = {Direction::kForward};
  if (!scaling_point) {
    directions.push_back(Direction::kBackward);
  }
  double emit_us = 0;
  double run_us = 0;
  int64_t tasks = 0;
  for (auto _ : state) {
    for (const Direction d : directions) {
      TaskGraph graph;
      const auto t0 = std::chrono::steady_clock::now();
      zep.EmitLayer(graph, d);
      const auto t1 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(engine.Run(graph));
      const auto t2 = std::chrono::steady_clock::now();
      emit_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
      run_us += std::chrono::duration<double, std::micro>(t2 - t1).count();
      tasks += graph.size();
    }
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["emit_us"] = emit_us / n;
  state.counters["run_us"] = run_us / n;
  state.counters["tasks"] = static_cast<double>(tasks) / n;
}
BENCHMARK(BM_EmitAndRunLayer)->ArgName("shape")->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ServedPlanCodec(benchmark::State& state) {
  // The codec steps of one served plan at the layered benchmark's serve_sweep
  // shape (3B, 512 GPUs on cluster A, fineweb, 8M tokens, seed 1), split by
  // counters into microseconds per iteration: the daemon's SerializePlan,
  // the client's ParsePlan and VerifyPlan (PlanClient's options: no capacity
  // or balance clause), and the request's frame encode plus ParseRequest.
  const ClusterSpec cluster = MakeClusterA(64);
  const FabricResources fabric(cluster);
  const CostModel cm(MakeLlama3B(), cluster);
  BatchSampler sampler(MakeFinewebDistribution(), int64_t{16384} * 512, 1);
  const Batch batch = sampler.NextBatch();
  PlannerService service;
  PlanRequest plan_request;
  plan_request.batch = &batch;
  plan_request.cost_model = &cm;
  plan_request.fabric = &fabric;
  const PlanResponse planned = service.Plan(plan_request);
  PlanVerifyOptions vopts;
  vopts.eps = -1;
  vopts.world = cluster.world_size();
  net::WireRequest request;
  request.batch = batch;
  double serialize_us = 0;
  double parse_us = 0;
  double verify_us = 0;
  double request_us = 0;
  size_t image_bytes = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::string image = SerializePlan(*planned.plan);
    const auto t1 = std::chrono::steady_clock::now();
    PartitionPlan decoded;
    const PlanIoResult parsed = ParsePlan(image, &decoded, cluster.world_size());
    const auto t2 = std::chrono::steady_clock::now();
    const PlanVerifyResult verdict = VerifyPlan(decoded, &batch, nullptr, vopts);
    const auto t3 = std::chrono::steady_clock::now();
    std::string frame;
    net::AppendRequestFrame(request, &frame);
    net::WireRequest received;
    std::string error;
    const net::WireStatus status = net::ParseRequest(
        std::string_view(frame).substr(net::kFrameHeaderBytes), &received, &error);
    const auto t4 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(decoded.local.data());
    benchmark::DoNotOptimize(received.batch.seq_lens.data());
    if (!parsed.ok() || !verdict.ok() || status != net::WireStatus::kOk) {
      state.SkipWithError("served plan failed its round trip");
      break;
    }
    image_bytes = image.size();
    serialize_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
    parse_us += std::chrono::duration<double, std::micro>(t2 - t1).count();
    verify_us += std::chrono::duration<double, std::micro>(t3 - t2).count();
    request_us += std::chrono::duration<double, std::micro>(t4 - t3).count();
  }
  const double n = static_cast<double>(state.iterations());
  state.counters["serialize_us"] = serialize_us / n;
  state.counters["parse_us"] = parse_us / n;
  state.counters["verify_us"] = verify_us / n;
  state.counters["request_us"] = request_us / n;
  state.counters["image_bytes"] = static_cast<double>(image_bytes);
  state.SetLabel(std::to_string(batch.size()) + " seqs");
}
BENCHMARK(BM_ServedPlanCodec)->Unit(benchmark::kMicrosecond);

void BM_TransportSolver(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(11);
  TransportProblem tp;
  int64_t total = 0;
  for (int i = 0; i < n; ++i) {
    tp.supply.push_back(rng.NextInt(0, 1000));
    total += tp.supply.back();
  }
  for (int i = 0; i < n; ++i) {
    tp.demand.push_back(total / n + (i < total % n ? 1 : 0));
  }
  tp.cost.assign(n, std::vector<double>(n));
  for (auto& row : tp.cost) {
    for (auto& c : row) {
      c = 1.0 + rng.NextDouble() * 9.0;
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveTransportMinTotalCost(tp));
  }
}
BENCHMARK(BM_TransportSolver)->Arg(16)->Arg(64);

}  // namespace
}  // namespace zeppelin
