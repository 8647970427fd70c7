// zeppelin_cli — run any (model, cluster, dataset, strategy) combination from
// the command line; the sweep driver behind ad-hoc what-if questions.
//
//   $ ./zeppelin_cli --model=7B --cluster=A --nodes=2 --dataset=github ...
//       --strategies=te-cp,zeppelin --batches=5
//   $ ./zeppelin_cli --batch_file=workload.txt --strategies=zeppelin+zones
//   $ ./zeppelin_cli --stream --churn=0.01 --stream_iters=100
//   $ ./zeppelin_cli --help
//
// --stream switches to the online/continuous-batching mode: one batch
// evolves through a WorkloadStream and every strategy is re-planned per
// iteration via PlanDelta() (Zeppelin patches its previous plan through the
// delta-planning subsystem; baselines re-plan fully — see
// docs/DELTA_PLANS.md). The table then reports per-iteration planning cost
// and Zeppelin's patch/fallback split instead of simulated throughput.
//
// --plan_out / --plan_in exercise the versioned plan wire format
// (src/core/plan_io.h, docs/PLAN_FORMAT.md "Wire format"):
//   --plan_out=plan.zpln   plans the first batch with the first zeppelin
//                          spec, serializes the plan, prints its digest;
//   --plan_in=plan.zpln    deserializes the plan, verifies its digest, and
//                          drives EmitLayer + one simulated layer in each
//                          direction from it WITHOUT re-planning — the
//                          cross-process plan-distribution path.
//
// Strategy specs accept modifiers and inline knobs (see src/core/registry.h):
//   zeppelin, zeppelin-routing, zeppelin+striped, te-cp+routing, llama-cp,
//   zeppelin+threads=4+delta=0.02, zeppelin+stream=decode-a, ...
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>

#include "src/common/flags.h"
#include "src/core/plan_io.h"
#include "src/core/plan_verify.h"
#include "src/net/plan_client.h"
#include "src/sim/engine.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/core/registry.h"
#include "src/core/trainer.h"
#include "src/core/zeppelin.h"
#include "src/data/batch_io.h"
#include "src/data/datasets.h"
#include "src/data/stream.h"
#include "src/model/transformer.h"

namespace {

using namespace zeppelin;

void PrintUsage() {
  std::printf(
      "usage: zeppelin_cli [flags]\n"
      "  --model=7B            3B|7B|13B|30B|8x550M|8B-GQA\n"
      "  --cluster=A           A (A800x8,4 NIC) | B (H800x8,8 NIC) | C (H200x8,8 NIC)\n"
      "  --nodes=2             number of nodes\n"
      "  --tp=1                tensor parallelism inside nodes\n"
      "  --dataset=github      arxiv|github|prolong64k|fineweb|...\n"
      "  --tokens_per_gpu=4096 context per GPU (total = gpus * this)\n"
      "  --batches=5           batches to average over\n"
      "  --seed=42             workload seed\n"
      "  --batch_file=path     replay a saved workload instead of sampling\n"
      "  --save_batches=path   save the sampled workload for replay\n"
      "  --strategies=te-cp,zeppelin   comma-separated strategy specs\n"
      "  --stream              online mode: evolve one batch via workload\n"
      "                        churn and re-plan per iteration (PlanDelta)\n"
      "  --stream_iters=50     stream iterations\n"
      "  --stream_seqs=1024    sequences in the streamed batch (sampled from\n"
      "                        the dataset; ignored with --batch_file)\n"
      "  --churn=0.01          fraction of sequences changed per iteration\n"
      "  --delta_threshold=0.05  Zeppelin delta fallback knob (churn or\n"
      "                        imbalance drift above this -> full re-plan)\n"
      "  --fault_rate=0        stream mode: expected rank kills per iteration\n"
      "                        divided by world size (seeded FaultStream;\n"
      "                        kills restore after a few iterations)\n"
      "  --fault_seed=0        fault injector seed (0 = derive from --seed;\n"
      "                        same seed -> identical schedules per strategy)\n"
      "  --plan_out=path       plan the first batch with the first zeppelin\n"
      "                        spec, write the plan (wire format), print digest\n"
      "  --plan_in=path        load a serialized plan and emit/simulate one\n"
      "                        layer from it without re-planning\n"
      "  --connect=host:port   plan remotely against a zeppelin_served daemon\n"
      "                        instead of in-process (docs/DAEMON.md); with\n"
      "                        --stream, runs a remote delta session\n"
      "  --stats               with --connect: print the daemon's live metrics\n"
      "                        snapshot (zeppelin.metrics.v1) and exit\n"
      "  --deadline_ms=0       per-request deadline for --connect (0 = none)\n");
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string part;
  while (std::getline(in, part, ',')) {
    if (!part.empty()) {
      out.push_back(part);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.GetBool("help")) {
    PrintUsage();
    return 0;
  }

  const TransformerConfig model = ModelByName(flags.GetString("model", "7B"));
  const int nodes = static_cast<int>(flags.GetInt("nodes", 2));
  const ClusterSpec cluster = MakeClusterByName(flags.GetString("cluster", "A"), nodes);
  const int tp = static_cast<int>(flags.GetInt("tp", 1));
  const Trainer trainer(model, cluster, {.tensor_parallel = tp});

  // Workload: sampled or replayed.
  std::vector<Batch> batches;
  const std::string batch_file = flags.GetString("batch_file", "");
  if (!batch_file.empty()) {
    if (!LoadBatches(batch_file, &batches)) {
      std::fprintf(stderr, "cannot read %s\n", batch_file.c_str());
      return 1;
    }
    std::printf("replaying %zu batches from %s\n", batches.size(), batch_file.c_str());
  } else {
    const int64_t tokens_per_gpu = flags.GetInt("tokens_per_gpu", 4096);
    const int64_t total = tokens_per_gpu * cluster.world_size() / tp;
    BatchSampler sampler(DatasetByName(flags.GetString("dataset", "github")), total,
                         static_cast<uint64_t>(flags.GetInt("seed", 42)));
    const int count = static_cast<int>(flags.GetInt("batches", 5));
    for (int i = 0; i < count; ++i) {
      batches.push_back(sampler.NextBatch());
    }
  }
  if (batches.empty()) {
    std::fprintf(stderr, "no batches to run (empty or comment-only --batch_file?)\n");
    return 1;
  }
  const std::string save_path = flags.GetString("save_batches", "");
  if (!save_path.empty() && SaveBatches(save_path, batches)) {
    std::printf("workload saved to %s\n", save_path.c_str());
  }

  const std::string strategy_specs =
      flags.GetString("strategies", "te-cp,llama-cp,hybrid-dp,zeppelin");
  StrategyDefaults strategy_defaults;
  strategy_defaults.delta_replan_threshold = flags.GetDouble("delta_threshold", 0.05);
  const bool stream_mode = flags.GetBool("stream");
  const int stream_iters = std::max(1, static_cast<int>(flags.GetInt("stream_iters", 50)));
  const int stream_seqs = std::max(1, static_cast<int>(flags.GetInt("stream_seqs", 1024)));
  const double churn = flags.GetDouble("churn", 0.01);
  const double fault_rate = flags.GetDouble("fault_rate", 0.0);
  const uint64_t fault_seed_flag = static_cast<uint64_t>(flags.GetInt("fault_seed", 0));
  const LengthDistribution stream_dist = DatasetByName(flags.GetString("dataset", "github"));
  const std::string plan_out = flags.GetString("plan_out", "");
  const std::string plan_in = flags.GetString("plan_in", "");
  const std::string connect = flags.GetString("connect", "");
  const uint32_t deadline_ms = static_cast<uint32_t>(flags.GetInt("deadline_ms", 0));
  const bool stats_mode = flags.GetBool("stats");
  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s (see --help)\n", unused.c_str());
  }

  if (!connect.empty()) {
    // Remote mode: the daemon owns the (model, cluster, TP) surface; this
    // process only ships batches and planning options over the wire.
    const size_t colon = connect.rfind(':');
    const std::string host = colon == std::string::npos ? connect : connect.substr(0, colon);
    const int port =
        colon == std::string::npos ? 7077 : std::atoi(connect.c_str() + colon + 1);
    net::PlanClient client(host, port);
    const net::PlanClientResult ping = client.Ping();
    if (!ping.ok()) {
      std::fprintf(stderr, "cannot reach %s:%d: %s (%s)\n", host.c_str(), port,
                   ping.message.c_str(), net::WireStatusName(ping.status));
      return 1;
    }
    if (stats_mode) {
      // Live introspection: the daemon's zeppelin.metrics.v1 snapshot,
      // answered without an admission permit even while every planning
      // permit is busy (docs/OBSERVABILITY.md).
      const net::PlanClientResult r = client.Stats();
      if (!r.ok()) {
        std::fprintf(stderr, "stats request failed: %s (%s)\n", r.message.c_str(),
                     net::WireStatusName(r.status));
        return 1;
      }
      std::printf("%s\n", r.stats_json.c_str());
      return 0;
    }

    PlanningOptions options;
    options.delta_replan_threshold = flags.GetDouble("delta_threshold", 0.05);

    if (stream_mode) {
      // Remote delta session: base batch first, then per-iteration deltas.
      // A session failure is surfaced, not retried (docs/DAEMON.md,
      // "Client retries") — the stream simply rebases on the next request.
      // The streamed batch is sized by sequence count, as in local --stream.
      Batch initial = batches.front();
      if (batch_file.empty()) {
        Rng stream_rng(static_cast<uint64_t>(flags.GetInt("seed", 42)) ^ 0xba7c4ull);
        initial.seq_lens.clear();
        initial.seq_lens.reserve(stream_seqs);
        for (int i = 0; i < stream_seqs; ++i) {
          initial.seq_lens.push_back(stream_dist.Sample(stream_rng));
        }
      }
      WorkloadStream stream(stream_dist, initial, StreamOptions{.churn_fraction = churn},
                            static_cast<uint64_t>(flags.GetInt("seed", 42)) ^ 0x5eedull);
      int patched = 0, rebased = 0, failed = 0;
      RunningStats rtt_ms;
      uint64_t last_digest = 0;
      for (int it = 0; it <= stream_iters; ++it) {
        net::WireRequest request;
        request.stream_id = "cli";
        request.deadline_ms = deadline_ms;
        request.options = options;
        if (it > 0) {
          request.delta = stream.Next();
        }
        request.batch = stream.batch();
        const net::PlanClientResult r = client.Plan(std::move(request));
        if (!r.ok()) {
          ++failed;
          std::fprintf(stderr, "iteration %d failed: %s (%s)\n", it, r.message.c_str(),
                       net::WireStatusName(r.status));
          continue;
        }
        rtt_ms.Add(r.rtt_us / 1000.0);
        last_digest = r.digest;
        if (it > 0) {
          (r.stats.delta_outcome == DeltaOutcome::kApplied ||
           r.stats.delta_outcome == DeltaOutcome::kAppliedTopology)
              ? ++patched
              : ++rebased;
        }
      }
      client.CloseSession("cli");
      std::printf(
          "remote stream vs %s:%d: %d iterations, %d patched, %d rebased, %d failed, "
          "rtt %.2f ms mean, final digest %016" PRIx64 "\n",
          host.c_str(), port, stream_iters, patched, rebased, failed, rtt_ms.mean(),
          last_digest);
      return failed == 0 ? 0 : 1;
    }

    Table table({"batch", "tokens", "engine", "capacity", "digest", "rtt ms", "queue us"});
    for (size_t i = 0; i < batches.size(); ++i) {
      net::WireRequest request;
      request.deadline_ms = deadline_ms;
      request.options = options;
      request.batch = batches[i];
      const net::PlanClientResult r = client.Plan(std::move(request));
      if (!r.ok()) {
        std::fprintf(stderr, "batch %zu failed: %s (%s)\n", i, r.message.c_str(),
                     net::WireStatusName(r.status));
        return 1;
      }
      char digest[20];
      std::snprintf(digest, sizeof(digest), "%016" PRIx64, r.digest);
      table.AddRow({Table::Cell(static_cast<int64_t>(i)),
                    Table::Cell(batches[i].total_tokens()),
                    PlanEngineName(r.stats.engine), Table::Cell(r.stats.token_capacity),
                    digest, Table::Cell(r.rtt_us / 1000.0, 2),
                    Table::Cell(r.queue_wait_us, 0)});
    }
    table.Print();
    return 0;
  }

  // Picks the first zeppelin-family spec (falling back to plain "zeppelin"):
  // the wire-format modes need a strategy that plans/executes PartitionPlans.
  auto make_zeppelin = [&](std::unique_ptr<Strategy>* strategy) -> ZeppelinStrategy* {
    for (const std::string& spec : SplitCommas(strategy_specs)) {
      auto candidate = MakeStrategyByName(spec, strategy_defaults);
      if (dynamic_cast<ZeppelinStrategy*>(candidate.get()) != nullptr) {
        *strategy = std::move(candidate);
        return static_cast<ZeppelinStrategy*>(strategy->get());
      }
    }
    *strategy = MakeStrategyByName("zeppelin", strategy_defaults);
    return static_cast<ZeppelinStrategy*>(strategy->get());
  };

  if (!plan_in.empty()) {
    // Deserialize-and-emit: the plan is authenticated by its digest trailer
    // and drives one simulated layer in each direction without re-planning.
    PartitionPlan loaded;
    const PlanIoResult result =
        LoadPlanFile(plan_in, &loaded, trainer.fabric().cluster().world_size());
    if (!result.ok()) {
      std::fprintf(stderr, "cannot load %s: %s (%s)\n", plan_in.c_str(),
                   result.message.c_str(), PlanIoStatusName(result.status));
      return 1;
    }
    const int logical_world = trainer.fabric().cluster().world_size();
    if (static_cast<int>(loaded.tokens_per_rank.size()) != logical_world) {
      std::fprintf(stderr, "plan in %s targets %zu ranks but the cluster has %d\n",
                   plan_in.c_str(), loaded.tokens_per_rank.size(), logical_world);
      return 1;
    }
    // The digest trailer authenticates the bytes; VerifyPlan certifies the
    // *content* (coverage, arena disjointness, conservation) in structural
    // mode — a plan file is untrusted input with no batch context attached.
    PlanVerifyOptions verify_options;
    verify_options.world = logical_world;
    verify_options.eps = -1;
    const PlanVerifyResult verdict =
        VerifyPlan(loaded, nullptr, nullptr, verify_options);
    if (!verdict.ok()) {
      std::fprintf(stderr, "plan in %s failed certification: %s (%s)\n",
                   plan_in.c_str(), verdict.message.c_str(),
                   PlanVerifyStatusName(verdict.status));
      return 1;
    }
    auto plan = std::make_shared<const PartitionPlan>(std::move(loaded));
    std::printf("certified %s: every clause of the plan contract holds\n",
                plan_in.c_str());
    std::printf("loaded %s: %zu inter + %zu intra rings, %zu locals, %ld tokens, digest %016" PRIx64
                "\n",
                plan_in.c_str(), plan->inter_node.size(), plan->intra_node.size(),
                plan->local.size(), static_cast<long>(plan->total_tokens()),
                plan->StateDigest());

    std::unique_ptr<Strategy> strategy;
    ZeppelinStrategy* zeppelin = make_zeppelin(&strategy);
    zeppelin->AdoptPlan(plan, trainer.cost_model(), trainer.fabric());
    Engine engine(trainer.fabric());
    TaskGraph forward_graph;
    zeppelin->EmitLayer(forward_graph, Direction::kForward);
    const SimResult forward = engine.Run(forward_graph);
    TaskGraph backward_graph;
    zeppelin->EmitLayer(backward_graph, Direction::kBackward);
    const SimResult backward = engine.Run(backward_graph);
    std::printf("%s executed the deserialized plan: fwd %.1f us, bwd %.1f us per layer\n",
                zeppelin->name().c_str(), forward.makespan_us, backward.makespan_us);
    return 0;
  }

  if (!plan_out.empty()) {
    std::unique_ptr<Strategy> strategy;
    ZeppelinStrategy* zeppelin = make_zeppelin(&strategy);
    zeppelin->Plan(batches.front(), trainer.cost_model(), trainer.fabric());
    const std::shared_ptr<const PartitionPlan> plan = zeppelin->plan_handle();
    const PlanIoResult result = SavePlanFile(plan_out, *plan);
    if (!result.ok()) {
      std::fprintf(stderr, "cannot write %s: %s (%s)\n", plan_out.c_str(),
                   result.message.c_str(), PlanIoStatusName(result.status));
      return 1;
    }
    std::printf("wrote %s: %s engine, partition %.1f us, %zu inter + %zu intra rings, "
                "digest %016" PRIx64 "\n",
                plan_out.c_str(), PlanEngineName(zeppelin->last_plan_stats().engine),
                zeppelin->partition_time_us(), plan->inter_node.size(),
                plan->intra_node.size(), plan->StateDigest());
    return 0;
  }

  if (stream_mode) {
    // Online mode: every strategy replays the identical churn stream (same
    // seed) and is re-planned per iteration through PlanDelta(). The
    // streamed batch is sized by *sequence count* (continuous batching is
    // about many concurrent sequences), not by the throughput-mode token
    // target — a handful of long sequences would put even one churned slot
    // above the delta fallback threshold.
    Batch initial = batches.front();
    if (batch_file.empty()) {
      Rng stream_rng(static_cast<uint64_t>(flags.GetInt("seed", 42)) ^ 0xba7c4ull);
      initial.seq_lens.clear();
      initial.seq_lens.reserve(stream_seqs);
      for (int i = 0; i < stream_seqs; ++i) {
        initial.seq_lens.push_back(stream_dist.Sample(stream_rng));
      }
    }
    std::printf("%s | %s | tp=%d | streaming %d iterations at %.2f%% churn, %d seqs / %ld tokens\n\n",
                DescribeCluster(trainer.fabric().cluster()).c_str(), model.name.c_str(), tp,
                stream_iters, churn * 100, initial.size(),
                static_cast<long>(initial.total_tokens()));

    Table table({"strategy", "plan ms/iter", "p50 ms", "patched", "replanned", "topo", "migrated",
                 "final tok/s"});
    for (const std::string& spec : SplitCommas(strategy_specs)) {
      auto strategy = MakeStrategyByName(spec, strategy_defaults);
      WorkloadStream stream(stream_dist, initial, StreamOptions{.churn_fraction = churn},
                            static_cast<uint64_t>(flags.GetInt("seed", 42)) ^ 0x5eedull);
      // Per-strategy fault injector (inline spec knobs win over the flags):
      // identical seeds give every strategy the identical kill/restore
      // schedule, so the comparison stays apples-to-apples.
      double strategy_fault_rate = fault_rate;
      uint64_t strategy_fault_seed = fault_seed_flag;
      if (const auto* zeppelin = dynamic_cast<const ZeppelinStrategy*>(strategy.get())) {
        if (zeppelin->options().fault_rate > 0) {
          strategy_fault_rate = zeppelin->options().fault_rate;
        }
        if (zeppelin->options().fault_seed != 0) {
          strategy_fault_seed = zeppelin->options().fault_seed;
        }
      }
      if (strategy_fault_seed == 0) {
        strategy_fault_seed = static_cast<uint64_t>(flags.GetInt("seed", 42)) ^ 0xfa17ull;
      }
      std::optional<FaultStream> faults;
      if (strategy_fault_rate > 0) {
        faults.emplace(trainer.fabric().cluster().world_size(),
                       FaultStreamOptions{.fault_rate = strategy_fault_rate},
                       strategy_fault_seed);
      }
      // Establish the base plan on the initial batch, then stream deltas.
      strategy->PlanDelta(stream.batch(), BatchDelta{}, trainer.cost_model(), trainer.fabric());
      RunningStats plan_ms;
      std::vector<double> plan_samples;
      for (int it = 0; it < stream_iters; ++it) {
        const BatchDelta delta = stream.Next();
        TopologyDelta topo;
        if (faults) {
          topo = faults->Next();
        }
        const auto t0 = std::chrono::steady_clock::now();
        strategy->PlanDelta(stream.batch(), delta, trainer.cost_model(), trainer.fabric(),
                            faults ? &topo : nullptr);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        plan_ms.Add(ms);
        plan_samples.push_back(ms);
      }
      std::sort(plan_samples.begin(), plan_samples.end());
      const double p50 = plan_samples[plan_samples.size() / 2];

      // Patch/fallback split (Zeppelin only; baselines re-plan every time).
      std::string patched = "-";
      std::string replanned = Table::Cell(static_cast<int64_t>(stream_iters));
      std::string topo_applied = "-";
      std::string migrated = "-";
      if (const auto* zeppelin = dynamic_cast<const ZeppelinStrategy*>(strategy.get())) {
        if (const std::optional<DeltaStats> stats = zeppelin->delta_stats()) {
          patched = Table::Cell(stats->count(DeltaOutcome::kApplied));
          replanned = Table::Cell(stats->rebased());
          topo_applied = Table::Cell(stats->count(DeltaOutcome::kAppliedTopology));
          migrated = Table::Cell(stats->migrated_sequences);
        }
      }
      // One simulated iteration on the final batch sanity-checks that the
      // streamed plan still executes (Run() re-plans internally, on the full
      // fabric — the simulator does not model dead ranks).
      const IterationResult r = trainer.Run(*strategy, stream.batch());
      table.AddRow({strategy->name(), Table::Cell(plan_ms.mean(), 3), Table::Cell(p50, 3),
                    patched, replanned, topo_applied, migrated,
                    Table::Cell(r.tokens_per_second, 0)});
    }
    table.Print();
    return 0;
  }

  std::printf("%s | %s | tp=%d | %zu batches of %ld tokens\n\n",
              DescribeCluster(trainer.fabric().cluster()).c_str(), model.name.c_str(), tp,
              batches.size(), static_cast<long>(batches.front().total_tokens()));

  Table table({"strategy", "mean tok/s", "min", "max", "NIC util", "iter ms"});
  for (const std::string& spec : SplitCommas(strategy_specs)) {
    auto strategy = MakeStrategyByName(spec, strategy_defaults);
    RunningStats tput;
    RunningStats nic;
    RunningStats iter_ms;
    for (const Batch& batch : batches) {
      const IterationResult r = trainer.Run(*strategy, batch);
      tput.Add(r.tokens_per_second);
      nic.Add(r.nic_utilization);
      iter_ms.Add(r.iteration_us / 1000.0);
    }
    table.AddRow({strategy->name(), Table::Cell(tput.mean(), 0), Table::Cell(tput.min(), 0),
                  Table::Cell(tput.max(), 0), Table::Cell(nic.mean(), 3),
                  Table::Cell(iter_ms.mean(), 1)});
  }
  table.Print();
  return 0;
}
