// zeppelin_served — the planner daemon binary (docs/DAEMON.md).
//
// Serves one PlannerService for one (model, cluster, TP) over the framed TCP
// protocol in src/net/. Clients: PlanClient (src/net/plan_client.h) or
// `zeppelin_cli --connect=host:port`.
//
//   $ ./zeppelin_served --port=7077 --model=7B --cluster=A --nodes=2
//   $ ./zeppelin_served --port=0        # ephemeral; prints the bound port
//
// SIGTERM/SIGINT trigger a graceful drain: stop accepting, reject new
// requests with kShuttingDown, let in-flight requests finish (up to
// --drain_grace_ms), then stop and print the lifetime counters.
#include <pthread.h>

#include <csignal>
#include <cstdio>
#include <thread>

#include "src/common/flags.h"
#include "src/core/registry.h"
#include "src/model/transformer.h"
#include "src/net/planner_daemon.h"
#include "src/topology/cluster.h"

namespace {

void PrintUsage() {
  std::printf(
      "usage: zeppelin_served [flags]\n"
      "  --port=7077           TCP port (0 = ephemeral, printed at startup)\n"
      "  --bind=127.0.0.1      bind address\n"
      "  --model=7B            3B|7B|13B|30B|8x550M|8B-GQA\n"
      "  --cluster=A           A|B|C (see zeppelin_cli --help)\n"
      "  --nodes=2             number of nodes\n"
      "  --tp=1                tensor parallelism inside nodes\n"
      "  --max_concurrent=2    requests planning at once (admission permits)\n"
      "  --queue_limit=64      bounded waiting room; beyond it -> kOverloaded\n"
      "  --max_frame_bytes=N   frame payload cap (default 16 MiB)\n"
      "  --idle_timeout_ms=0   close a connection whose peer neither sends nor\n"
      "                        reads for this long; a queued or planning\n"
      "                        request is never idle (0 = never)\n"
      "  --max_connections=256 accept cap\n"
      "  --drain_grace_ms=2000 SIGTERM: wait this long for in-flight requests\n"
      "  --trace_out=PATH      write a Chrome-trace JSON of request stages on exit\n"
      "  --slow_request_ms=0   log requests slower than this (0 = off)\n"
      "\n"
      "Live introspection while serving: zeppelin_cli --connect=host:port --stats\n"
      "returns the same zeppelin.metrics.v1 snapshot printed at exit\n"
      "(docs/OBSERVABILITY.md).\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace zeppelin;
  const Flags flags(argc, argv);
  if (flags.GetBool("help")) {
    PrintUsage();
    return 0;
  }

  const TransformerConfig model = ModelByName(flags.GetString("model", "7B"));
  const int nodes = static_cast<int>(flags.GetInt("nodes", 2));
  const ClusterSpec cluster = MakeClusterByName(flags.GetString("cluster", "A"), nodes);

  net::DaemonOptions options;
  options.port = static_cast<int>(flags.GetInt("port", 7077));
  options.bind_address = flags.GetString("bind", "127.0.0.1");
  options.tensor_parallel = static_cast<int>(flags.GetInt("tp", 1));
  options.max_concurrent_plans = static_cast<int>(flags.GetInt("max_concurrent", 2));
  options.queue_limit = static_cast<int>(flags.GetInt("queue_limit", 64));
  options.max_frame_bytes =
      static_cast<uint32_t>(flags.GetInt("max_frame_bytes", net::kDefaultMaxFrameBytes));
  options.idle_timeout_ms = static_cast<int>(flags.GetInt("idle_timeout_ms", 0));
  options.max_connections = static_cast<int>(flags.GetInt("max_connections", 256));
  options.trace_out = flags.GetString("trace_out", "");
  options.slow_request_us = flags.GetDouble("slow_request_ms", 0) * 1000.0;
  const int drain_grace_ms = static_cast<int>(flags.GetInt("drain_grace_ms", 2000));
  for (const std::string& unused : flags.UnusedFlags()) {
    std::fprintf(stderr, "warning: unknown flag --%s (see --help)\n", unused.c_str());
  }

  // SIGTERM/SIGINT are blocked before Start() so every daemon thread
  // inherits the mask, and the main thread takes them with sigwait.
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGTERM);
  sigaddset(&shutdown_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &shutdown_signals, nullptr);

  net::PlannerDaemon daemon(model, cluster, options);
  std::string error;
  if (!daemon.Start(&error)) {
    std::fprintf(stderr, "zeppelin_served: %s\n", error.c_str());
    return 1;
  }
  std::printf("zeppelin_served: %s | tp=%d | listening on %s:%d (world %d)\n",
              model.name.c_str(), options.tensor_parallel, options.bind_address.c_str(),
              daemon.port(), daemon.cluster().world_size());
  std::fflush(stdout);

  int received = 0;
  sigwait(&shutdown_signals, &received);

  std::printf("zeppelin_served: draining (%d ms grace)\n", drain_grace_ms);
  std::fflush(stdout);
  daemon.BeginDrain();
  // Grace period: connections finish their in-flight requests; we leave early
  // once they have all gone away.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(drain_grace_ms);
  while (daemon.connection_count() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // The exit report is the same zeppelin.metrics.v1 snapshot that kStats
  // serves live, taken before Stop() tears the connections down so the
  // connection gauge reflects the drain.
  const std::string stats = daemon.StatsJson();
  daemon.Stop();

  std::printf("zeppelin_served: stopped\n%s\n", stats.c_str());
  return 0;
}
