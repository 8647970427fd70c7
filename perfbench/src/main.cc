// perfbench: runs one named workload of the layered benchmark.
//
//   perfbench --workload <train_iter|serve_sweep|serve_stream> --seed <n>
//             --seconds <s> --trace <0|1> [--trace_dir <dir>]
//
// Human-readable lines first; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end metrics, with --trace 1 the per-layer ones.
// Exit code 0 only when the run completed (correctness is in the JSON).
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/workloads.h"

namespace {

// Keeps this process, and every thread it starts, on the CPU it runs on now.
// Each workload has one unit of work in flight at a time, so one CPU costs
// no throughput; it keeps a request's client and daemon halves, and the
// SpeedProbe's reference task, on one core, so moving data between cores
// does not enter the figures.
void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) {
    CPU_SET(cpu, &set);
  }
  if (cpu < 0 || sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::printf("running unpinned (could not pin to one CPU)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::atof(value);
    } else if (key == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace_dir") {
      config.trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (config.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  PinToCurrentCpu();
  perfbench::RunResult result;
  if (workload == "train_iter") {
    result = perfbench::RunTrainIter(config);
  } else if (workload == "serve_sweep") {
    result = perfbench::RunServeSweep(config);
  } else if (workload == "serve_stream") {
    result = perfbench::RunServeStream(config);
  } else {
    std::fprintf(stderr, "unknown --workload '%s' (train_iter, serve_sweep, serve_stream)\n",
                 workload.c_str());
    return 2;
  }
  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  for (const auto& [name, metric] : result.metrics) {
    std::printf("%-36s %16.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("%s\n", perfbench::ResultJson(result).c_str());
  return 0;
}
