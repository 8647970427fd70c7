// Self-tests of the benchmark's own measurement code: percentiles, the CPU
// clocks and the reference task, span self times, and the result line. Run
// with `python3 perfbench/run.py --selftest` (or ctest in the benchmark's
// build directory). Exit code 0 = all checks passed.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench_core.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  using perfbench::Percentile;
  Check(Percentile({}, 0.5) == 0, "empty sample percentile is 0");
  Check(Percentile({7}, 0.0) == 7 && Percentile({7}, 0.99) == 7, "single value");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);  // Unsorted input.
  }
  Check(Percentile(v, 0.5) == 50, "p50 of 1..100 is 50");
  Check(Percentile(v, 0.9) == 90, "p90 of 1..100 is 90");
  Check(Percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  Check(Percentile(v, 1.0) == 100, "p100 is the max");
  Check(Percentile(v, 0.0) == 1, "p0 is the min");
  Check(Percentile({1, 2, 3, 4}, 0.5) == 2, "nearest rank on an even sample");
  Check(Near(perfbench::Mean({1, 2, 3, 6}), 3), "mean");
  Check(perfbench::Mean({}) == 0, "empty mean is 0");
}

void TestThreadGroupCpu() {
  // A thread that spins for 50 ms of its own CPU time is charged exactly
  // that, read while it still runs; a thread that sleeps, and time spent
  // waiting, are not.
  std::atomic<int> stage{0};
  std::thread spinner([&] {
    while (stage.load() == 0) {
    }
    const double until = perfbench::ClockUs(CLOCK_THREAD_CPUTIME_ID) + 50000;
    while (perfbench::ClockUs(CLOCK_THREAD_CPUTIME_ID) < until) {
    }
    stage.store(2);
    while (stage.load() != 3) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread sleeper([&] { std::this_thread::sleep_for(std::chrono::milliseconds(120)); });
  const perfbench::ThreadGroupCpu cpu;
  Check(cpu.threads() >= 3, "every running thread is listed");
  const double c0 = cpu.Us();
  const double t0 = perfbench::NowUs();
  stage.store(1);
  while (stage.load() != 2) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double spun = cpu.Us() - c0;
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const double idle = cpu.Us() - c0 - spun;
  const double wall = perfbench::NowUs() - t0;
  stage.store(3);
  spinner.join();
  sleeper.join();
  Check(spun >= 50000 && spun < 70000, "a 50 ms spin reads 50..70 ms: " + std::to_string(spun));
  Check(idle < 10000, "sleeping threads add under 10 ms: " + std::to_string(idle));
  Check(wall > spun + 40000, "waiting is not CPU time");
  perfbench::ReferenceTask task;
  const double first = task.RunUs();
  const double second = task.RunUs();
  Check(first > 0 && second > 0 && second < 3 * first && first < 3 * second,
        "the reference task takes CPU time, about the same each run");
  const double p0 = perfbench::ProcessCpuUs();
  Check(p0 > 0 && perfbench::ProcessCpuUs() >= p0, "process CPU clock runs forward");
}

void TestSelfTimes() {
  perfbench::SpanRecorder rec(true);
  const int root = rec.Record("iteration", 0, 10, -1, 1);
  const int a = rec.Record("emit", 1, 3, root, 1);
  rec.Record("sim", 2, 5, root, 1);    // Overlaps the first child.
  rec.Record("emit", 8, 12, root, 1);  // Runs past the parent's end.
  rec.Record("detail", 1.5, 2.5, a, 1);
  const std::vector<double> self = perfbench::SelfTimes(rec.spans());
  Check(Near(self[0], 10 - (5 - 1) - (10 - 8)), "parent self excludes the union of its children");
  Check(Near(self[1], 2 - 1), "child self excludes its own child");
  Check(Near(self[2], 3) && Near(self[3], 4) && Near(self[4], 1), "leaf self is its duration");
  const auto by_name = perfbench::SelfTimeByName(rec.spans());
  Check(Near(by_name.at("emit"), 1 + 4), "self time sums per name");
  // Disjoint children inside their parents: self times add up to the root.
  perfbench::SpanRecorder tree(true);
  const int top = tree.Record("iteration", 0, 10, -1, 7);
  const int mid = tree.Record("remap", 1, 4, top, 7);
  tree.Record("solve", 2, 3, mid, 7);
  tree.Record("sim", 5, 9, top, 7);
  double total = 0;
  for (double s : perfbench::SelfTimes(tree.spans())) {
    total += s;
  }
  Check(Near(total, 10), "self times of a span tree sum to the root's duration");

  perfbench::SpanRecorder off(false);
  Check(off.Record("x", 0, 1, -1, 0) == -1 && off.spans().empty(), "disabled recorder is a no-op");
  const int open = rec.Open("late", 20, -1, 2);
  rec.Close(open, 25);
  Check(Near(rec.spans()[open].end_us, 25), "Open/Close sets the end");
}

void TestResultJson() {
  perfbench::RunResult r;
  r.attempted = 3;
  r.Set("latency_ms", 1.25, "ms");
  r.Set("latency_ms", 1.5, "ms");  // Set replaces.
  const std::string ok = perfbench::ResultJson(r);
  Check(ok == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
              "{\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
        "result line format: " + ok);
  r.Fail("bad digest");
  const std::string bad = perfbench::ResultJson(r);
  Check(bad.find("\"correct\": false") != std::string::npos &&
            bad.find("\"failed\": 1") != std::string::npos,
        "a failed check marks the run incorrect");
}

}  // namespace

int main() {
  TestPercentile();
  TestThreadGroupCpu();
  TestSelfTimes();
  TestResultJson();
  if (failures == 0) {
    std::printf("perfbench self-tests: all passed\n");
  }
  return failures == 0 ? 0 : 1;
}
