// Measurement core of the layered benchmark: CPU clocks, percentiles, the
// span recorder and its self-time reduction, and the result record every
// workload fills. Header-only so the self-test binary
// (selftest.cc) exercises exactly the code the benchmark runs.
#ifndef PERFBENCH_SRC_BENCH_CORE_H_
#define PERFBENCH_SRC_BENCH_CORE_H_

#include <dirent.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

// Monotonic microseconds; the time base of every span and latency.
inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ClockUs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

// CPU time of this whole process (every thread, user + system), µs. Threads
// running on other CPUs are counted up to their last accounting point, so
// this suits spans that end with those threads idle (a set-up).
inline double ProcessCpuUs() { return ClockUs(CLOCK_PROCESS_CPUTIME_ID); }

// The CPU time, µs, of every thread the process has when this is built,
// summed, each read up to this instant (a running thread's clock included).
// The benchmark's end-to-end times are read from it: time a thread spends
// waiting for a CPU -- preempted, or its virtual CPU held back by the host
// (steal) -- is not CPU time, so a busy shared host moves these figures far
// less than it moves wall-clock ones. Build it after every thread the timed
// work uses has started.
class ThreadGroupCpu {
 public:
  ThreadGroupCpu() {
    DIR* dir = opendir("/proc/self/task");
    if (dir == nullptr) {
      clocks_.push_back(CLOCK_PROCESS_CPUTIME_ID);
      return;
    }
    while (const dirent* entry = readdir(dir)) {
      const long tid = std::strtol(entry->d_name, nullptr, 10);
      if (tid > 0) {
        // The kernel's per-thread CPU clock id (what pthread_getcpuclockid
        // returns): ~tid << 3 | per-thread flag (4) | scheduler clock (2).
        clocks_.push_back(static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6));
      }
    }
    closedir(dir);
  }

  double Us() const {
    double sum = 0;
    for (clockid_t c : clocks_) {
      sum += ClockUs(c);
    }
    return sum;
  }
  size_t threads() const { return clocks_.size(); }

 private:
  std::vector<clockid_t> clocks_;
};

// Nearest-rank percentile: the ceil(q * n)-th smallest value (q in [0, 1]),
// so every reported value is one that was measured. 0 for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

// A fixed task of the benchmark's own code -- an event-queue simulation,
// a sort, hash-map inserts and lookups, and a block copy, on one seeded data
// set -- whose CPU time tracks how fast this machine runs right now. The
// program under test never runs it, so a change to the program cannot move
// it. Returns the CPU time of one run of it in µs.
class ReferenceTask {
 public:
  ReferenceTask() {
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    keys_.resize(kItems);
    for (auto& k : keys_) {
      k = next();
    }
    block_.assign(kBlockBytes, 0);
    for (size_t i = 0; i < block_.size(); i += 64) {
      block_[i] = static_cast<char>(next());
    }
    copy_.assign(kBlockBytes, 0);
  }

  double RunUs() {
    const double t0 = ClockUs(CLOCK_THREAD_CPUTIME_ID);
    uint64_t acc = 0;
    // Event queue: each popped event schedules a later one.
    std::priority_queue<std::pair<uint64_t, uint32_t>, std::vector<std::pair<uint64_t, uint32_t>>,
                        std::greater<>>
        events;
    for (uint32_t i = 0; i < kItems / 4; ++i) {
      events.push({keys_[i] >> 40, i});
    }
    for (size_t i = 0; i < kItems; ++i) {
      const auto [t, id] = events.top();
      events.pop();
      acc += id;
      events.push({t + (keys_[i] >> 44), static_cast<uint32_t>(i)});
    }
    std::vector<uint64_t> sorted(keys_);
    std::sort(sorted.begin(), sorted.end());
    acc += sorted[kItems / 2];
    std::unordered_map<uint64_t, uint32_t> map;
    for (size_t i = 0; i < kItems / 2; ++i) {
      map[keys_[i] % (kItems * 4)] = static_cast<uint32_t>(i);
    }
    for (uint64_t k : keys_) {
      const auto it = map.find(k % (kItems * 4));
      acc += it == map.end() ? 0 : it->second;
    }
    for (int r = 0; r < 4; ++r) {
      std::memcpy(copy_.data(), block_.data(), block_.size());
      acc += static_cast<unsigned char>(copy_[(acc >> 3) % copy_.size()]);
    }
    sink_ += acc;
    return ClockUs(CLOCK_THREAD_CPUTIME_ID) - t0;
  }

 private:
  static constexpr size_t kItems = 16384;
  static constexpr size_t kBlockBytes = size_t{4} << 20;
  std::vector<uint64_t> keys_;
  std::vector<char> block_;
  std::vector<char> copy_;
  uint64_t sink_ = 0;
};

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

// --- Spans ------------------------------------------------------------------
//
// One span per call the benchmark makes into a layer: name, start, end, the
// span that caused it, and the request it belongs to. Spans stay in memory
// and are written out when the run ends.

struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;  // Index into the recorder's span list; -1 = root.
  uint64_t request = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  // Records a finished span and returns its index (-1 when disabled, which
  // children then carry as their parent and which Record ignores).
  int Record(std::string name, double start_us, double end_us, int parent, uint64_t request) {
    if (!enabled_) {
      return -1;
    }
    spans_.push_back({std::move(name), start_us, end_us, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Reserves a slot for a span whose end is not known yet (a parent opened
  // before its children); finish it with Close.
  int Open(std::string name, double start_us, int parent, uint64_t request) {
    return Record(std::move(name), start_us, start_us, parent, request);
  }
  void Close(int index, double end_us) {
    if (index >= 0) {
      spans_[index].end_us = end_us;
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Writes one JSON object per line: name, start/end (µs), parent, request.
  bool WriteJsonLines(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"parent\":%d,\"request\":%llu}\n",
                   i, s.name.c_str(), s.start_us, s.end_us, s.parent,
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of its interval that
// its direct children cover (overlapping children count once; child time
// outside the parent's interval is ignored).
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.parent < static_cast<int>(spans.size())) {
      children[s.parent].push_back({s.start_us, s.end_us});
    }
  }
  std::vector<double> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_us;
    const double hi = spans[i].end_us;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cursor = lo;
    for (const auto& [start, end] : kids) {
      const double a = std::max(start, cursor);
      const double b = std::min(end, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

// Total self time per span name.
inline std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name] += self[i];
  }
  return by_name;
}

// --- Result -------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

// What one workload run reports. Metric maps are ordered by insertion key so
// the printed JSON is stable.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_ok = true;
  std::vector<std::string> check_failures;
  std::vector<std::pair<std::string, Metric>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& [n, m] : metrics) {
      if (n == name) {
        m = {value, unit};
        return;
      }
    }
    metrics.push_back({name, {value, unit}});
  }
  // Records a failed output check (counts toward `failed`).
  void Fail(const std::string& what) {
    checks_ok = false;
    ++failed;
    if (check_failures.size() < 16) {
      check_failures.push_back(what);
    }
  }
};

// The last line of the benchmark's standard output.
inline std::string ResultJson(const RunResult& r) {
  std::string out = "{\"correct\": ";
  out += (r.checks_ok && r.failed == 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_CORE_H_
