#include "src/sim/validate.h"

#include <algorithm>
#include <sstream>

namespace zeppelin {
namespace {

constexpr double kEps = 1e-9;

std::string Describe(const TaskGraph& graph, TaskId id) {
  std::ostringstream out;
  out << "task " << id;
  const std::string label = graph.Label(id);
  if (!label.empty()) {
    out << " ('" << label << "')";
  }
  return out.str();
}

}  // namespace

std::vector<ScheduleViolation> ValidateSchedule(const TaskGraph& graph, const SimResult& result,
                                                int num_resources) {
  std::vector<ScheduleViolation> violations;
  const int n = graph.size();

  if (static_cast<int>(result.start_us.size()) != n ||
      static_cast<int>(result.finish_us.size()) != n) {
    violations.push_back({kInvalidTask, "result arrays do not match graph size"});
    return violations;
  }

  // 1. Completion and duration consistency.
  for (TaskId id = 0; id < n; ++id) {
    const Task t = graph.task(id);
    if (result.start_us[id] < 0 || result.finish_us[id] < 0) {
      violations.push_back({id, Describe(graph, id) + " never ran"});
      continue;
    }
    const double expected = result.start_us[id] + t.duration_us;
    if (std::abs(result.finish_us[id] - expected) > kEps) {
      violations.push_back({id, Describe(graph, id) + " finish != start + duration"});
    }
  }

  // 2. Dependencies.
  for (TaskId id = 0; id < n; ++id) {
    for (TaskId dep : graph.deps(id)) {
      if (result.start_us[id] + kEps < result.finish_us[dep]) {
        violations.push_back(
            {id, Describe(graph, id) + " started before dependency " + std::to_string(dep)});
      }
    }
  }

  // 3. Resource exclusivity: collect per-resource intervals and sort.
  std::vector<std::vector<std::pair<double, TaskId>>> intervals(num_resources);
  for (TaskId id = 0; id < n; ++id) {
    const Task t = graph.task(id);
    if (t.duration_us <= 0) {
      continue;  // Zero-length tasks cannot overlap anything.
    }
    for (ResourceId r : t.resources) {
      if (r < 0 || r >= num_resources) {
        violations.push_back({id, Describe(graph, id) + " uses out-of-range resource"});
        continue;
      }
      intervals[r].emplace_back(result.start_us[id], id);
    }
  }
  for (int r = 0; r < num_resources; ++r) {
    auto& slots = intervals[r];
    std::sort(slots.begin(), slots.end());
    for (size_t i = 1; i < slots.size(); ++i) {
      const TaskId prev = slots[i - 1].second;
      const double prev_end = result.finish_us[prev];
      if (slots[i].first + kEps < prev_end) {
        violations.push_back({slots[i].second,
                              Describe(graph, slots[i].second) + " overlaps task " +
                                  std::to_string(prev) + " on resource " + std::to_string(r)});
      }
    }
  }

  // 4. Weak FIFO: for two tasks sharing a resource with a < b (program
  // order), if b started strictly before a *and* a was already ready (all
  // deps finished) at b's start, the engine jumped the queue.
  for (int r = 0; r < num_resources; ++r) {
    const auto& slots = intervals[r];
    for (size_t i = 0; i < slots.size(); ++i) {
      for (size_t j = 0; j < slots.size(); ++j) {
        const TaskId a = slots[i].second;
        const TaskId b = slots[j].second;
        if (a >= b || result.start_us[b] + kEps >= result.start_us[a]) {
          continue;  // Need a < b (program order) with b starting first.
        }
        double a_ready = 0;
        for (TaskId dep : graph.deps(a)) {
          a_ready = std::max(a_ready, result.finish_us[dep]);
        }
        if (a_ready + kEps < result.start_us[b]) {
          // `a` was ready and waiting, but only matters if it was actually
          // admissible: multi-resource tasks may legitimately wait on another
          // resource. Only flag single-resource tasks, where admission is
          // unambiguous.
          if (graph.resources(a).size() == 1) {
            violations.push_back({b, Describe(graph, b) + " overtook ready task " +
                                         std::to_string(a) + " on resource " +
                                         std::to_string(r)});
          }
        }
      }
    }
  }

  return violations;
}

bool IsLegalSchedule(const TaskGraph& graph, const SimResult& result, int num_resources) {
  return ValidateSchedule(graph, result, num_resources).empty();
}

}  // namespace zeppelin
