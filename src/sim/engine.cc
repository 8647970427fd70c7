#include "src/sim/engine.h"

#include <algorithm>
#include <functional>
#include <span>
#include <string>
#include <utility>

#include "src/common/check.h"

namespace zeppelin {

double SimResult::CategoryBusy(TaskCategory category) const {
  double total = 0;
  for (const auto& u : usage) {
    total += u.by_category[static_cast<int>(category)];
  }
  return total;
}

double SimResult::ResourceBusy(ResourceId id) const {
  ZCHECK(id >= 0 && static_cast<size_t>(id) < usage.size());
  return usage[id].busy_us;
}

double SimResult::Utilization(ResourceId id) const {
  if (makespan_us == 0) {
    return 0;
  }
  return ResourceBusy(id) / makespan_us;
}

SimResult Engine::Run(const TaskGraph& graph, ChromeTraceWriter* trace) const {
  const int n = graph.size();
  const int num_resources = fabric_->num_resources();
  const std::span<const double> duration = graph.durations();
  const std::span<const TaskCategory> category = graph.categories();
  const std::span<const int32_t> dep_begin = graph.dep_begin();
  const std::span<const TaskId> dep_ids = graph.dep_ids();
  const std::span<const int32_t> res_begin = graph.resource_begin();
  const std::span<const ResourceId> res_ids = graph.resource_ids();

  SimResult result;
  result.start_us.assign(n, -1.0);
  result.finish_us.assign(n, -1.0);
  result.usage.assign(num_resources, ResourceUsage{});

  // Dependents in CSR form, each list in ascending task id.
  std::vector<int32_t> remaining_deps(n);
  std::vector<int32_t> out_begin(n + 1, 0);
  for (TaskId dep : dep_ids) {
    ++out_begin[dep + 1];
  }
  for (int i = 0; i < n; ++i) {
    out_begin[i + 1] += out_begin[i];
  }
  std::vector<TaskId> out_ids(dep_ids.size());
  {
    std::vector<int32_t> cursor(out_begin.begin(), out_begin.end() - 1);
    for (TaskId id = 0; id < n; ++id) {
      remaining_deps[id] = dep_begin[id + 1] - dep_begin[id];
      for (int32_t k = dep_begin[id]; k < dep_begin[id + 1]; ++k) {
        out_ids[cursor[dep_ids[k]]++] = id;
      }
    }
  }

  // Waiting queues in program order — the FIFO admission discipline. Each
  // resource's queue is a min-heap of task ids in its own slice of one arena,
  // sized by how many tasks ever use the resource.
  std::vector<int32_t> queue_begin(num_resources + 1, 0);
  for (ResourceId r : res_ids) {
    ZCHECK(r >= 0 && r < num_resources) << "resource=" << r;
    ++queue_begin[r + 1];
  }
  for (int r = 0; r < num_resources; ++r) {
    queue_begin[r + 1] += queue_begin[r];
  }
  std::vector<TaskId> queue_arena(res_ids.size());
  std::vector<int32_t> queue_size(num_resources, 0);
  std::vector<uint8_t> busy(num_resources, 0);
  const std::greater<TaskId> min_first;
  auto head = [&](ResourceId r) { return queue_arena[queue_begin[r]]; };

  // Completion events: (time, task). Ties resolved by task id for determinism.
  struct Event {
    double time;
    TaskId id;
  };
  std::vector<Event> completions;
  completions.reserve(n);
  auto earliest_first = [](const Event& a, const Event& b) {
    return a.time > b.time || (a.time == b.time && a.id > b.id);
  };

  // Resources that might be able to admit a task.
  std::vector<ResourceId> dirty;
  dirty.reserve(64);

  auto schedule_completion = [&](TaskId id, double start) {
    result.start_us[id] = start;
    completions.push_back(Event{start + duration[id], id});
    std::push_heap(completions.begin(), completions.end(), earliest_first);
  };

  auto make_ready = [&](TaskId id, double now) {
    if (res_begin[id] == res_begin[id + 1]) {
      schedule_completion(id, now);  // Barrier / free transfer: runs instantly.
      return;
    }
    for (int32_t k = res_begin[id]; k < res_begin[id + 1]; ++k) {
      const ResourceId r = res_ids[k];
      TaskId* queue = queue_arena.data() + queue_begin[r];
      queue[queue_size[r]++] = id;
      std::push_heap(queue, queue + queue_size[r], min_first);
      dirty.push_back(r);
    }
  };

  auto try_start = [&](double now) {
    while (!dirty.empty()) {
      const ResourceId r = dirty.back();
      dirty.pop_back();
      if (busy[r] || queue_size[r] == 0) {
        continue;
      }
      const TaskId task = head(r);
      bool can_start = true;
      for (int32_t k = res_begin[task]; k < res_begin[task + 1]; ++k) {
        const ResourceId tr = res_ids[k];
        if (busy[tr] || queue_size[tr] == 0 || head(tr) != task) {
          can_start = false;
          break;
        }
      }
      if (!can_start) {
        continue;
      }
      const double d = duration[task];
      const int c = static_cast<int>(category[task]);
      std::string name;
      if (trace != nullptr && d > 0) {
        name = graph.Label(task);
        if (name.empty()) {
          name = TaskCategoryName(category[task]);
        }
      }
      for (int32_t k = res_begin[task]; k < res_begin[task + 1]; ++k) {
        const ResourceId tr = res_ids[k];
        busy[tr] = 1;
        TaskId* queue = queue_arena.data() + queue_begin[tr];
        std::pop_heap(queue, queue + queue_size[tr], min_first);
        --queue_size[tr];
        result.usage[tr].busy_us += d;
        result.usage[tr].by_category[c] += d;
        if (trace != nullptr && d > 0) {
          TraceEvent ev;
          ev.name = name;
          ev.category = TaskCategoryName(category[task]);
          ev.start_us = now;
          ev.duration_us = d;
          ev.pid = fabric_->ResourceNode(tr);
          ev.tid = tr;
          trace->Add(ev);
        }
      }
      schedule_completion(task, now);
      // Freed queue heads may unblock other tasks on these resources later;
      // nothing to re-check until completion. (Start consumed the heads.)
    }
  };

  // Seed: tasks with no dependencies are ready at t = 0.
  int completed = 0;
  for (TaskId id = 0; id < n; ++id) {
    if (remaining_deps[id] == 0) {
      make_ready(id, 0.0);
    }
  }
  try_start(0.0);

  while (!completions.empty()) {
    const double now = completions.front().time;
    // Drain all completions at `now` before admitting new work, so admission
    // sees a consistent resource picture.
    while (!completions.empty() && completions.front().time == now) {
      const TaskId id = completions.front().id;
      std::pop_heap(completions.begin(), completions.end(), earliest_first);
      completions.pop_back();
      result.finish_us[id] = now;
      result.makespan_us = std::max(result.makespan_us, now);
      ++completed;
      for (int32_t k = res_begin[id]; k < res_begin[id + 1]; ++k) {
        busy[res_ids[k]] = 0;
        dirty.push_back(res_ids[k]);
      }
      for (int32_t k = out_begin[id]; k < out_begin[id + 1]; ++k) {
        const TaskId dependent = out_ids[k];
        if (--remaining_deps[dependent] == 0) {
          make_ready(dependent, now);
        }
      }
    }
    try_start(now);
  }

  ZCHECK_EQ(completed, n) << "deadlock or dangling dependency: " << (n - completed)
                          << " tasks never ran";
  if (trace != nullptr) {
    for (ResourceId r = 0; r < num_resources; ++r) {
      trace->NameThread(fabric_->ResourceNode(r), r, fabric_->ResourceName(r));
    }
  }
  return result;
}

}  // namespace zeppelin
