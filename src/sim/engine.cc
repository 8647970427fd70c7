#include "src/sim/engine.h"

#include <algorithm>
#include <bit>
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

namespace {

// Pending completions, keyed on the IEEE-754 bits of their finish times. The
// engine never schedules a completion before the instant it is draining
// (durations are >= 0 and every time is a sum of them from +0.0, so no key is
// negative or -0.0), and for such doubles the bit patterns order like the
// values. That makes the queue monotone, so it is a radix heap: bucket 0
// holds the tasks due at `last`, the instant being drained, and bucket b > 0
// the tasks whose key first differs from `last` in bit b - 1. Each bucket is
// a list threaded through a per-task `next` column, since a task is pending
// at most once; the queue allocates nothing after construction.
class CompletionQueue {
 public:
  CompletionQueue(std::span<const double> finish, int num_tasks)
      : finish_(finish), next_(num_tasks) {
    head_.fill(kInvalidTask);
  }

  // Queues `id`, due at finish[id], which must not precede the instant.
  void Push(TaskId id) {
    const uint64_t key = Key(id);
    ZCHECK(key >= last_ && key < kSignBit) << "completion scheduled in the past";
    Link(id, Bucket(key));
    peak_ = std::max(peak_, ++size_);
  }

  // Moves to the earliest pending instant if nothing is due at the current
  // one. False when nothing is pending at all.
  bool Advance() {
    if (head_[0] != kInvalidTask) {
      return true;
    }
    if (occupied_ == 0) {
      return false;
    }
    // The smallest non-empty bucket holds the earliest keys; its minimum
    // becomes the instant and its tasks move to lower buckets.
    const int b = std::countr_zero(occupied_);
    TaskId list = head_[b];
    head_[b] = kInvalidTask;
    occupied_ &= occupied_ - 1;
    last_ = Key(list);
    for (TaskId id = next_[list]; id != kInvalidTask; id = next_[id]) {
      last_ = std::min(last_, Key(id));
    }
    while (list != kInvalidTask) {
      const TaskId id = list;
      list = next_[id];
      Link(id, Bucket(Key(id)));
    }
    return true;
  }

  // The instant being drained.
  double now() const { return std::bit_cast<double>(last_); }

  // A task due at the current instant, or kInvalidTask once none is left.
  TaskId Pop() {
    const TaskId id = head_[0];
    if (id != kInvalidTask) {
      head_[0] = next_[id];
      if (head_[0] == kInvalidTask) {
        occupied_ &= ~uint64_t{1};
      }
      --size_;
    }
    return id;
  }

  int64_t peak() const { return peak_; }

 private:
  // Keys are non-negative doubles, so they and `last` agree in the sign bit
  // and differ in at most the 63 bits below it.
  static constexpr int kBuckets = 64;
  static constexpr uint64_t kSignBit = uint64_t{1} << 63;

  uint64_t Key(TaskId id) const { return std::bit_cast<uint64_t>(finish_[id]); }
  int Bucket(uint64_t key) const {
    return key == last_ ? 0 : 64 - std::countl_zero(key ^ last_);
  }
  void Link(TaskId id, int bucket) {
    next_[id] = head_[bucket];
    head_[bucket] = id;
    occupied_ |= uint64_t{1} << bucket;
  }

  std::span<const double> finish_;
  std::vector<TaskId> next_;
  std::array<TaskId, kBuckets> head_;
  uint64_t occupied_ = 0;  // Bit b set while bucket b is non-empty.
  uint64_t last_ = 0;  // Bits of +0.0: the run starts at t = 0.
  int64_t size_ = 0;
  int64_t peak_ = 0;
};

}  // namespace

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
  result.counters.tasks = n;

  // Dependents in CSR form, each list in ascending task id: count into
  // out_begin[dep + 1], turn counts into starts, place (advancing
  // out_begin[dep] to the end of dep's list), then shift the ends back into
  // starts.
  std::vector<int32_t> remaining_deps(n);
  std::vector<int32_t> out_begin(n + 1, 0);
  for (TaskId dep : dep_ids) {
    ++out_begin[dep + 1];
  }
  for (int i = 0; i < n; ++i) {
    out_begin[i + 1] += out_begin[i];
  }
  std::vector<TaskId> out_ids(dep_ids.size());
  for (TaskId id = 0; id < n; ++id) {
    remaining_deps[id] = dep_begin[id + 1] - dep_begin[id];
    for (int32_t k = dep_begin[id]; k < dep_begin[id + 1]; ++k) {
      out_ids[out_begin[dep_ids[k]]++] = id;
    }
  }
  for (int i = n; i > 0; --i) {
    out_begin[i] = out_begin[i - 1];
  }
  out_begin[0] = 0;

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

  CompletionQueue completions(result.finish_us, n);
  // Tasks that may be able to start at the current instant: the heads of
  // resources freed there and newly ready tasks that head all their queues.
  // Any other waiting task is blocked by a resource or a queue that has not
  // changed since it last failed to start.
  std::vector<TaskId> candidates;
  candidates.reserve(num_resources);

  auto schedule_completion = [&](TaskId id, double start) {
    result.start_us[id] = start;
    result.finish_us[id] = start + duration[id];
    completions.Push(id);
  };

  auto make_ready = [&](TaskId id, double now) {
    if (res_begin[id] == res_begin[id + 1]) {
      schedule_completion(id, now);  // Barrier / free transfer: runs instantly.
      return;
    }
    bool startable = true;
    for (int32_t k = res_begin[id]; k < res_begin[id + 1]; ++k) {
      const ResourceId r = res_ids[k];
      TaskId* queue = queue_arena.data() + queue_begin[r];
      queue[queue_size[r]++] = id;
      std::push_heap(queue, queue + queue_size[r], min_first);
      result.counters.peak_queue_depth =
          std::max<int64_t>(result.counters.peak_queue_depth, queue_size[r]);
      startable = startable && !busy[r] && queue[0] == id;
    }
    if (startable) {
      candidates.push_back(id);
    }
  };

  // One chrome-trace slice per resource the task occupies.
  auto add_slices = [&](TaskId task, double now) {
    std::string name = graph.Label(task);
    if (name.empty()) {
      name = TaskCategoryName(category[task]);
    }
    for (int32_t k = res_begin[task]; k < res_begin[task + 1]; ++k) {
      TraceEvent ev;
      ev.name = name;
      ev.category = TaskCategoryName(category[task]);
      ev.start_us = now;
      ev.duration_us = duration[task];
      ev.pid = fabric_->ResourceNode(res_ids[k]);
      ev.tid = res_ids[k];
      trace->Add(ev);
    }
  };

  // Starts every candidate that heads all its queues with all of them idle.
  // Two such tasks share no resource (they cannot both head its queue), and
  // starting one only occupies its own resources, so the set started here —
  // and with it the schedule — does not depend on the candidates' order.
  auto admit = [&](double now) {
    for (const TaskId task : candidates) {
      bool can_start = true;
      for (int32_t k = res_begin[task]; k < res_begin[task + 1]; ++k) {
        const ResourceId r = res_ids[k];
        if (busy[r] || queue_size[r] == 0 || head(r) != task) {
          can_start = false;
          break;
        }
      }
      if (!can_start) {
        continue;
      }
      const double d = duration[task];
      const int c = static_cast<int>(category[task]);
      for (int32_t k = res_begin[task]; k < res_begin[task + 1]; ++k) {
        const ResourceId r = res_ids[k];
        busy[r] = 1;
        TaskId* queue = queue_arena.data() + queue_begin[r];
        std::pop_heap(queue, queue + queue_size[r], min_first);
        --queue_size[r];
        result.usage[r].busy_us += d;
        result.usage[r].by_category[c] += d;
      }
      if (trace != nullptr && d > 0) {
        add_slices(task, now);
      }
      schedule_completion(task, now);
    }
    candidates.clear();
  };

  // Seed: tasks with no dependencies are ready at t = 0.
  int completed = 0;
  for (TaskId id = 0; id < n; ++id) {
    if (remaining_deps[id] == 0) {
      make_ready(id, 0.0);
    }
  }
  admit(0.0);

  double instant = -1.0;  // Every time is >= 0: no instant drained yet.
  while (completions.Advance()) {
    const double now = completions.now();
    if (now != instant) {
      instant = now;
      ++result.counters.event_instants;
    }
    // Drain all completions at `now`, including the instant tasks they
    // release, before admitting new work, so admission sees a consistent
    // resource picture.
    for (TaskId id = completions.Pop(); id != kInvalidTask; id = completions.Pop()) {
      result.makespan_us = std::max(result.makespan_us, now);
      ++completed;
      for (int32_t k = res_begin[id]; k < res_begin[id + 1]; ++k) {
        const ResourceId r = res_ids[k];
        busy[r] = 0;
        if (queue_size[r] > 0) {
          candidates.push_back(head(r));
        }
      }
      for (int32_t k = out_begin[id]; k < out_begin[id + 1]; ++k) {
        const TaskId dependent = out_ids[k];
        if (--remaining_deps[dependent] == 0) {
          make_ready(dependent, now);
        }
      }
    }
    admit(now);
  }
  result.counters.peak_in_flight = completions.peak();

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
