// TaskGraph: builder for simulator DAGs.
//
// Program order matters: when several tasks wait on the same resource, the
// one added first runs first (FIFO, like work issued to a CUDA stream).
// Strategies therefore emit tasks in their intended per-resource execution
// order — e.g. Zeppelin's attention engine adds the inter-node queue before
// the intra-node queue before the local queue (§3.2).
//
// Layout: one column per task field, plus two CSR arenas (deps and
// resources) indexed by per-task offsets. Adding a task appends to these
// columns; nothing is allocated per task, and a caller that knows how much
// it will add sizes the columns once with Reserve. Labels are TaskLabel
// records whose text is formatted only when Label(id) asks for it.
#ifndef SRC_SIM_GRAPH_H_
#define SRC_SIM_GRAPH_H_

#include <cstdint>
#include <functional>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/task.h"
#include "src/topology/path.h"

namespace zeppelin {

// Column entries a stretch of emission adds: tasks, and the dependency and
// resource entries they hold. Emitters report upper bounds in this form so a
// caller can size a graph's columns once (TaskGraph::Reserve).
struct GraphSize {
  int64_t tasks = 0;
  int64_t deps = 0;
  int64_t resources = 0;

  GraphSize& operator+=(const GraphSize& other) {
    tasks += other.tasks;
    deps += other.deps;
    resources += other.resources;
    return *this;
  }
  friend GraphSize operator*(GraphSize size, int64_t times) {
    return {size.tasks * times, size.deps * times, size.resources * times};
  }
};

class TaskGraph {
 public:
  TaskGraph();

  // Makes room for `tasks` more tasks holding `deps` dependency and
  // `resources` resource entries between them, so adding them regrows no
  // column. Call it once per stretch of emission: each call that grows a
  // column reallocates it to exactly the requested size.
  void Reserve(int64_t tasks, int64_t deps, int64_t resources);

  // General form: a task occupying `resources` for `duration_us` once all
  // `deps` have finished.
  TaskId AddTask(double duration_us, TaskCategory category,
                 std::span<const ResourceId> resources, DepSpan deps, int64_t bytes, int gpu,
                 LabelArg label);

  // Compute kernel occupying a single lane.
  TaskId AddCompute(ResourceId lane, double duration_us, TaskCategory category, DepSpan deps,
                    LabelArg label, int gpu);

  // Point-to-point transfer along a resolved path. Duration is
  // bytes / path.bandwidth + path.latency. A same-GPU path (no resources)
  // completes instantly and merely propagates dependencies.
  TaskId AddTransfer(const TransferPath& path, int64_t bytes, TaskCategory category,
                     DepSpan deps, LabelArg label, int src_gpu);

  // Zero-duration scheduling node; handy for fan-in/fan-out points.
  TaskId AddBarrier(DepSpan deps, LabelArg label = "barrier");

  // Label record for `text` as a stem (interned once per graph), and the
  // record a LabelArg stands for on this graph.
  TaskLabel Intern(std::string_view text);
  TaskLabel Resolve(const LabelArg& label);

  // The label of a task as text, formatted from its record.
  std::string Label(TaskId id) const;

  int size() const { return static_cast<int>(duration_us_.size()); }
  Task task(TaskId id) const;
  // Every task in id order, as views.
  auto tasks() const {
    return std::views::iota(TaskId{0}, static_cast<TaskId>(size())) |
           std::views::transform([this](TaskId id) { return task(id); });
  }

  // Columns, indexed by task id.
  std::span<const double> durations() const { return duration_us_; }
  std::span<const TaskCategory> categories() const { return category_; }
  std::span<const ResourceId> resources(TaskId id) const {
    return std::span<const ResourceId>(resource_ids_)
        .subspan(resource_begin_[id], resource_begin_[id + 1] - resource_begin_[id]);
  }
  std::span<const TaskId> deps(TaskId id) const {
    return std::span<const TaskId>(dep_ids_).subspan(dep_begin_[id],
                                                     dep_begin_[id + 1] - dep_begin_[id]);
  }
  // The CSR arenas: task id's entries are [begin[id], begin[id + 1]).
  std::span<const int32_t> dep_begin() const { return dep_begin_; }
  std::span<const TaskId> dep_ids() const { return dep_ids_; }
  std::span<const int32_t> resource_begin() const { return resource_begin_; }
  std::span<const ResourceId> resource_ids() const { return resource_ids_; }

 private:
  struct StemHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };

  std::vector<double> duration_us_;
  std::vector<TaskCategory> category_;
  std::vector<int64_t> bytes_;
  std::vector<int32_t> gpu_;
  std::vector<TaskLabel> label_;
  std::vector<int32_t> dep_begin_;  // size() + 1 entries.
  std::vector<TaskId> dep_ids_;
  std::vector<int32_t> resource_begin_;  // size() + 1 entries.
  std::vector<ResourceId> resource_ids_;
  // Stem text by id (id 0 is the empty stem) and the reverse index.
  std::vector<std::string> stems_;
  std::unordered_map<std::string, uint32_t, StemHash, std::equal_to<>> stem_ids_;
};

// Per-rank dependency lists for the per-rank emit functions: rank r's first
// task waits on deps[r]. A non-owning view over one of
//   - nested vectors, one list per rank;
//   - one task per rank (OnePerRank);
//   - a CSR pair, rank r's list being ids[offsets[r], offsets[r + 1]).
// A default-constructed RankDeps gates no rank.
class RankDeps {
 public:
  RankDeps() = default;
  RankDeps(const std::vector<std::vector<TaskId>>& lists) : lists_(&lists) {}

  static RankDeps OnePerRank(std::span<const TaskId> ids) {
    RankDeps deps;
    deps.ids_ = ids;
    return deps;
  }
  static RankDeps Csr(std::span<const int32_t> offsets, std::span<const TaskId> ids) {
    RankDeps deps;
    deps.offsets_ = offsets;
    deps.ids_ = ids;
    deps.csr_ = true;
    return deps;
  }

  // Number of ranks with a list; 0 gates no rank.
  size_t size() const {
    if (lists_ != nullptr) {
      return lists_->size();
    }
    return csr_ ? (offsets_.empty() ? 0 : offsets_.size() - 1) : ids_.size();
  }
  bool empty() const { return size() == 0; }

  std::span<const TaskId> operator[](int rank) const {
    if (empty()) {
      return {};
    }
    ZCHECK(rank >= 0 && static_cast<size_t>(rank) < size()) << "rank=" << rank;
    if (lists_ != nullptr) {
      return (*lists_)[rank];
    }
    if (!csr_) {
      return ids_.subspan(rank, 1);
    }
    return ids_.subspan(offsets_[rank], offsets_[rank + 1] - offsets_[rank]);
  }

 private:
  const std::vector<std::vector<TaskId>>* lists_ = nullptr;
  std::span<const int32_t> offsets_;
  std::span<const TaskId> ids_;
  bool csr_ = false;
};

// Per-rank task lists built by appending (rank, task) pairs. Seal() groups
// them by rank, keeping append order within a rank; then they read list by
// list.
class RankTaskLists {
 public:
  // Drops every list and sizes the set for `ranks` ranks.
  void Reset(int ranks) {
    ranks_ = ranks;
    entries_.clear();
    offsets_.clear();
    ids_.clear();
  }
  void Add(int rank, TaskId id) { entries_.emplace_back(rank, id); }
  void Seal();

  std::span<const TaskId> operator[](int rank) const {
    return std::span<const TaskId>(ids_).subspan(offsets_[rank],
                                                 offsets_[rank + 1] - offsets_[rank]);
  }

 private:
  int ranks_ = 0;
  std::vector<std::pair<int32_t, TaskId>> entries_;
  std::vector<int32_t> offsets_;
  std::vector<TaskId> ids_;
};

}  // namespace zeppelin

#endif  // SRC_SIM_GRAPH_H_
