#include "src/sim/graph.h"

#include "src/common/check.h"

namespace zeppelin {

const char* TaskCategoryName(TaskCategory category) {
  switch (category) {
    case TaskCategory::kAttentionCompute:
      return "attention_compute";
    case TaskCategory::kLinearCompute:
      return "linear_compute";
    case TaskCategory::kOtherCompute:
      return "other_compute";
    case TaskCategory::kIntraComm:
      return "intra_comm";
    case TaskCategory::kInterComm:
      return "inter_comm";
    case TaskCategory::kDispatchComm:
      return "dispatch_comm";
    case TaskCategory::kCombineComm:
      return "combine_comm";
    case TaskCategory::kRemapComm:
      return "remap_comm";
    case TaskCategory::kBarrier:
      return "barrier";
  }
  return "unknown";
}

bool IsCommCategory(TaskCategory category) {
  switch (category) {
    case TaskCategory::kIntraComm:
    case TaskCategory::kInterComm:
    case TaskCategory::kDispatchComm:
    case TaskCategory::kCombineComm:
    case TaskCategory::kRemapComm:
      return true;
    default:
      return false;
  }
}

TaskGraph::TaskGraph() : dep_begin_{0}, resource_begin_{0}, stems_{""} {}

void TaskGraph::Reserve(int64_t tasks, int64_t deps, int64_t resources) {
  ZCHECK(tasks >= 0 && deps >= 0 && resources >= 0);
  const size_t task_count = duration_us_.size() + static_cast<size_t>(tasks);
  duration_us_.reserve(task_count);
  category_.reserve(task_count);
  bytes_.reserve(task_count);
  gpu_.reserve(task_count);
  label_.reserve(task_count);
  dep_begin_.reserve(task_count + 1);
  resource_begin_.reserve(task_count + 1);
  dep_ids_.reserve(dep_ids_.size() + static_cast<size_t>(deps));
  resource_ids_.reserve(resource_ids_.size() + static_cast<size_t>(resources));
}

TaskId TaskGraph::AddTask(double duration_us, TaskCategory category,
                          std::span<const ResourceId> resources, DepSpan deps, int64_t bytes,
                          int gpu, LabelArg label) {
  ZCHECK_GE(duration_us, 0.0);
  const TaskId id = size();
  for (TaskId dep : deps) {
    ZCHECK(dep >= 0 && dep < id) << "dep=" << dep << " out of range (forward deps only)";
  }
  for (size_t i = 0; i < resources.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      ZCHECK_NE(resources[i], resources[j]) << "a task occupies each resource once";
    }
  }
  duration_us_.push_back(duration_us);
  category_.push_back(category);
  bytes_.push_back(bytes);
  gpu_.push_back(gpu);
  label_.push_back(Resolve(label));
  dep_ids_.insert(dep_ids_.end(), deps.begin(), deps.end());
  dep_begin_.push_back(static_cast<int32_t>(dep_ids_.size()));
  resource_ids_.insert(resource_ids_.end(), resources.begin(), resources.end());
  resource_begin_.push_back(static_cast<int32_t>(resource_ids_.size()));
  return id;
}

TaskId TaskGraph::AddCompute(ResourceId lane, double duration_us, TaskCategory category,
                             DepSpan deps, LabelArg label, int gpu) {
  return AddTask(duration_us, category, std::span<const ResourceId>(&lane, 1), deps, 0, gpu,
                 label);
}

TaskId TaskGraph::AddTransfer(const TransferPath& path, int64_t bytes, TaskCategory category,
                              DepSpan deps, LabelArg label, int src_gpu) {
  ZCHECK_GE(bytes, 0);
  double duration_us = 0;  // Same-device: free.
  if (!path.resources.empty()) {
    ZCHECK_GT(path.bandwidth, 0.0);
    duration_us = static_cast<double>(bytes) / path.bandwidth + path.latency_us;
  }
  return AddTask(duration_us, category, path.resources, deps, bytes, src_gpu, label);
}

TaskId TaskGraph::AddBarrier(DepSpan deps, LabelArg label) {
  return AddTask(0, TaskCategory::kBarrier, {}, deps, 0, -1, label);
}

TaskLabel TaskGraph::Intern(std::string_view text) {
  TaskLabel label;
  if (text.empty()) {
    return label;
  }
  auto it = stem_ids_.find(text);
  if (it == stem_ids_.end()) {
    const auto id = static_cast<uint32_t>(stems_.size());
    stems_.emplace_back(text);
    it = stem_ids_.emplace(std::string(text), id).first;
  }
  label.stem = it->second;
  return label;
}

TaskLabel TaskGraph::Resolve(const LabelArg& label) {
  return label.is_text_ ? Intern(label.text_) : label.label_;
}

std::string TaskGraph::Label(TaskId id) const {
  ZCHECK(id >= 0 && id < size()) << "task id=" << id;
  const TaskLabel& label = label_[id];
  std::string out = stems_[label.stem];
  int arg = 0;
  for (LabelSuffix suffix : label.suffixes) {
    if (suffix == LabelSuffix::kNone) {
      break;
    }
    for (const char* p = kLabelSuffixFormat[static_cast<int>(suffix)]; *p != '\0'; ++p) {
      if (*p == '#') {
        out += std::to_string(label.args[arg++]);
      } else {
        out += *p;
      }
    }
  }
  return out;
}

Task TaskGraph::task(TaskId id) const {
  ZCHECK(id >= 0 && id < size()) << "task id=" << id;
  return Task{duration_us_[id], category_[id], resources(id), deps(id), bytes_[id], gpu_[id]};
}

void RankTaskLists::Seal() {
  // Counting sort by rank, stable within a rank: count into offsets_[r + 1],
  // turn counts into starts, place (advancing offsets_[r] to the end of rank
  // r's run), then shift the ends back into starts.
  offsets_.assign(ranks_ + 1, 0);
  for (const auto& [rank, id] : entries_) {
    ZCHECK(rank >= 0 && rank < ranks_) << "rank=" << rank;
    ++offsets_[rank + 1];
  }
  for (int r = 0; r < ranks_; ++r) {
    offsets_[r + 1] += offsets_[r];
  }
  ids_.resize(entries_.size());
  for (const auto& [rank, id] : entries_) {
    ids_[offsets_[rank]++] = id;
  }
  for (int r = ranks_; r > 0; --r) {
    offsets_[r] = offsets_[r - 1];
  }
  offsets_[0] = 0;
}

}  // namespace zeppelin
