#include "src/comm/collectives.h"

#include "src/comm/primitives.h"
#include "src/common/check.h"

namespace zeppelin {

CollectiveResult RingAllGather(TaskGraph& graph, const FabricResources& fabric,
                               const std::vector<int>& ranks,
                               const std::vector<int64_t>& bytes_per_rank,
                               TaskCategory category, RankDeps deps, LabelArg label) {
  const int r = static_cast<int>(ranks.size());
  ZCHECK_GT(r, 0);
  ZCHECK_EQ(bytes_per_rank.size(), ranks.size());
  const TaskLabel base = graph.Resolve(label);

  CollectiveResult result;
  result.done.resize(r, kInvalidTask);
  if (r == 1) {
    result.done[0] = graph.AddBarrier(deps[0], base.Then(LabelSuffix::kDone));
    return result;
  }

  // In round t, rank k forwards the chunk originally contributed by rank
  // (k - t) mod r to rank (k + 1) mod r. After r-1 rounds everyone has all
  // chunks. recv[t * r + k] is the transfer that lands on rank k in round t;
  // rank k forwards it in round t + 1.
  std::vector<TaskId> recv((r - 1) * r, kInvalidTask);
  for (int t = 0; t < r - 1; ++t) {
    for (int k = 0; k < r; ++k) {
      const int next = (k + 1) % r;
      const int chunk_owner = ((k - t) % r + r) % r;
      const DepSpan send_deps =
          t == 0 ? DepSpan(deps[k]) : DepSpan(&recv[(t - 1) * r + k], 1);
      recv[t * r + next] =
          AddP2P(graph, fabric, ranks[k], ranks[next], bytes_per_rank[chunk_owner], category,
                 send_deps, base.Then(LabelSuffix::kAllGatherHop, t, k, next));
    }
  }
  std::vector<TaskId> all;
  for (int k = 0; k < r; ++k) {
    all.clear();
    for (int t = 0; t < r - 1; ++t) {
      all.push_back(recv[t * r + k]);
    }
    const std::span<const TaskId> extra = deps[k];
    all.insert(all.end(), extra.begin(), extra.end());
    result.done[k] = graph.AddBarrier(all, base.Then(LabelSuffix::kDoneRank, k));
  }
  return result;
}

CollectiveResult AllToAllV(TaskGraph& graph, const FabricResources& fabric,
                           const std::vector<int>& ranks, std::span<const int64_t> sends,
                           TaskCategory category, RankDeps deps, LabelArg label) {
  const int r = static_cast<int>(ranks.size());
  ZCHECK_GT(r, 0);
  ZCHECK_EQ(sends.size(), ranks.size() * ranks.size());
  const TaskLabel base = graph.Resolve(label);

  // xfer[i * r + j]: the transfer from ranks[i] to ranks[j], if any.
  std::vector<TaskId> xfer(r * r, kInvalidTask);
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < r; ++j) {
      if (i == j || sends[i * r + j] == 0) {
        continue;
      }
      xfer[i * r + j] = AddP2P(graph, fabric, ranks[i], ranks[j], sends[i * r + j], category,
                               deps[i], base.Then(LabelSuffix::kAllToAllHop, i, j));
    }
  }
  CollectiveResult result;
  result.done.resize(r, kInvalidTask);
  std::vector<TaskId> all;
  for (int k = 0; k < r; ++k) {
    all.clear();
    for (int i = 0; i < r; ++i) {
      if (xfer[i * r + k] != kInvalidTask) {
        all.push_back(xfer[i * r + k]);
      }
    }
    const std::span<const TaskId> extra = deps[k];
    all.insert(all.end(), extra.begin(), extra.end());
    result.done[k] = graph.AddBarrier(all, base.Then(LabelSuffix::kDoneRank, k));
  }
  return result;
}

CollectiveResult RingAllReduce(TaskGraph& graph, const FabricResources& fabric,
                               const std::vector<int>& ranks, int64_t bytes,
                               TaskCategory category, RankDeps deps, LabelArg label) {
  const int r = static_cast<int>(ranks.size());
  ZCHECK_GT(r, 0);
  const TaskLabel base = graph.Resolve(label);
  CollectiveResult result;
  result.done.resize(r, kInvalidTask);
  if (r == 1) {
    result.done[0] = graph.AddBarrier(deps[0], base.Then(LabelSuffix::kDone));
    return result;
  }

  const int64_t chunk = (bytes + r - 1) / r;
  std::vector<TaskId> prev(r, kInvalidTask);
  std::vector<TaskId> this_recv(r, kInvalidTask);
  // Reduce-scatter then all-gather: 2(r-1) uniform ring steps.
  for (int t = 0; t < 2 * (r - 1); ++t) {
    for (int k = 0; k < r; ++k) {
      const int next = (k + 1) % r;
      const DepSpan send_deps = t == 0 ? DepSpan(deps[k]) : DepSpan(&prev[k], 1);
      this_recv[next] = AddP2P(graph, fabric, ranks[k], ranks[next], chunk, category, send_deps,
                               base.Then(LabelSuffix::kAllReduceHop, t, k));
    }
    prev.swap(this_recv);
  }
  for (int k = 0; k < r; ++k) {
    result.done[k] = graph.AddBarrier({prev[k]}, base.Then(LabelSuffix::kDoneRank, k));
  }
  return result;
}

}  // namespace zeppelin
