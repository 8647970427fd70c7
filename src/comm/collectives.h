// Collective communication built from point-to-point transfers.
//
// These are the collectives the baselines and the remapping layer rely on:
//  - RingAllGather: LLaMA CP's KV all-gather (§5 baseline: "KV activations
//    are all-gathered across devices prior to attention computation").
//  - AllToAllV: the remapping layer's dynamic-shape exchange (§3.4) and
//    Ulysses-style head/sequence switches.
//  - RingAllReduce: data-parallel gradient synchronization.
// All of them return one "done" dependency handle per participating rank.
#ifndef SRC_COMM_COLLECTIVES_H_
#define SRC_COMM_COLLECTIVES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/graph.h"
#include "src/topology/path.h"

namespace zeppelin {

struct CollectiveResult {
  // done[k]: task that completes when ranks[k] holds its final data.
  std::vector<TaskId> done;
};

// Ring all-gather: after completion every rank holds all ranks' chunks.
// bytes_per_rank[k] is the chunk contributed by ranks[k]; deps[k] gates the
// first send from ranks[k] (pass {} when data is ready at t=0).
CollectiveResult RingAllGather(TaskGraph& graph, const FabricResources& fabric,
                               const std::vector<int>& ranks,
                               const std::vector<int64_t>& bytes_per_rank,
                               TaskCategory category, RankDeps deps, LabelArg label);

// Pairwise all-to-allv: sends[i * R + j] bytes move from ranks[i] to
// ranks[j], for R = ranks.size() (the matrix in row-major order). All pairs
// are issued concurrently; fabric channels serialize them.
CollectiveResult AllToAllV(TaskGraph& graph, const FabricResources& fabric,
                           const std::vector<int>& ranks, std::span<const int64_t> sends,
                           TaskCategory category, RankDeps deps, LabelArg label);

// Ring all-reduce of `bytes` (reduce-scatter + all-gather, 2(R-1) steps of
// bytes/R chunks).
CollectiveResult RingAllReduce(TaskGraph& graph, const FabricResources& fabric,
                               const std::vector<int>& ranks, int64_t bytes,
                               TaskCategory category, RankDeps deps, LabelArg label);

}  // namespace zeppelin

#endif  // SRC_COMM_COLLECTIVES_H_
