#include "src/core/remapping.h"

#include "src/comm/collectives.h"
#include "src/common/check.h"

namespace zeppelin {

RemappingLayer::RemappingLayer(const CostModel& cost_model, const FabricResources& fabric,
                               RemappingOptions options)
    : cost_model_(&cost_model), fabric_(&fabric), options_(options) {}

RemapSolution RemappingLayer::Plan(const std::vector<int64_t>& tokens_per_rank) const {
  RemapScratch scratch;
  RemapSolution solution;
  Plan(tokens_per_rank, &scratch, &solution);
  return solution;
}

void RemappingLayer::Plan(const std::vector<int64_t>& tokens_per_rank, RemapScratch* scratch,
                          RemapSolution* solution) const {
  const ClusterSpec& spec = fabric_->cluster();
  ZCHECK_EQ(tokens_per_rank.size(), static_cast<size_t>(spec.world_size()));

  RemapProblem& problem = scratch->problem;
  problem.tokens.assign(tokens_per_rank.begin(), tokens_per_rank.end());
  problem.target.clear();
  problem.node_of.resize(spec.world_size());
  for (int r = 0; r < spec.world_size(); ++r) {
    problem.node_of[r] = spec.NodeOf(r);
  }
  const double bytes_per_token = static_cast<double>(cost_model_->HiddenBytesPerToken());
  problem.b_intra = cost_model_->b_intra() * bytes_per_token;
  problem.b_inter = cost_model_->b_inter() * bytes_per_token;
  if (options_.minimax) {
    SolveMinimaxRemap(problem, scratch, solution);
  } else {
    *solution = SolveMinTotalRemap(problem);
  }
}

RemappingLayer::EmitResult RemappingLayer::Emit(TaskGraph& graph,
                                                const std::vector<int64_t>& tokens_per_rank,
                                                const RemapSolution& solution, bool inverse,
                                                RankDeps deps, LabelArg label) const {
  const ClusterSpec& spec = fabric_->cluster();
  const int world = spec.world_size();
  ZCHECK_EQ(tokens_per_rank.size(), static_cast<size_t>(world));

  EmitResult result;
  if (!options_.enabled) {
    const TaskLabel base = graph.Resolve(label);
    result.new_tokens = tokens_per_rank;
    result.done.resize(world);
    for (int k = 0; k < world; ++k) {
      result.done[k] = graph.AddBarrier(deps[k], base.Then(LabelSuffix::kNoRemap, k));
    }
    return result;
  }

  const int64_t bytes_per_token = cost_model_->HiddenBytesPerToken();
  std::vector<int64_t> sends(world * world, 0);  // Row-major, sender by receiver.
  result.new_tokens = tokens_per_rank;
  for (int i = 0; i < world; ++i) {
    for (int j = 0; j < world; ++j) {
      const int64_t moved = inverse ? solution.transfer[j][i] : solution.transfer[i][j];
      if (moved == 0) {
        continue;
      }
      sends[i * world + j] = moved * bytes_per_token;
      result.new_tokens[i] -= moved;
      result.new_tokens[j] += moved;
    }
  }

  std::vector<int> ranks(world);
  for (int r = 0; r < world; ++r) {
    ranks[r] = r;
  }
  result.done =
      AllToAllV(graph, *fabric_, ranks, sends, TaskCategory::kRemapComm, deps, label).done;
  return result;
}

GraphSize RemappingLayer::EmitBound(const RemapSolution& solution,
                                    int64_t deps_per_rank) const {
  const int64_t world = fabric_->cluster().world_size();
  if (!options_.enabled) {
    return {world, world * deps_per_rank, 0};
  }
  int64_t moves = 0;
  for (size_t i = 0; i < solution.transfer.size(); ++i) {
    for (size_t j = 0; j < solution.transfer[i].size(); ++j) {
      moves += i != j && solution.transfer[i][j] != 0;
    }
  }
  // One transfer per move, gated like its sender, and one barrier per rank
  // on its arrivals and its own deps.
  return {moves + world, moves * (deps_per_rank + 1) + world * deps_per_rank,
          moves * PathResources::kMaxChannels};
}

}  // namespace zeppelin
