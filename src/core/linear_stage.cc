#include "src/core/linear_stage.h"

#include "src/common/check.h"

namespace zeppelin {

std::vector<TaskId> EmitLinearStage(TaskGraph& graph, const CostModel& cost_model,
                                    const FabricResources& fabric,
                                    const std::vector<int64_t>& tokens_per_rank,
                                    Direction direction, RankDeps deps, LabelArg label) {
  const int world = fabric.cluster().world_size();
  ZCHECK_EQ(tokens_per_rank.size(), static_cast<size_t>(world));
  const double scale = direction == Direction::kBackward ? kBackwardMultiplier : 1.0;
  const TaskLabel base = graph.Resolve(label);

  std::vector<TaskId> out(world, kInvalidTask);
  for (int r = 0; r < world; ++r) {
    const double time = cost_model.LinearTime(tokens_per_rank[r]) * scale;
    out[r] = graph.AddCompute(fabric.ComputeLane(r), time, TaskCategory::kLinearCompute, deps[r],
                              base.Then(LabelSuffix::kLinear, r), r);
  }
  return out;
}

}  // namespace zeppelin
