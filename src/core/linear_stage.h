// Linear-module stage: per-rank token-wise compute (projections, MLP/MoE,
// norms). Cost is linear in the rank's token count — which is exactly why the
// remapping layer wants tokens balanced before this stage runs.
#ifndef SRC_CORE_LINEAR_STAGE_H_
#define SRC_CORE_LINEAR_STAGE_H_

#include <cstdint>
#include <vector>

#include "src/core/attention_engine.h"
#include "src/model/cost_model.h"
#include "src/sim/graph.h"
#include "src/topology/path.h"

namespace zeppelin {

// Emits one linear-module compute task per rank sized by its token count.
// deps[r] gates rank r. Returns the per-rank compute tasks.
std::vector<TaskId> EmitLinearStage(TaskGraph& graph, const CostModel& cost_model,
                                    const FabricResources& fabric,
                                    const std::vector<int64_t>& tokens_per_rank,
                                    Direction direction, RankDeps deps, LabelArg label);

}  // namespace zeppelin

#endif  // SRC_CORE_LINEAR_STAGE_H_
