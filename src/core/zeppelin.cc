#include "src/core/zeppelin.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/core/linear_stage.h"

namespace zeppelin {

ZeppelinStrategy::ZeppelinStrategy(ZeppelinOptions options) : options_(std::move(options)) {}

std::string ZeppelinStrategy::name() const {
  std::string n = "Zeppelin";
  if (!options_.routing.enabled) {
    n += "[-routing]";
  }
  if (!options_.remapping.enabled) {
    n += "[-remap]";
  }
  return n;
}

PlannerService& ZeppelinStrategy::service() {
  if (options_.service) {
    return *options_.service;
  }
  if (!owned_service_) {
    owned_service_ = std::make_shared<PlannerService>();
  }
  return *owned_service_;
}

const PartitionPlan& ZeppelinStrategy::partition_plan() const {
  ZCHECK(current_plan_ != nullptr) << "no plan yet: call Plan()/PlanDelta()/AdoptPlan() first";
  return *current_plan_;
}

void ZeppelinStrategy::Plan(const Batch& batch, const CostModel& cost_model,
                            const FabricResources& fabric) {
  cost_model_ = &cost_model;
  fabric_ = &fabric;

  // Full planning bypasses the incremental session; the next PlanDelta()
  // re-establishes its base with a fresh full partition.
  PlannerService& svc = service();
  svc.InvalidateSession(options_.stream_id);

  PlanRequest request;
  request.batch = &batch;
  request.cost_model = &cost_model;
  request.fabric = &fabric;
  request.options = options_.planning;
  PlanResponse response = svc.Plan(request);
  ZCHECK(response.status == PlanStatus::kOk) << "plan request rejected: " << response.error;
  current_plan_ = std::move(response.plan);
  last_stats_ = response.stats;

  FinishPlanning(cost_model, fabric);
}

void ZeppelinStrategy::PlanDelta(const Batch& batch, const BatchDelta& delta,
                                 const CostModel& cost_model, const FabricResources& fabric,
                                 const TopologyDelta* topology) {
  cost_model_ = &cost_model;
  fabric_ = &fabric;

  PlanRequest request;
  request.batch = &batch;
  request.cost_model = &cost_model;
  request.fabric = &fabric;
  request.options = options_.planning;
  request.stream_id = options_.stream_id;
  request.delta = &delta;
  request.topology = topology;
  PlanResponse response = service().Plan(request);
  ZCHECK(response.status == PlanStatus::kOk) << "plan request rejected: " << response.error;
  current_plan_ = std::move(response.plan);
  last_stats_ = response.stats;
  last_delta_outcome_ = response.stats.delta_outcome;

  FinishPlanning(cost_model, fabric);
}

void ZeppelinStrategy::AdoptPlan(std::shared_ptr<const PartitionPlan> plan,
                                 const CostModel& cost_model, const FabricResources& fabric) {
  ZCHECK(plan != nullptr) << "AdoptPlan requires a plan";
  ZCHECK_EQ(static_cast<int>(plan->tokens_per_rank.size()), fabric.cluster().world_size())
      << "adopted plan's rank layout does not match the cluster";
  cost_model_ = &cost_model;
  fabric_ = &fabric;
  service().InvalidateSession(options_.stream_id);
  current_plan_ = std::move(plan);
  // Uniform PlanStats fill (docs/SERVICE_API.md, "PlanStats validity"):
  // adopted plans report a real engine tag, the capacity actually implied by
  // the adopted layout when none was configured, and the live session count,
  // instead of the all-zero struct this path used to leave behind.
  last_stats_ = PlanStats{};
  last_stats_.engine = PlanEngine::kAdopted;
  last_stats_.token_capacity = options_.planning.token_capacity;
  if (last_stats_.token_capacity == 0) {
    for (int64_t tokens : current_plan_->tokens_per_rank) {
      last_stats_.token_capacity = std::max(last_stats_.token_capacity, tokens);
    }
  }
  last_stats_.session_count = service().session_count();
  FinishPlanning(cost_model, fabric);
}

std::optional<DeltaStats> ZeppelinStrategy::delta_stats() const {
  PlannerService* svc = options_.service ? options_.service.get() : owned_service_.get();
  DeltaStats stats;
  if (svc == nullptr || !svc->GetSessionStats(options_.stream_id, &stats)) {
    return std::nullopt;
  }
  return stats;
}

void ZeppelinStrategy::FinishPlanning(const CostModel& cost_model, const FabricResources& fabric) {
  const int world = fabric.cluster().world_size();
  routing_.emplace(fabric, options_.routing);
  engine_.emplace(cost_model, fabric, *routing_, options_.engine);
  remapping_.emplace(cost_model, fabric, options_.remapping);

  const PartitionPlan& plan = *current_plan_;
  if (options_.remapping.enabled) {
    remapping_->Plan(plan.tokens_per_rank, &remap_scratch_, &remap_solution_);
  } else {
    remap_solution_ = RemapSolution{};
    remap_solution_.transfer.assign(world, std::vector<int64_t>(world, 0));
  }
  linear_tokens_ = plan.tokens_per_rank;
  if (options_.remapping.enabled) {
    for (int i = 0; i < world; ++i) {
      for (int j = 0; j < world; ++j) {
        const int64_t moved = remap_solution_.transfer[i][j];
        linear_tokens_[i] -= moved;
        linear_tokens_[j] += moved;
      }
    }
  }
}

std::vector<TaskId> ZeppelinStrategy::EmitLayer(TaskGraph& graph, Direction direction) {
  ZCHECK(cost_model_ != nullptr) << "Plan() must run before EmitLayer()";
  ZCHECK(current_plan_ != nullptr) << "Plan() must run before EmitLayer()";
  const GraphSize bound = LayerBound(direction);
  graph.Reserve(bound.tasks, bound.deps, bound.resources);
  // Each stage's per-rank done tasks gate the next stage, one task per rank.
  auto after = [](const std::vector<TaskId>& done) { return RankDeps::OnePerRank(done); };

  if (direction == Direction::kForward) {
    // attention -> remap to balanced -> linear modules -> remap back.
    const std::vector<TaskId> attn_done = engine_->Emit(graph, *current_plan_, direction, {}, "fwd");
    const RemappingLayer::EmitResult remap_in =
        remapping_->Emit(graph, current_plan_->tokens_per_rank, remap_solution_,
                         /*inverse=*/false, after(attn_done), "fwd.remap_in");
    const std::vector<TaskId> linear_done =
        EmitLinearStage(graph, *cost_model_, *fabric_, remap_in.new_tokens, direction,
                        after(remap_in.done), "fwd");
    const RemappingLayer::EmitResult remap_out =
        remapping_->Emit(graph, remap_in.new_tokens, remap_solution_, /*inverse=*/true,
                         after(linear_done), "fwd.remap_out");
    return remap_out.done;
  }

  // Backward mirrors the forward dataflow in reverse: gradients arrive in the
  // attention layout, get remapped to the balanced layout for the linear
  // backward, and return to the attention layout for the attention backward.
  const RemappingLayer::EmitResult remap_in = remapping_->Emit(
      graph, current_plan_->tokens_per_rank, remap_solution_, /*inverse=*/false, {}, "bwd.remap_in");
  const std::vector<TaskId> linear_done =
      EmitLinearStage(graph, *cost_model_, *fabric_, remap_in.new_tokens, direction,
                      after(remap_in.done), "bwd");
  const RemappingLayer::EmitResult remap_out = remapping_->Emit(
      graph, remap_in.new_tokens, remap_solution_, /*inverse=*/true, after(linear_done),
      "bwd.remap_out");
  return engine_->Emit(graph, *current_plan_, direction, after(remap_out.done), "bwd");
}

GraphSize ZeppelinStrategy::LayerBound(Direction direction) const {
  ZCHECK(current_plan_ != nullptr) << "Plan() must run before LayerBound()";
  const int64_t world = fabric_->cluster().world_size();
  // Attention is gated by nothing in forward and by one task per rank in
  // backward; each remap and the linear stage by at most one task per rank.
  GraphSize size =
      engine_->EmitBound(*current_plan_, direction, direction == Direction::kForward ? 0 : 1);
  size += remapping_->EmitBound(remap_solution_, 1) * 2;
  size += GraphSize{world, world, world};  // One linear compute per rank.
  return size;
}

std::vector<int64_t> ZeppelinStrategy::LinearTokensPerRank() const { return linear_tokens_; }

}  // namespace zeppelin
