// ZeppelinStrategy: the paper's system (§3), assembled from the four core
// components — sequence partitioner, attention engine, communication routing
// layer, and remapping layer. Every component can be toggled independently,
// which is how the ablation study (Fig. 11) is reproduced.
//
// Since the PlannerService redesign the strategy is a *thin adapter* over the
// service (src/core/plan_service.h): Plan() issues a stateless request,
// PlanDelta() a session request on `ZeppelinOptions::stream_id`, and the
// partition plan is held as an immutable std::shared_ptr<const PartitionPlan>
// handle — the strategy keeps no mutable planning state of its own beyond
// the routing/engine/remapping layers it emits through. Several strategies
// can share one service (and thus one session table) via
// ZeppelinOptions::service.
#ifndef SRC_CORE_ZEPPELIN_H_
#define SRC_CORE_ZEPPELIN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/attention_engine.h"
#include "src/core/delta_planner.h"
#include "src/core/partitioner.h"
#include "src/core/plan_service.h"
#include "src/core/remapping.h"
#include "src/core/routing.h"
#include "src/core/strategy.h"
#include "src/core/zones.h"

namespace zeppelin {

struct ZeppelinOptions {
  // §3.1: what every Plan()/PlanDelta() request carries to the service —
  // token capacity, zone-aware thresholds (design ablation D6) and the
  // streaming fallback knob (see PlanningOptions).
  PlanningOptions planning;

  RoutingOptions routing;        // §3.3; disable for the Fig. 11 "w/o routing" bar.
  RemappingOptions remapping;    // §3.4; disable for "w/o remap".
  AttentionEngineOptions engine; // §3.2; chunking / queue-order ablations.

  // Session key for PlanDelta() on the planner service. Strategies sharing a
  // service must use distinct stream ids or they will share (and fight over)
  // one delta session.
  std::string stream_id = "default";

  // Planner service to plan through. Null = the strategy lazily creates a
  // private service. Supplying a shared service lets many strategies/streams
  // plan through one session table (see docs/SERVICE_API.md).
  std::shared_ptr<PlannerService> service;

  // Deterministic fault injection (docs/ELASTIC.md). The strategy never runs
  // the injector itself — drivers (zeppelin_cli's stream mode) construct one
  // FaultStream per strategy from these knobs and feed the resulting
  // TopologyDeltas through PlanDelta(). Inline spec form
  // `+faults=RATE[@SEED]`; a spec value wins over the driver's flags.
  double fault_rate = 0.0;   // expected rank kills per iteration / world.
  uint64_t fault_seed = 0;   // 0 = derive from the driver's workload seed.
};

class ZeppelinStrategy : public Strategy {
 public:
  explicit ZeppelinStrategy(ZeppelinOptions options = {});

  // Strategy name with the active ablation toggles appended (Fig. 11 bars).
  std::string name() const override;
  // Runs the per-iteration planning pipeline: stateless PlannerService
  // request (capacity derivation -> partitioner engine per options) ->
  // remapping solve. Invalidates the strategy's delta session, so the next
  // PlanDelta() re-establishes its base with a fresh full partition.
  void Plan(const Batch& batch, const CostModel& cost_model,
            const FabricResources& fabric) override;
  // Streaming form: a session request on `options.stream_id` — the service
  // patches the previous plan through the delta-planning subsystem instead
  // of re-partitioning all S sequences, falling back to a full re-plan per
  // the planning.delta_replan_threshold policy. The first call (or any call
  // after Plan()) establishes the base plan with a full partition; the token
  // capacity is pinned at the base plan and auto-raised only when the batch
  // outgrows it. `topology` (null = unchanged fabric) carries rank
  // kills/restores/slowdowns: the session migrates work off dead ranks and
  // rebalances by effective load, falling back to a full elastic re-plan per
  // the migration-budget policy (docs/ELASTIC.md).
  using Strategy::PlanDelta;
  void PlanDelta(const Batch& batch, const BatchDelta& delta, const CostModel& cost_model,
                 const FabricResources& fabric, const TopologyDelta* topology) override;
  // Emits one transformer layer for the planned batch into `graph`:
  // attention queues + remap + linear stage (mirrored in backward). Plan(),
  // PlanDelta(), or AdoptPlan() must have run first.
  std::vector<TaskId> EmitLayer(TaskGraph& graph, Direction direction) override;
  // Upper bound on what EmitLayer adds for the planned batch; EmitLayer
  // reserves it up front so no column of the graph regrows mid-emit.
  GraphSize LayerBound(Direction direction) const;
  // Post-remap token layout the linear modules see (balanced if remapping on).
  std::vector<int64_t> LinearTokensPerRank() const override;

  // Adopts an externally produced plan — typically one deserialized from the
  // wire format (plan_io.h, `zeppelin_cli --plan_in`) or shared from another
  // process' PlannerService — and rebuilds the routing/engine/remapping
  // layers for it, without re-planning. After this call EmitLayer() executes
  // `plan` exactly; the strategy's delta session is invalidated.
  void AdoptPlan(std::shared_ptr<const PartitionPlan> plan, const CostModel& cost_model,
                 const FabricResources& fabric);

  // Immutable handle to the current plan (null before the first planning
  // call). Stays valid across later Plan()/PlanDelta() calls.
  std::shared_ptr<const PartitionPlan> plan_handle() const override { return current_plan_; }

  // Planning artefacts (for tests, benches, and the Table 3 case study).
  // After PlanDelta() this is the session's patched plan; after Plan() the
  // full-partition plan. Requires a prior planning call.
  const PartitionPlan& partition_plan() const;
  const RemapSolution& remap_solution() const { return remap_solution_; }
  // Wall time of the sequence-partitioning step in the last Plan()/
  // PlanDelta() call — for PlanDelta, the patch (or fallback re-plan) time.
  double partition_time_us() const { return last_stats_.partition_time_us; }
  // Full service-side telemetry of the last planning call (engine used,
  // partition/materialize split, fallback reason, capacity).
  const PlanStats& last_plan_stats() const { return last_stats_; }
  // Delta-planning telemetry (valid after the first PlanDelta() call;
  // nullopt before, or after the session was closed).
  std::optional<DeltaStats> delta_stats() const;
  DeltaOutcome last_delta_outcome() const { return last_delta_outcome_; }

  const ZeppelinOptions& options() const { return options_; }
  // The service this strategy plans through (shared or private; created on
  // first use for private instances).
  PlannerService& service();

 private:
  // Shared tail of Plan()/PlanDelta()/AdoptPlan(): routing/engine/remapping
  // (re)build, remap solve on the current plan, and the linear-stage layout.
  void FinishPlanning(const CostModel& cost_model, const FabricResources& fabric);

  ZeppelinOptions options_;
  const CostModel* cost_model_ = nullptr;
  const FabricResources* fabric_ = nullptr;

  // Lazily created when options_.service is null.
  std::shared_ptr<PlannerService> owned_service_;

  std::shared_ptr<const PartitionPlan> current_plan_;
  PlanStats last_stats_;
  DeltaOutcome last_delta_outcome_ = DeltaOutcome::kRebasedNoBase;

  RemapSolution remap_solution_;
  std::vector<int64_t> linear_tokens_;
  RemapScratch remap_scratch_;

  std::optional<RoutingLayer> routing_;
  std::optional<AttentionEngine> engine_;
  std::optional<RemappingLayer> remapping_;
};

}  // namespace zeppelin

#endif  // SRC_CORE_ZEPPELIN_H_
