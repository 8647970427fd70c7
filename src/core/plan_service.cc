#include "src/core/plan_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/common/check.h"
#include "src/core/partitioner_internal.h"
#include "src/model/memory.h"

namespace zeppelin {

namespace {

using Clock = std::chrono::steady_clock;

static_assert(kMaxPlanSeqs == planner_internal::kIdxMask + 1);
static_assert(kMaxPlanSeqLen == planner_internal::kLenMask);

double ElapsedUs(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

}  // namespace

const char* PlanEngineName(PlanEngine engine) {
  switch (engine) {
    case PlanEngine::kParallelSharded:
      return "parallel-sharded";
    case PlanEngine::kDeltaPatch:
      return "delta-patch";
    case PlanEngine::kGlobalRing:
      return "global-ring";
    case PlanEngine::kAdopted:
      return "adopted";
  }
  return "unknown";
}

PlanStatus CheckPlanRequest(const PlanRequest& request, int world, std::string* why) {
  const Batch& batch = *request.batch;
  if (batch.size() == 0) {
    *why = "empty batch";
    return PlanStatus::kBadRequest;
  }
  if (static_cast<int64_t>(batch.seq_lens.size()) > kMaxPlanSeqs) {
    *why = "batch exceeds the sequence-count cap";
    return PlanStatus::kBadRequest;
  }
  // Unsigned, so a hostile batch cannot overflow the sum. A negative length
  // sets the top bit of `bits`, an oversized one a bit above kMaxPlanSeqLen;
  // with both ruled out, the count cap bounds `total` below 2^63.
  uint64_t total = 0;
  uint64_t bits = 0;
  for (int64_t len : batch.seq_lens) {  // Branch-free, so it vectorizes.
    total += static_cast<uint64_t>(len);
    bits |= static_cast<uint64_t>(len);
  }
  if (static_cast<int64_t>(bits) < 0) {
    *why = "batch has a negative sequence length";
    return PlanStatus::kBadRequest;
  }
  if (bits > static_cast<uint64_t>(kMaxPlanSeqLen)) {
    *why = "batch has a sequence length above the key-range cap";
    return PlanStatus::kBadRequest;
  }
  if (total == 0) {
    *why = "batch has no tokens (all sequences empty)";
    return PlanStatus::kBadRequest;
  }
  if (total > static_cast<uint64_t>(kMaxPlanTokens)) {
    *why = "batch exceeds the total-token cap";
    return PlanStatus::kBadRequest;
  }
  const double threshold = request.options.delta_replan_threshold;
  if (!std::isfinite(threshold) || threshold < 0) {
    *why = "delta_replan_threshold must be finite and non-negative";
    return PlanStatus::kBadRequest;
  }
  // The partitioner requires total <= world * L.
  if (request.options.token_capacity != 0 &&
      request.options.token_capacity < (static_cast<int64_t>(total) + world - 1) / world) {
    *why = "token_capacity below ceil(total_tokens / world)";
    return PlanStatus::kBadRequest;
  }
  if (request.stream_id.empty()) {
    if (request.delta != nullptr) {
      *why = "batch deltas require a session (non-empty stream id)";
      return PlanStatus::kBadRequest;
    }
  } else if (!request.options.hierarchical_partitioning) {
    *why = "sessions require hierarchical planning";
    return PlanStatus::kBadRequest;
  }
  return PlanStatus::kOk;
}

PlannerService::PlannerService() : plan_pool_(std::make_shared<PlanPool>()) {
  for (int i = 0; i < kNumDeltaOutcomes; ++i) {
    delta_outcomes_[i] = metrics_.GetCounter(
        std::string("delta.") + DeltaOutcomeName(static_cast<DeltaOutcome>(i)));
  }
  for (int i = 0; i < kNumTopologyFallbacks; ++i) {
    topology_fallbacks_[i] = metrics_.GetCounter(
        std::string("delta.topology_fallback.") +
        TopologyFallbackName(static_cast<TopologyFallback>(i)));
  }
}

PlannerService::~PlannerService() = default;

std::shared_ptr<PartitionPlan> PlannerService::AcquirePlan() {
  std::unique_ptr<PartitionPlan> storage;
  {
    std::lock_guard<std::mutex> lock(plan_pool_->mu);
    if (!plan_pool_->free.empty()) {
      storage = std::move(plan_pool_->free.back());
      plan_pool_->free.pop_back();
    }
  }
  if (!storage) {
    storage = std::make_unique<PartitionPlan>();
  }
  // The deleter captures the pool by shared_ptr, so a handle that outlives
  // the service still has somewhere safe to return its storage.
  std::shared_ptr<PlanPool> pool = plan_pool_;
  return std::shared_ptr<PartitionPlan>(storage.release(), [pool](PartitionPlan* plan) {
    std::unique_ptr<PartitionPlan> owned(plan);
    std::lock_guard<std::mutex> lock(pool->mu);
    if (static_cast<int>(pool->free.size()) < kPlanPoolLimit) {
      pool->free.push_back(std::move(owned));
    }
  });
}

int64_t PlannerService::DeriveCapacity(const Batch& batch, const CostModel& cost_model,
                                       const ClusterSpec& spec,
                                       const PlanningOptions& options) const {
  if (options.token_capacity != 0) {
    return options.token_capacity;
  }
  // L is the per-device *memory* capacity (Alg. 1/2 input). The paper's
  // workloads size the batch to nearly fill memory (4k tokens/GPU), so L
  // sits a modest headroom above the batch average, additionally capped by
  // the memory model when it binds.
  const int world = spec.world_size();
  return HeadroomCapacity(batch.total_tokens(), world,
                          TokenCapacity(cost_model.model(), spec, world));
}

ZoneBoundaries PlannerService::CachedZones(const CostModel& cost_model,
                                           const ClusterSpec& spec) {
  // Keyed by the full (model config, TP, cluster) value — everything the
  // classifier's cost probes depend on, so two CostModels that merely share
  // a model name never alias. The Fig. 5 crossover scan is ~10^4 cost-model
  // probes — pure overhead when repeated for an unchanged key.
  std::lock_guard<std::mutex> lock(zones_mu_);
  for (const ZoneCacheEntry& entry : zone_cache_) {
    if (entry.model == cost_model.model() &&
        entry.tensor_parallel == cost_model.tensor_parallel() && entry.cluster == spec) {
      return entry.zones;
    }
  }
  zone_cache_.push_back({cost_model.model(), cost_model.tensor_parallel(), spec,
                         ZoneClassifier(cost_model).Compute()});
  return zone_cache_.back().zones;
}

PlanResponse PlannerService::Plan(const PlanRequest& request) {
  ZCHECK(request.batch != nullptr) << "PlanRequest without a batch";
  ZCHECK(request.cost_model != nullptr) << "PlanRequest without a cost model";
  ZCHECK(request.fabric != nullptr) << "PlanRequest without fabric resources";
  PlanResponse rejected;
  rejected.status =
      CheckPlanRequest(request, request.fabric->cluster().world_size(), &rejected.error);
  if (rejected.status != PlanStatus::kOk) {
    return rejected;
  }
  if (request.stream_id.empty()) {
    return PlanStateless(request);
  }
  return PlanSession(request);
}

PlanResponse PlannerService::PlanStateless(const PlanRequest& request) {
  const Batch& batch = *request.batch;
  const ClusterSpec& spec = request.fabric->cluster();
  const int world = spec.world_size();

  PlanResponse response;
  std::shared_ptr<PartitionPlan> plan = AcquirePlan();

  if (!request.options.hierarchical_partitioning) {
    // Ablation layout: every sequence on one global ring spanning all ranks
    // (the TE CP pattern), so the only Zeppelin component in play downstream
    // is routing.
    const auto start = Clock::now();
    {
      obs::TraceScope plan_span(obs::Stage::kPlan);
      *plan = PartitionPlan{};
      plan->tokens_per_rank.assign(world, 0);
      plan->threshold_s0.assign(spec.num_nodes, 0);
      std::vector<int> all_ranks(world);
      std::iota(all_ranks.begin(), all_ranks.end(), 0);
      for (int id = 0; id < batch.size(); ++id) {
        const int64_t len = batch.seq_lens[id];
        plan->AddRing(plan->inter_node, id, len, Zone::kInterNode, all_ranks);
        for (int r = 0; r < world; ++r) {
          plan->tokens_per_rank[r] += len * (r + 1) / world - len * r / world;
        }
      }
    }
    response.stats.engine = PlanEngine::kGlobalRing;
    response.stats.partition_time_us = ElapsedUs(start);
    response.stats.stage_us[static_cast<int>(obs::Stage::kPlan)] =
        response.stats.partition_time_us;
    response.stats.session_count = session_count();
    response.plan = std::move(plan);
    response.digest = response.plan->StateDigest();
    return response;
  }

  SequencePartitioner::Options popts;
  popts.token_capacity = DeriveCapacity(batch, *request.cost_model, spec, request.options);
  if (request.options.zone_aware_thresholds) {
    const ZoneBoundaries zones = CachedZones(*request.cost_model, spec);
    popts.max_inter_threshold = zones.intra_max;
    popts.max_local_threshold = zones.local_max;
  }

  // Check a reusable workspace out of the free list; concurrent stateless
  // requests each get their own, and steady-state traffic reuses them.
  std::unique_ptr<StatelessCtx> ctx;
  {
    std::lock_guard<std::mutex> lock(stateless_mu_);
    if (!stateless_free_.empty()) {
      ctx = std::move(stateless_free_.back());
      stateless_free_.pop_back();
    }
  }
  if (!ctx) {
    ctx = std::make_unique<StatelessCtx>();
  }
  if (!ctx->partitioner || !(ctx->partitioner->cluster() == spec)) {
    ctx->partitioner.emplace(spec, popts);
  } else {
    ctx->partitioner->set_options(popts);
  }

  const auto start = Clock::now();
  {
    obs::TraceScope plan_span(obs::Stage::kPlan);
    ctx->partitioner->Partition(batch, &ctx->scratch, plan.get());
  }
  response.stats.partition_time_us = ElapsedUs(start);
  response.stats.stage_us[static_cast<int>(obs::Stage::kPlan)] =
      response.stats.partition_time_us;
  response.stats.engine = PlanEngine::kParallelSharded;
  response.stats.token_capacity = popts.token_capacity;
  response.stats.session_count = session_count();

  {
    std::lock_guard<std::mutex> lock(stateless_mu_);
    stateless_free_.push_back(std::move(ctx));
  }

  response.plan = std::move(plan);
  response.digest = response.plan->StateDigest();
  return response;
}

std::shared_ptr<PlannerService::Session> PlannerService::FindOrCreateSession(
    const std::string& stream_id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  std::shared_ptr<Session>& slot = sessions_[stream_id];
  if (!slot) {
    slot = std::make_shared<Session>();
  }
  return slot;
}

std::shared_ptr<PlannerService::Session> PlannerService::FindSession(
    const std::string& stream_id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(stream_id);
  return it == sessions_.end() ? nullptr : it->second;
}

PlanResponse PlannerService::PlanSession(const PlanRequest& request) {
  const Batch& batch = *request.batch;
  const ClusterSpec& spec = request.fabric->cluster();
  PlanResponse response;
  RankTopology all_alive;
  all_alive.Reset(spec.world_size());
  std::shared_ptr<Session> session = FindSession(request.stream_id);
  // A first request that fails its checks must not leave a session behind.
  if (!session && request.topology != nullptr &&
      !CheckTopologyDelta(*request.topology, all_alive, &response.error)) {
    response.status = PlanStatus::kBadDelta;
    return response;
  }
  if (!session) {
    session = FindOrCreateSession(request.stream_id);
  }

  // Requests on the same stream serialize here; distinct streams proceed
  // concurrently.
  std::lock_guard<std::mutex> session_lock(session->mu);

  // Session preconditions, checked against the state this lock guards before
  // anything mutates it. A batch delta is checked only when the session will
  // consume it; without a base the session re-plans from scratch.
  const bool fresh = !session->planner || !(session->planner->cluster() == spec);
  const bool needs_base = fresh || !session->planner->has_base() || request.delta == nullptr;
  {
    obs::TraceScope validate_span(obs::Stage::kValidate);
    if ((request.topology != nullptr &&
         !CheckTopologyDelta(*request.topology,
                             fresh ? all_alive : session->planner->topology(),
                             &response.error)) ||
        (!needs_base &&
         !CheckBatchDelta(*request.delta, session->planner->batch(), batch, &response.error))) {
      response.status = PlanStatus::kBadDelta;
      return response;
    }
  }

  const auto start = Clock::now();
  obs::TraceContext* tctx = obs::CurrentTrace();
  const double plan_start_us = tctx != nullptr ? obs::NowUs() : 0;
  DeltaOutcome outcome = DeltaOutcome::kRebasedNoBase;
  if (needs_base) {
    // (Re)establish the base: capacity pinned from this batch, zone caps
    // from the cached boundaries, and the memory model as the ceiling for
    // automatic capacity raises on later growth.
    DeltaPlannerOptions dopts;
    dopts.token_capacity = DeriveCapacity(batch, *request.cost_model, spec, request.options);
    dopts.capacity_ceiling = TokenCapacity(request.cost_model->model(), spec, spec.world_size());
    if (request.options.zone_aware_thresholds) {
      const ZoneBoundaries zones = CachedZones(*request.cost_model, spec);
      dopts.max_inter_threshold = zones.intra_max;
      dopts.max_local_threshold = zones.local_max;
    }
    dopts.replan_threshold = request.options.delta_replan_threshold;
    if (fresh) {
      session->planner.emplace(spec, dopts);
    } else {
      session->planner->set_options(dopts);
    }
    if (request.topology != nullptr) {
      // The rebase below replans fully anyway; drop the base first so the
      // topology delta only advances the fabric state instead of patching a
      // plan we are about to discard.
      session->planner->Invalidate();
      session->planner->ApplyTopology(*request.topology);
    }
    session->planner->Rebase(batch);
  } else {
    // Fabric churn first (a topology fallback replans against the session's
    // tracked batch), then the batch delta patches on whatever base that
    // left. The reported outcome is the *dominant* one: a topology rebase
    // wins; otherwise a fully-patched iteration with fabric churn reports
    // kAppliedTopology; otherwise the batch outcome stands.
    const bool topo_active = request.topology != nullptr && !request.topology->empty();
    DeltaOutcome topo_outcome = DeltaOutcome::kAppliedTopology;
    if (topo_active) {
      const std::array<int64_t, kNumTopologyFallbacks> before =
          session->planner->stats().topology_fallbacks;
      topo_outcome = session->planner->ApplyTopology(*request.topology);
      for (int i = 0; i < kNumTopologyFallbacks; ++i) {
        topology_fallbacks_[i]->Inc(session->planner->stats().topology_fallbacks[i] - before[i]);
      }
    }
    const DeltaOutcome batch_outcome = session->planner->Apply(*request.delta);
    if (topo_active && topo_outcome != DeltaOutcome::kAppliedTopology) {
      outcome = topo_outcome;
    } else if (topo_active && batch_outcome == DeltaOutcome::kApplied) {
      outcome = DeltaOutcome::kAppliedTopology;
    } else {
      outcome = batch_outcome;
    }
  }
  response.stats.partition_time_us = ElapsedUs(start);
  response.stats.stage_us[static_cast<int>(obs::Stage::kPlan)] =
      response.stats.partition_time_us;
  if (tctx != nullptr) {
    tctx->AddSpan(obs::Stage::kPlan, plan_start_us, response.stats.partition_time_us);
  }
  response.stats.delta_outcome = outcome;
  delta_outcomes_[static_cast<int>(outcome)]->Inc();
  const bool patched = outcome == DeltaOutcome::kApplied ||
                       outcome == DeltaOutcome::kAppliedTopology;
  response.stats.engine = patched ? PlanEngine::kDeltaPatch : PlanEngine::kParallelSharded;
  response.stats.token_capacity = session->planner->token_capacity();
  response.stats.session_count = session_count();

  // Materialize the immutable handle: the session's state keeps evolving
  // with every request, so the response gets its own plan, assembled from
  // the session's z2 prefix and per-node results straight into the pooled
  // handle (a few bulk array copies regardless of ring count).
  const auto copy_start = Clock::now();
  const double copy_start_us = tctx != nullptr ? obs::NowUs() : 0;
  std::shared_ptr<PartitionPlan> plan = AcquirePlan();
  session->planner->AssemblePlan(plan.get());
  response.stats.materialize_time_us = ElapsedUs(copy_start);
  response.stats.stage_us[static_cast<int>(obs::Stage::kMaterialize)] =
      response.stats.materialize_time_us;
  if (tctx != nullptr) {
    tctx->AddSpan(obs::Stage::kMaterialize, copy_start_us,
                  response.stats.materialize_time_us);
  }
  response.plan = std::move(plan);
  response.digest = response.plan->StateDigest();
  return response;
}

bool PlannerService::HasSession(const std::string& stream_id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.count(stream_id) > 0;
}

size_t PlannerService::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

bool PlannerService::CloseSession(const std::string& stream_id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  // In-flight requests that already looked the session up hold their own
  // shared_ptr, so erasing here only unlinks it; the last holder destroys
  // it after releasing its lock.
  return sessions_.erase(stream_id) > 0;
}

template <typename Fn>
bool PlannerService::WithPlannedSession(const std::string& stream_id, Fn&& fn) const {
  const std::shared_ptr<Session> session = FindSession(stream_id);
  if (!session) {
    return false;
  }
  std::lock_guard<std::mutex> session_lock(session->mu);
  if (!session->planner) {
    return false;
  }
  fn(*session);
  return true;
}

void PlannerService::InvalidateSession(const std::string& stream_id) {
  WithPlannedSession(stream_id, [](Session& session) { session.planner->Invalidate(); });
}

bool PlannerService::GetSessionStats(const std::string& stream_id, DeltaStats* out) const {
  ZCHECK(out != nullptr);
  return WithPlannedSession(
      stream_id, [out](const Session& session) { *out = session.planner->stats(); });
}

bool PlannerService::GetSessionTopology(const std::string& stream_id,
                                        RankTopology* out) const {
  ZCHECK(out != nullptr);
  return WithPlannedSession(
      stream_id, [out](const Session& session) { *out = session.planner->topology(); });
}

}  // namespace zeppelin
