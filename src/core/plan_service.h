// PlannerService: the service-oriented planning surface (docs/SERVICE_API.md).
//
// Every planning path in the repo — one-shot full plans, the global-ring
// ablation, and incremental delta streams — is a request/response exchange
// with one PlannerService:
//
//   PlanRequest{batch, cost_model, fabric, options [, stream_id [, delta]]}
//     -> PlanResponse{status, shared_ptr<const PartitionPlan>, PlanStats, digest}
//
// Plans come back as *immutable handles*: a std::shared_ptr<const
// PartitionPlan> whose contents never change after the response is built, so
// callers can cache plans, hand them to other threads, serialize them
// (src/core/plan_io.h), or keep executing an old plan while a new one is
// being computed — none of which the stateful Strategy::Plan() surface
// allowed (one mutable plan per strategy, overwritten in place). Handle
// storage is recycled through an internal pool once the last reference
// drops, so steady-state planning stays allocation-light.
//
// Sessions. A request with a non-empty `stream_id` addresses a *delta
// session*: the service keeps one DeltaPlanner (docs/DELTA_PLANS.md) per
// stream id in a session table, so many concurrent streaming workloads —
// continuous-batching inference queues, parallel online-training shards —
// coexist in one process, each with its own incremental state and fallback
// policy. The first request on a stream (or any request without a `delta`)
// establishes the session's base plan with a full partition; subsequent
// requests carry the BatchDelta and are patched per the delta-planning
// contract. A session's per-iteration plans are deterministic: identical
// delta streams yield identical per-iteration StateDigests.
//
// Concurrency contract (pinned by tests/plan_service_test.cpp, TSAN-clean):
//   - Requests on *distinct* stream ids (and stateless requests) may be
//     issued concurrently from any threads.
//   - Requests on the *same* stream id serialize on the session's lock
//     (callers need no external synchronization, but see the determinism
//     caveat in docs/SERVICE_API.md: interleaving order is the caller's
//     responsibility).
//   - Every plan runs on the requesting thread. Full plans take no
//     service-wide lock: concurrent stateless requests each check out their
//     own workspace, and each session plans under its own lock only.
//   - Returned handles are immune to later requests; they may outlive the
//     service itself.
#ifndef SRC_CORE_PLAN_SERVICE_H_
#define SRC_CORE_PLAN_SERVICE_H_

#include <array>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/core/delta_planner.h"
#include "src/core/partitioner.h"
#include "src/core/plan_io.h"
#include "src/core/zones.h"
#include "src/data/sampler.h"
#include "src/data/stream.h"
#include "src/model/cost_model.h"
#include "src/topology/path.h"

namespace zeppelin {

// Per-request planning knobs (the planning-relevant subset of what used to
// live behind ZeppelinStrategy's private state).
struct PlanningOptions {
  // Token capacity L per device; 0 derives the tight bound from the batch
  // (average + 25% headroom, capped by the memory model) exactly as
  // ZeppelinStrategy always has.
  int64_t token_capacity = 0;
  // false = every sequence on one global ring spanning all ranks (the
  // "routing only" ablation layout).
  bool hierarchical_partitioning = true;
  // Zone-aware threshold initialization (design ablation D6); boundaries are
  // computed once per (model, cluster) and cached inside the service.
  bool zone_aware_thresholds = false;
  // Streaming fallback knob (sessions only): full re-plan above this churn
  // fraction or imbalance drift (DeltaPlannerOptions::replan_threshold).
  double delta_replan_threshold = 0.05;
};

// One planning request. `batch`, `cost_model`, and `fabric` are borrowed for
// the duration of the call only.
struct PlanRequest {
  const Batch* batch = nullptr;
  const CostModel* cost_model = nullptr;
  const FabricResources* fabric = nullptr;
  PlanningOptions options;
  // Empty = stateless one-shot plan. Non-empty = the delta session to plan
  // through (created on first use).
  std::string stream_id;
  // Sessions only: the delta between the previously planned batch and
  // `batch` (already applied — `batch` is the new batch). Null forces a full
  // re-plan that (re)bases the session on `batch`.
  const BatchDelta* delta = nullptr;
  // Sessions only: fabric churn since the previous request on this stream
  // (rank kills/restores/slowdowns), applied to the session's topology state
  // *before* the batch delta. The fabric state advances even when the plan
  // cannot be patched incrementally. Stateless requests ignore this field.
  const TopologyDelta* topology = nullptr;
};

// The outcome of a plan request. Rejections leave every session untouched.
enum class PlanStatus : uint8_t {
  kOk = 0,
  kBadRequest,  // Violates a request-only rule (see CheckPlanRequest).
  kBadDelta,    // A session's batch or topology delta does not fit its state.
};

// The batch shapes a plan request may carry: the planner's packed sequence
// keys hold a 20-bit sequence id and a 43-bit length, and the total-token
// cap keeps every downstream product (speed-quantized effective loads,
// node-capacity sums) inside int64.
inline constexpr int64_t kMaxPlanSeqs = int64_t{1} << 20;
inline constexpr int64_t kMaxPlanSeqLen = (int64_t{1} << 43) - 1;
inline constexpr int64_t kMaxPlanTokens = int64_t{1} << 47;

// The request-only preconditions of PlannerService::Plan, none of which need
// session state: a non-empty batch of at most kMaxPlanSeqs sequences, with
// tokens, no negative length, no length above kMaxPlanSeqLen and at most
// kMaxPlanTokens in total; a finite non-negative delta_replan_threshold; an
// explicit token_capacity of at least ceil(total_tokens / world); a batch
// delta only on a session; and sessions only with hierarchical planning.
// kOk, or kBadRequest with `*why` set. `request.batch` must be non-null.
PlanStatus CheckPlanRequest(const PlanRequest& request, int world, std::string* why);

// Which engine produced the response's plan. The values travel on the wire
// (docs/DAEMON.md); 0 and 1 once named the naive and serial engines, which
// the service no longer runs, and are never reused.
enum class PlanEngine : uint8_t {
  kParallelSharded = 2,  // Full (re)plan by the sharded engine; on a
                         //   degraded session fabric, its elastic re-plan.
  kDeltaPatch,       // Session request patched incrementally.
  kGlobalRing,       // hierarchical_partitioning = false ablation layout.
  kAdopted,          // Externally produced plan adopted without planning
                     //   (ZeppelinStrategy::AdoptPlan, zeppelin_cli --plan_in).
};

const char* PlanEngineName(PlanEngine engine);

// How the plan-cache front end (src/core/plan_cache.h) handled the request.
// kBypass also covers the no-cache path (direct PlannerService calls).
enum class CacheOutcome : uint8_t {
  kBypass = 0,  // Session/delta request, or no cache in front.
  kMiss,        // Full plan computed and inserted.
  kHit,         // Served from the cache (zero planning work).
};

struct PlanStats {
  PlanEngine engine = PlanEngine::kParallelSharded;
  // Wall time of the partitioning step alone (Partition / Apply / Rebase) —
  // the same quantity ZeppelinStrategy::partition_time_us always reported.
  double partition_time_us = 0;
  // Wall time spent materializing the immutable handle: zero when the
  // engine emits straight into the response plan (full plans), the O(plan)
  // assembly of the session's per-node results for session requests.
  double materialize_time_us = 0;
  // Sessions: why the request patched or fell back (kApplied = patched).
  // Stateless requests report kRebasedNoBase (not meaningful).
  DeltaOutcome delta_outcome = DeltaOutcome::kRebasedNoBase;
  // The capacity the plan was computed at (after derivation / auto-raise).
  int64_t token_capacity = 0;
  // Open delta sessions at response time — the daemon-leak telemetry a
  // long-running service watches to confirm CloseSession keeps up with
  // stream churn.
  size_t session_count = 0;
  // Cache disposition of this response (kBypass when no cache is involved).
  CacheOutcome cache_outcome = CacheOutcome::kBypass;
  // True when this plan passed VerifyPlan before being served. False means
  // the certifier did not run (no cache in front) or failed (the cache then
  // neither encodes nor stores the plan; the daemon refuses to serve it).
  bool verified = false;
  // Per-request stage latency breakdown (µs), indexed by obs::Stage. The
  // service fills kPlan/kMaterialize; the daemon overlays its own measured
  // stages (queue wait, decode, validate, cache lookup, verify, encode) on
  // the planned path. Cache-hit repeats carry all-zero stage_us — the
  // byte-identity contract — and kWrite is never in its own response (the
  // socket write happens after encoding); both reach the daemon's histograms
  // and --trace_out instead. See docs/OBSERVABILITY.md, "Span taxonomy".
  std::array<double, obs::kNumStages> stage_us{};
};

struct PlanResponse {
  // Anything but kOk: `plan` is null and `error` says why.
  PlanStatus status = PlanStatus::kOk;
  std::string error;
  std::shared_ptr<const PartitionPlan> plan;
  PlanStats stats;
  // plan->StateDigest(): the per-response determinism/equivalence currency
  // (twin streams must produce identical digest sequences) and the value
  // the wire format's trailer authenticates.
  uint64_t digest = 0;
  // The plan's certified SerializePlan image, with `digest` as its trailer,
  // when a PlanCache certified or served this response (empty otherwise):
  // the bytes the daemon sends. A miss shares it with the stored entry; on a
  // PlanCache::TryServe hit it is the whole answer and `plan` is null.
  PlanImage image;
};

// The planning service. Thread-safe per the concurrency contract above.
class PlannerService {
 public:
  // Immutable-plan storage recycled through the internal pool; handles
  // released beyond this many free normally.
  static constexpr int kPlanPoolLimit = 16;

  PlannerService();
  ~PlannerService();

  PlannerService(const PlannerService&) = delete;
  PlannerService& operator=(const PlannerService&) = delete;

  // Plans one request, or rejects it with a typed status: CheckPlanRequest
  // first, then, under the session's lock, the topology delta against the
  // session's fabric state (CheckTopologyDelta) and a batch delta the session
  // will consume against its tracked batch (CheckBatchDelta -> kBadDelta).
  // Only null batch/cost_model/fabric pointers abort (ZCHECK): those are
  // programming errors, not bad input.
  PlanResponse Plan(const PlanRequest& request);

  // --- Session management ----------------------------------------------------

  bool HasSession(const std::string& stream_id) const;
  size_t session_count() const;
  // Drops a session and its incremental state entirely. Returns false if the
  // stream id names no session. Plans already handed out stay valid.
  bool CloseSession(const std::string& stream_id);
  // Keeps the session but drops its base plan, forcing the next request on
  // the stream to re-plan fully (kRebasedNoBase) — the "external planning
  // bypassed this stream" hook.
  void InvalidateSession(const std::string& stream_id);
  // Copies the session's cumulative delta telemetry into `*out`. Returns
  // false if the stream id names no session.
  bool GetSessionStats(const std::string& stream_id, DeltaStats* out) const;
  // Copies the session's fabric state into `*out`. Returns false if the
  // stream id names no session or the session has not planned yet.
  bool GetSessionTopology(const std::string& stream_id, RankTopology* out) const;

  // The serving stack's one metrics registry (docs/OBSERVABILITY.md). The
  // service counts every session response as delta.<DeltaOutcomeName>; the
  // layers that borrow the service (PlanCache, PlannerDaemon) register their
  // own instruments here, so one Snapshot() covers the whole stack.
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  // One delta stream's state. `mu` serializes requests on the same stream;
  // everything inside is owned by whoever holds `mu`.
  struct Session {
    std::mutex mu;
    std::optional<DeltaPlanner> planner;
  };

  // Reusable workspace for stateless full plans: checked out of a free list
  // per request, so concurrent stateless requests never share scratch while
  // steady-state traffic stays allocation-free.
  struct StatelessCtx {
    std::optional<SequencePartitioner> partitioner;
    PlannerScratch scratch;
  };

  // Storage pool behind the immutable handles. Shared with every handle's
  // deleter so handles may outlive the service.
  struct PlanPool {
    std::mutex mu;
    std::vector<std::unique_ptr<PartitionPlan>> free;
  };

  // Cache key is everything a ZoneClassifier's output depends on: the full
  // model config by value (a name alone is not identity — custom configs
  // may reuse one), the TP degree, and the cluster.
  struct ZoneCacheEntry {
    TransformerConfig model;
    int tensor_parallel = 1;
    ClusterSpec cluster;
    ZoneBoundaries zones;
  };

  // A mutable plan wired to return its storage to plan_pool_ when the last
  // handle drops.
  std::shared_ptr<PartitionPlan> AcquirePlan();

  // Looks up a session, extending its lifetime past any concurrent
  // CloseSession (callers copy the shared_ptr under sessions_mu_, then lock
  // the session's own mutex — never a raw pointer across the gap).
  std::shared_ptr<Session> FindSession(const std::string& stream_id) const;
  // Runs `fn(session)` under the session's lock if `stream_id` names a
  // session that has planned; false otherwise.
  template <typename Fn>
  bool WithPlannedSession(const std::string& stream_id, Fn&& fn) const;

  PlanResponse PlanStateless(const PlanRequest& request);
  PlanResponse PlanSession(const PlanRequest& request);

  // Capacity derivation (ZeppelinStrategy's historical policy): explicit
  // option, or batch average + 25% headroom capped by the memory model.
  int64_t DeriveCapacity(const Batch& batch, const CostModel& cost_model,
                         const ClusterSpec& spec, const PlanningOptions& options) const;
  ZoneBoundaries CachedZones(const CostModel& cost_model, const ClusterSpec& spec);
  std::shared_ptr<Session> FindOrCreateSession(const std::string& stream_id);

  // Declared first: instruments handed out from it must outlive every
  // member (and every borrowing layer) that holds a pointer into it.
  obs::MetricsRegistry metrics_;
  // One counter per DeltaOutcome, indexed by it.
  std::array<obs::Counter*, kNumDeltaOutcomes> delta_outcomes_{};
  // delta.topology_fallback.*: each session's kRebasedTopology by cause.
  std::array<obs::Counter*, kNumTopologyFallbacks> topology_fallbacks_{};

  mutable std::mutex sessions_mu_;
  // shared_ptr values: a session stays alive for any request that looked it
  // up even if CloseSession erases it concurrently (see FindSession).
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;

  std::mutex stateless_mu_;
  std::vector<std::unique_ptr<StatelessCtx>> stateless_free_;

  std::mutex zones_mu_;
  std::vector<ZoneCacheEntry> zone_cache_;

  std::shared_ptr<PlanPool> plan_pool_;
};

}  // namespace zeppelin

#endif  // SRC_CORE_PLAN_SERVICE_H_
