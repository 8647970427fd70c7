// VerifyPlan: the independent plan certifier (docs/PLAN_CACHE.md,
// "Certification contract").
//
// Every expensive plan computation ships with a cheap certificate: before a
// plan from an untrusted or indirect source — the plan cache, a plan_io
// file, a daemon response on the wire — reaches execution, VerifyPlan
// re-checks the full validity contract in O(plan) without re-planning. Every
// clause below is judged against the batch, the fabric, and the plan's own
// declared layout, so no second plan is ever computed. It is the repo's one
// plan certifier: CheckDeltaEquivalence (src/core/delta_planner.h) runs it on
// a patched plan and its replan twin and adds only the relational clauses a
// pair of plans can state (s1 and z2 ring-set identity, max-load ratio).
//
// Clauses, in check order (the first violated clause is the typed verdict):
//
//   1. Well-formedness: non-negative lengths and loads, no empty rings, a
//      non-empty rank universe that matches the caller's world when given.
//   2. Arena validity: every ring header's span lies inside the rank arena
//      and live spans are pairwise disjoint (slack from delta-patched plans
//      is legal; overlap never is).
//   3. Rank validity: every referenced rank is inside [0, world), and — when
//      a RankTopology is given — alive. Dead ranks must declare zero load.
//   4. Coverage: with a batch, every batch slot is covered exactly once and
//      every entry's length equals the batch's. Without a batch (structural
//      mode, e.g. a plan file loaded with no workload context), the entries
//      must cover exactly the implied universe [0, max_seq_id] once each.
//   5. Token conservation: the declared per-rank loads sum to the batch
//      total (or the entry total in structural mode), and no rank declares
//      load without any entry touching it.
//   6. Capacity: when `token_capacity` > 0, no rank's raw load exceeds it.
//   7. Eps max-load bound: when `eps` >= 0, the maximum (speed-normalized)
//      rank load may not exceed (1 + eps) * ideal + unit, where ideal is the
//      perfectly balanced speed-weighted load and unit is the largest
//      indivisible per-rank share any placement of this batch must grant (a
//      local's whole length, a ring's per-position chunk pair). Every greedy
//      engine in the repo satisfies this bound by construction (the classic
//      list-scheduling guarantee max <= avg + max_item sits inside it), so a
//      violation means the declared loads do not come from a balanced plan.
//
// What the certificate cannot see: per-rank load accounting that moves
// tokens between two ranks both legitimately touched by entries (the sum
// and touch sets are unchanged). Clauses 6 and 7 bound the damage of
// exactly that mutation, which is why they are part of the contract.
#ifndef SRC_CORE_PLAN_VERIFY_H_
#define SRC_CORE_PLAN_VERIFY_H_

#include <cstdint>
#include <string>

#include "src/core/partitioner.h"
#include "src/data/sampler.h"
#include "src/data/stream.h"
#include "src/topology/path.h"

namespace zeppelin {

// Typed rejection reasons, one per clause. Values are stable (telemetry).
enum class PlanVerifyStatus : uint8_t {
  kOk = 0,
  kMalformed,         // Negative length/load, empty ring, world mismatch.
  kArenaBounds,       // Ring span outside the rank arena.
  kArenaOverlap,      // Two live ring spans share an arena slot.
  kRankRange,         // Referenced rank outside [0, world).
  kDeadRank,          // Work placed on (or declared for) a dead rank.
  kCoverage,          // Sequence missing, duplicated, or out of universe.
  kLengthMismatch,    // Entry length disagrees with the batch.
  kTokenMismatch,     // Declared loads break conservation or touch nothing.
  kCapacityOverflow,  // A rank's raw load exceeds token_capacity.
  kEpsImbalance,      // Max effective load above the (1+eps) certificate.
};

const char* PlanVerifyStatusName(PlanVerifyStatus status);

struct PlanVerifyOptions {
  // > 0: per-rank raw-load ceiling (clause 6); 0 skips the clause.
  int64_t token_capacity = 0;
  // >= 0: slack of the balance certificate (clause 7); negative skips the
  // clause. 0.25 mirrors the service's capacity-derivation headroom.
  double eps = 0.25;
  // > 0: required rank-universe size; 0 accepts the plan's own universe.
  int world = 0;
};

struct PlanVerifyResult {
  PlanVerifyStatus status = PlanVerifyStatus::kOk;
  std::string message;  // Human-readable detail; empty on success.
  // Diagnostic: max effective rank load / balanced ideal (0 when the balance
  // clause never ran).
  double max_load_ratio = 0;

  bool ok() const { return status == PlanVerifyStatus::kOk; }
};

// Certifies `plan` in O(plan). `batch` null = structural mode (clause 4's
// implied universe); `topology` null = homogeneous all-alive fabric.
PlanVerifyResult VerifyPlan(const PartitionPlan& plan, const Batch* batch,
                            const RankTopology* topology,
                            const PlanVerifyOptions& options = {});

// Service-path convenience: world from the fabric's cluster, on the
// homogeneous all-alive fabric.
PlanVerifyResult VerifyPlan(const PartitionPlan& plan, const Batch& batch,
                            const FabricResources& fabric,
                            const PlanVerifyOptions& options = {});

}  // namespace zeppelin

#endif  // SRC_CORE_PLAN_VERIFY_H_
