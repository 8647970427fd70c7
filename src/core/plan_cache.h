// PlanCache: the content-addressed plan cache in front of PlannerService
// (docs/PLAN_CACHE.md).
//
// At production traffic most plan requests repeat — same cost model, same
// fabric, same length histogram — yet every request pays the full decision
// kernel. The cache keys each stateless request by
//
//   (cost-model digest, fabric digest, canonicalized batch signature,
//    planning-option signature)
//
// and serves repeats straight from a bounded LRU of immutable plan handles
// (shareable by design, so a hit is zero-copy when the request's slot order
// matches the cached batch, and an O(plan) seq-id remap when the batch is a
// permutation of it — the canonical signature is order- and
// renaming-invariant, see docs/PLAN_CACHE.md "Key derivation"). A miss is a
// plain PlannerService::Plan call, so the plan a request gets never depends
// on earlier traffic.
//
// Certification: every plan the cache serves — hit or miss — passes
// VerifyPlan (plan_verify.h) before it is returned. A cached entry that
// fails (e.g. poisoned storage) is dropped and replanned, never served; a
// freshly planned failure is served with stats.verified == false so the
// caller can apply policy (the daemon turns it into a typed kInternal). A
// request the service rejects (PlanResponse::status) passes through
// unverified and uncached.
//
// Thread safety: all public methods are safe to call concurrently. The LRU
// index is guarded by one mutex held only for O(1)/O(size) bookkeeping;
// planning, verification, and counting (lock-free registry counters) run
// outside it.
#ifndef SRC_CORE_PLAN_CACHE_H_
#define SRC_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/core/plan_service.h"
#include "src/core/plan_verify.h"

namespace zeppelin {

// Balance slack the cache certifies every plan at (PlanVerifyOptions::eps).
inline constexpr double kPlanCacheVerifyEps = 0.25;

struct PlanCacheOptions {
  // Entries resident at once (LRU beyond it).
  size_t capacity = 128;
};

// Monotonic counts of the cache.* counters in the service's registry
// (PlannerService::metrics()). They are per service: every PlanCache over
// one service counts into the same five counters.
struct PlanCacheCounters {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;  // Entries displaced by the LRU.
  uint64_t bypasses = 0;   // Session/delta requests passed straight through.
  uint64_t verify_failures = 0;
};

// The content address of a stateless plan request. Two requests with equal
// keys are served by the same plan (up to a seq-id remap).
struct PlanCacheKey {
  uint64_t cost_digest = 0;    // Model config + tensor parallelism.
  uint64_t fabric_digest = 0;  // Cluster spec + per-rank speed factors.
  uint64_t batch_sig = 0;      // Canonical (order-invariant) length multiset.
  uint64_t options_sig = 0;    // Plan-shape options (capacity, layout knobs).

  bool operator==(const PlanCacheKey&) const = default;
};

// --- Key derivation (exposed for the canonicalization property tests) -------

// Invariant to sequence order and slot renaming; sensitive to any length
// change (the multiset of lengths, not their arrangement).
uint64_t CanonicalBatchSignature(const Batch& batch);
// The full key for a request (ZCHECKs batch/cost_model/fabric non-null).
PlanCacheKey ComputePlanCacheKey(const PlanRequest& request);

class PlanCache {
 public:
  // `service` is borrowed and must outlive the cache.
  explicit PlanCache(PlannerService* service, PlanCacheOptions options = {});

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // The cache-aware front door: TryServe, else PlanAndInsert. Session/delta
  // requests bypass the cache entirely (kBypass).
  PlanResponse Plan(const PlanRequest& request);

  // Lookup-only: a verified response on a hit (exact or remapped), nullopt
  // on miss, bypass, or a poisoned entry (which is dropped). Lets callers
  // with their own admission control (the daemon) serve hits without a
  // planning permit.
  std::optional<PlanResponse> TryServe(const PlanRequest& request);

  // Plans through the service and inserts the result into the cache.
  PlanResponse PlanAndInsert(const PlanRequest& request);

  // A read-only view of the service's cache.* counters.
  PlanCacheCounters counters() const;
  size_t size() const;

  // Test hook: corrupts the cached plan stored under `request`'s key (drops
  // one ring header), so verify-before-serve paths can be exercised. Returns
  // false when the key has no entry.
  bool PoisonEntryForTest(const PlanRequest& request);

  // Test hook: moves the entry stored under `from`'s key to `to`'s key,
  // simulating a batch-signature collision (two different multisets behind
  // one key). Any entry already at `to`'s key is dropped. Returns false
  // when `from`'s key has no entry.
  bool RekeyEntryForTest(const PlanRequest& from, const PlanRequest& to);

 private:
  struct KeyHash {
    size_t operator()(const PlanCacheKey& key) const;
  };
  struct Entry {
    PlanCacheKey key;
    std::vector<int64_t> seq_lens;  // The exact batch the plan covers.
    std::shared_ptr<const PartitionPlan> plan;
    PlanStats stats;    // Engine/capacity of the producing plan call.
    uint64_t digest = 0;    // StateDigest recorded when the plan was certified.
    uint8_t remap_streak = 0;  // Consecutive serves that needed the remap tier.
  };

  bool Cacheable(const PlanRequest& request) const;
  // Rebuilds `plan` with seq ids remapped from the cached slot order
  // (`cached_lens`) to the request's. Null on a signature collision (the
  // length multisets differ despite the equal key).
  std::shared_ptr<const PartitionPlan> RemapPlan(const std::vector<int64_t>& cached_lens,
                                                 const PartitionPlan& plan,
                                                 const Batch& batch) const;
  void InsertLocked(Entry entry);

  PlannerService* service_;
  PlanCacheOptions options_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recently used.
  std::unordered_map<PlanCacheKey, std::list<Entry>::iterator, KeyHash> index_;

  // The cache.* counters, registered in the service's registry.
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* bypasses_ = nullptr;
  obs::Counter* verify_failures_ = nullptr;
};

}  // namespace zeppelin

#endif  // SRC_CORE_PLAN_CACHE_H_
