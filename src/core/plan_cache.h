// PlanCache: the content-addressed plan cache in front of PlannerService
// (docs/PLAN_CACHE.md).
//
// The planner runs once per iteration on the global batch as the data loader
// hands it, so the repeats worth serving are the same batch in the same slot
// order (sweep jobs sharing a data order, epoch replays). The cache keys each
// stateless request by
//
//   (cost-model digest, fabric digest, slot-order batch signature,
//    planning-option signature)
//
// and serves repeats from a bounded LRU of certified plan images: the
// SerializePlan bytes with their StateDigest trailer, the certificate
// travelling with the bytes it certifies. A key match is confirmed by
// comparing the length vector, so a repeat is served as the stored image
// itself, with no plan built and no byte encoded (docs/PLAN_CACHE.md "Key
// derivation"). Any other batch, a permutation included, is a miss: a plain
// PlannerService::Plan call, so the plan a request gets never depends on
// earlier traffic.
//
// Certification: PlanAndInsert is where every served plan is certified and
// encoded. Each freshly planned kOk response, stateless or session, passes
// VerifyPlan (plan_verify.h) and is serialized once into its image; only a
// stateless one is also stored. An entry is immutable from then on; every
// consumer of an image re-checks its trailer (ParsePlan: the client, the
// in-process Plan), so a corrupted entry is never accepted. A plan that fails
// the certifier is returned with stats.verified == false and no image so the
// caller can apply policy (the daemon turns it into a typed kInternal). A
// request the service rejects (PlanResponse::status) passes through
// unverified and uncached.
//
// Thread safety: all public methods are safe to call concurrently. The LRU
// index is guarded by one mutex held only for O(1)/O(S) bookkeeping;
// hashing, planning, verification, encoding and counting (lock-free registry
// instruments) run outside it.
#ifndef SRC_CORE_PLAN_CACHE_H_
#define SRC_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
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
  uint64_t bypasses = 0;   // Session/delta requests, planned but not stored.
  uint64_t verify_failures = 0;
};

// The content address of a stateless plan request. Requests with equal keys
// and equal length vectors are served by the same plan image.
struct PlanCacheKey {
  uint64_t cost_digest = 0;    // Model config + tensor parallelism.
  uint64_t fabric_digest = 0;  // FabricResources::digest().
  uint64_t batch_sig = 0;      // SlotOrderSignature(batch).
  uint64_t options_sig = 0;    // Plan-shape options (capacity, zone-aware caps).

  bool operator==(const PlanCacheKey&) const = default;
};

// --- Key derivation (exposed for the key property tests) --------------------

// A hash of the lengths in slot order, in one cheap pass: the key's batch
// signature. Equal length vectors hash equal; a collision between different
// ones costs nothing but a miss, because every match is confirmed by
// comparing the length vectors.
uint64_t SlotOrderSignature(const Batch& batch);
// The key for a request (ZCHECKs batch/cost_model/fabric non-null).
PlanCacheKey ComputePlanCacheKey(const PlanRequest& request);

class PlanCache {
 public:
  // `service` is borrowed and must outlive the cache.
  explicit PlanCache(PlannerService* service, PlanCacheOptions options = {});
  // Takes the entries' bytes back out of cache.resident_bytes.
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // The cache-aware front door: TryServe, else PlanAndInsert. A hit's plan
  // is parsed from the stored image (ParsePlan re-checks its trailer; an
  // image that fails is counted in verify_failures and replanned).
  PlanResponse Plan(const PlanRequest& request);

  // Lookup-only: a hit response carrying the stored certified image, or
  // nullopt on miss or bypass. A hit builds nothing: its `plan` is null.
  // For a cacheable request `*key` is set to its key, which a miss hands on
  // to PlanAndInsert. Lets callers with their own admission control (the
  // daemon) serve hits without a planning permit.
  std::optional<PlanResponse> TryServe(const PlanRequest& request, PlanCacheKey* key);

  // Plans through the service and, once the plan is certified, serializes
  // it into the response's image. A stateless plan is certified at
  // kPlanCacheVerifyEps and its image stored under `key`, the key TryServe
  // set for `request`. A session/delta request bypasses the store (kBypass,
  // `key` unread): its plan is certified against the session's topology
  // with the balance clause off, because it balances effective load under
  // session state the certifier does not re-derive.
  PlanResponse PlanAndInsert(const PlanRequest& request, const PlanCacheKey& key);

  // A read-only view of the service's cache.* counters.
  PlanCacheCounters counters() const;
  size_t size() const;

 private:
  struct KeyHash {
    size_t operator()(const PlanCacheKey& key) const;
  };
  struct Entry {
    PlanCacheKey key;
    std::vector<int64_t> seq_lens;  // The batch, in the image's slot order.
    PlanImage image;      // Certified SerializePlan image, trailer = digest.
    PlanStats stats;      // Engine/capacity of the producing plan call.
    uint64_t digest = 0;  // The image's StateDigest trailer.
  };

  bool Cacheable(const PlanRequest& request) const;
  // The bytes an entry holds (cache.resident_bytes).
  static int64_t ResidentBytes(const Entry& entry);
  void InsertLocked(Entry entry);
  void EraseLocked(std::list<Entry>::iterator it);

  PlannerService* service_;
  PlanCacheOptions options_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  // Front = most recently used.
  std::unordered_map<PlanCacheKey, std::list<Entry>::iterator, KeyHash> index_;

  // The cache.* instruments, registered in the service's registry.
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* bypasses_ = nullptr;
  obs::Counter* verify_failures_ = nullptr;
  obs::Gauge* resident_bytes_ = nullptr;
};

}  // namespace zeppelin

#endif  // SRC_CORE_PLAN_CACHE_H_
