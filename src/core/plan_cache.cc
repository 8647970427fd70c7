#include "src/core/plan_cache.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/hash.h"
#include "src/core/plan_io.h"
#include "src/model/cost_model.h"
#include "src/topology/path.h"

namespace zeppelin {

namespace {

uint64_t DigestCostModel(const CostModel& cost_model) {
  const TransformerConfig& m = cost_model.model();
  uint64_t h = kFnvOffset;
  h = FnvMixString(h, m.name);
  h = FnvMix(h, static_cast<uint64_t>(m.num_layers));
  h = FnvMix(h, static_cast<uint64_t>(m.hidden_size));
  h = FnvMix(h, static_cast<uint64_t>(m.num_heads));
  h = FnvMix(h, static_cast<uint64_t>(m.num_kv_heads));
  h = FnvMix(h, static_cast<uint64_t>(m.ffn_hidden));
  h = FnvMix(h, static_cast<uint64_t>(m.vocab_size));
  h = FnvMix(h, static_cast<uint64_t>(m.dtype_bytes));
  h = FnvMix(h, static_cast<uint64_t>(m.num_experts));
  h = FnvMix(h, static_cast<uint64_t>(m.experts_per_token));
  h = FnvMix(h, static_cast<uint64_t>(cost_model.tensor_parallel()));
  return h;
}

uint64_t OptionsSignature(const PlanningOptions& options) {
  // Only the options that change the *plan bytes* participate in the key:
  // delta_replan_threshold only shapes session fallback policy, not the plan
  // a given batch gets.
  uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<uint64_t>(options.token_capacity));
  h = FnvMix(h, options.zone_aware_thresholds ? 1 : 0);
  return h;
}

// The certificate for a plan served against `request`. The derived capacity
// is planner guidance, not a per-rank guarantee (engines promise the eps
// certificate; a long local may sit above the memory-capped derivation), so
// clause 6 stays off and clause 7 judges a stateless plan. A session plan
// balances effective load under its session's degraded/heterogeneous state,
// which the certifier should not re-derive, so its balance clause is off;
// coverage, conservation, arena and dead-rank placement are still checked,
// against the session's own topology. The service accepted the request, so
// the session's tracked batch is the request batch.
bool Certified(const PartitionPlan& plan, const PlanRequest& request,
               const PlannerService& service) {
  PlanVerifyOptions vopts;
  vopts.token_capacity = 0;
  vopts.world = request.fabric->cluster().world_size();
  if (request.stream_id.empty()) {
    vopts.eps = kPlanCacheVerifyEps;
    return VerifyPlan(plan, request.batch, nullptr, vopts).ok();
  }
  RankTopology topology;
  const bool has_topology = service.GetSessionTopology(request.stream_id, &topology);
  vopts.eps = -1;
  return VerifyPlan(plan, request.batch, has_topology ? &topology : nullptr, vopts).ok();
}

}  // namespace

uint64_t SlotOrderSignature(const Batch& batch) {
  // Four independent xor-multiply chains, each folding two lengths per step
  // (the second shifted into the high half: exact for lengths below 2^32; a
  // fold of longer ones can only collide, which the cache's length
  // compare absorbs). Each step is a bijection of the lane, so batches that
  // differ in one slot never collide. Independent chains keep the
  // multiplier busy: a fraction of the cost of a per-length avalanche.
  constexpr int kLanes = 4;
  constexpr uint64_t kOdd[kLanes] = {0x9e3779b97f4a7c15ull, 0xbf58476d1ce4e5b9ull,
                                     0x94d049bb133111ebull, 0xff51afd7ed558ccdull};
  const std::vector<int64_t>& lens = batch.seq_lens;
  const size_t n = lens.size();
  uint64_t lanes[kLanes] = {1, 2, 3, 4};
  size_t i = 0;
  for (; i + 2 * kLanes <= n; i += 2 * kLanes) {
    for (int l = 0; l < kLanes; ++l) {
      const uint64_t pair = static_cast<uint64_t>(lens[i + l]) ^
                            (static_cast<uint64_t>(lens[i + kLanes + l]) << 32);
      lanes[l] = (lanes[l] ^ pair) * kOdd[l];
    }
  }
  uint64_t h = FnvMix(kFnvOffset, n);
  for (; i < n; ++i) {
    h = AvalancheMix(h ^ static_cast<uint64_t>(lens[i]));
  }
  for (const uint64_t lane : lanes) {
    h = AvalancheMix(h ^ lane);
  }
  return h;
}

PlanCacheKey ComputePlanCacheKey(const PlanRequest& request) {
  ZCHECK(request.batch != nullptr && request.cost_model != nullptr &&
         request.fabric != nullptr)
      << "plan cache key of an incomplete request";
  // The fabric keeps its own digest current, so all but the batch signature
  // costs a few dozen FNV steps.
  return PlanCacheKey{.cost_digest = DigestCostModel(*request.cost_model),
                      .fabric_digest = request.fabric->digest(),
                      .batch_sig = SlotOrderSignature(*request.batch),
                      .options_sig = OptionsSignature(request.options)};
}

size_t PlanCache::KeyHash::operator()(const PlanCacheKey& key) const {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, key.cost_digest);
  h = FnvMix(h, key.fabric_digest);
  h = FnvMix(h, key.batch_sig);
  h = FnvMix(h, key.options_sig);
  return static_cast<size_t>(h);
}

PlanCache::PlanCache(PlannerService* service, PlanCacheOptions options)
    : service_(service), options_(options) {
  ZCHECK(service_ != nullptr) << "PlanCache without a service";
  options_.capacity = std::max<size_t>(options_.capacity, 1);
  obs::MetricsRegistry& metrics = service_->metrics();
  hits_ = metrics.GetCounter("cache.hits");
  misses_ = metrics.GetCounter("cache.misses");
  evictions_ = metrics.GetCounter("cache.evictions");
  bypasses_ = metrics.GetCounter("cache.bypasses");
  verify_failures_ = metrics.GetCounter("cache.verify_failures");
  resident_bytes_ = metrics.GetGauge("cache.resident_bytes");
}

PlanCache::~PlanCache() {
  for (const Entry& entry : lru_) {
    resident_bytes_->Sub(ResidentBytes(entry));
  }
}

bool PlanCache::Cacheable(const PlanRequest& request) const {
  return request.stream_id.empty() && request.delta == nullptr &&
         request.topology == nullptr;
}

PlanResponse PlanCache::Plan(const PlanRequest& request) {
  PlanCacheKey key;
  std::optional<PlanResponse> served = TryServe(request, &key);
  if (!served.has_value()) {
    return PlanAndInsert(request, key);
  }
  // A hit carries the image alone. ParsePlan re-checks its trailer, so an
  // entry whose bytes changed is never accepted here; the replan replaces it.
  auto plan = std::make_shared<PartitionPlan>();
  if (!ParsePlan(served->image.view(), plan.get()).ok()) {
    verify_failures_->Inc();
    return PlanAndInsert(request, key);
  }
  served->plan = std::move(plan);
  return *std::move(served);
}

std::optional<PlanResponse> PlanCache::TryServe(const PlanRequest& request, PlanCacheKey* key) {
  if (!Cacheable(request)) {
    return std::nullopt;
  }
  // Covers the whole probe: the key, the LRU lookup and the length compare.
  obs::TraceScope lookup_span(obs::Stage::kCacheLookup);
  *key = ComputePlanCacheKey(request);
  PlanResponse served;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(*key);
    // The length compare confirms the hash: a collision is a miss.
    if (it == index_.end() || it->second->seq_lens != request.batch->seq_lens) {
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    const Entry& entry = lru_.front();
    served.image = entry.image;
    served.stats = entry.stats;
    served.digest = entry.digest;
  }
  // Hits report the producing call's engine/capacity with zeroed wall times
  // and zeroed stage breakdown: no planning happened, and identical repeats
  // must serve byte-identical responses (the daemon test contract). The
  // lookup's own latency still reaches the daemon's stage histograms and
  // --trace_out through the bound TraceContext.
  PlanStats& stats = served.stats;
  stats.partition_time_us = 0;
  stats.materialize_time_us = 0;
  stats.stage_us = {};
  // Live (not insert-time) session count: the daemon test only compares hit
  // responses field-wise.
  stats.session_count = service_->session_count();
  stats.cache_outcome = CacheOutcome::kHit;
  stats.verified = true;
  hits_->Inc();
  return served;
}

PlanResponse PlanCache::PlanAndInsert(const PlanRequest& request, const PlanCacheKey& key) {
  const bool cacheable = Cacheable(request);
  if (!cacheable) {
    bypasses_->Inc();  // cache_outcome stays kBypass.
  }
  PlanResponse response = service_->Plan(request);
  if (response.status != PlanStatus::kOk) {
    return response;
  }
  if (cacheable) {
    response.stats.cache_outcome = CacheOutcome::kMiss;
    misses_->Inc();
  }
  response.stats.verified = Certified(*response.plan, request, *service_);
  if (!response.stats.verified) {
    verify_failures_->Inc();
    return response;
  }
  {
    // The one encode a served plan gets: the image is what this response,
    // and every hit on the entry stored below, serves.
    obs::TraceScope encode_span(obs::Stage::kEncode);
    response.image = PlanImage::Encode(*response.plan, response.digest);
  }
  if (!cacheable) {
    return response;
  }

  Entry entry;
  entry.key = key;
  entry.seq_lens = request.batch->seq_lens;
  entry.image = response.image;
  entry.stats = response.stats;
  entry.digest = response.digest;
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(std::move(entry));
  return response;
}

int64_t PlanCache::ResidentBytes(const Entry& entry) {
  return static_cast<int64_t>(entry.image.size() + sizeof(int64_t) * entry.seq_lens.size());
}

void PlanCache::InsertLocked(Entry entry) {
  // One entry per key: the new entry replaces a concurrent miss's insert of
  // the same batch, or a slot-order hash collision.
  if (auto it = index_.find(entry.key); it != index_.end()) {
    EraseLocked(it->second);
  }
  if (lru_.size() >= options_.capacity) {
    EraseLocked(std::prev(lru_.end()));
    evictions_->Inc();
  }
  resident_bytes_->Add(ResidentBytes(entry));
  lru_.push_front(std::move(entry));
  index_[lru_.front().key] = lru_.begin();
}

void PlanCache::EraseLocked(std::list<Entry>::iterator it) {
  resident_bytes_->Sub(ResidentBytes(*it));
  index_.erase(it->key);
  lru_.erase(it);
}

PlanCacheCounters PlanCache::counters() const {
  return PlanCacheCounters{.hits = hits_->value(),
                           .misses = misses_->value(),
                           .evictions = evictions_->value(),
                           .bypasses = bypasses_->value(),
                           .verify_failures = verify_failures_->value()};
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace zeppelin
