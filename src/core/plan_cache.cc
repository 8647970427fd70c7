#include "src/core/plan_cache.h"

#include <algorithm>
#include <numeric>
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
  h = FnvMix(h, options.hierarchical_partitioning ? 1 : 0);
  h = FnvMix(h, options.zone_aware_thresholds ? 1 : 0);
  return h;
}

// Every part of a request's key but the batch signature. The fabric keeps
// its own digest current, so this costs a few dozen FNV steps.
PlanCacheKey IdentityKey(const PlanRequest& request) {
  ZCHECK(request.batch != nullptr && request.cost_model != nullptr &&
         request.fabric != nullptr)
      << "plan cache key of an incomplete request";
  return PlanCacheKey{.cost_digest = DigestCostModel(*request.cost_model),
                      .fabric_digest = request.fabric->digest(),
                      .options_sig = OptionsSignature(request.options)};
}

PlanCacheKey WithBatch(PlanCacheKey key, uint64_t batch_sig) {
  key.batch_sig = batch_sig;
  return key;
}

// The cache's certificate for a plan served against `request`. The derived
// capacity is planner guidance, not a per-rank guarantee (engines promise the
// eps certificate; a long local may sit above the memory-capped derivation),
// so clause 6 stays off and clause 7 judges.
bool Certified(const PartitionPlan& plan, const PlanRequest& request) {
  PlanVerifyOptions vopts;
  vopts.token_capacity = 0;
  vopts.eps = kPlanCacheVerifyEps;
  vopts.world = request.fabric->cluster().world_size();
  return VerifyPlan(plan, request.batch, nullptr, vopts).ok();
}

// `plan`'s image with `digest` as its trailer, in one pass.
std::shared_ptr<const std::string> Serialize(const PartitionPlan& plan, uint64_t digest) {
  auto image = std::make_shared<std::string>(SerializedPlanSize(plan), '\0');
  SerializePlanInto(plan, digest, image->data());
  return image;
}

}  // namespace

uint64_t CanonicalBatchSignature(const Batch& batch) {
  // A commutative digest of the length multiset: each length is avalanched
  // independently and the hashes are summed, so permuting sequence order or
  // renaming slot ids cannot change the signature — no sort needed — while
  // any length change almost surely must (the per-element mixing avalanches
  // every bit, so compensating edits like {a+1, b-1} or equal-total
  // rearrangements do not cancel; see AvalancheMix for why one FNV step was
  // not enough). A colliding batch is still caught downstream: the remap
  // tier re-checks multiset equality slot by slot (PairSlotsByLength).
  uint64_t sum = 0;
  for (int64_t len : batch.seq_lens) {
    sum += AvalancheMix(static_cast<uint64_t>(len));
  }
  uint64_t h = kFnvOffset;
  h = FnvMix(h, batch.seq_lens.size());
  h = FnvMix(h, sum);
  return h;
}

uint64_t SlotOrderSignature(const Batch& batch) {
  // Four independent xor-multiply chains, each folding two lengths per step
  // (the second shifted into the high half: exact for lengths below 2^32; a
  // fold of longer ones can only collide, which the exact tier's length
  // compare absorbs). Each step is a bijection of the lane, so batches that
  // differ in one slot never collide. Independent chains keep the
  // multiplier busy: a fraction of the per-length avalanche the canonical
  // signature pays.
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
  return WithBatch(IdentityKey(request), CanonicalBatchSignature(*request.batch));
}

bool PairSlotsByLength(std::span<const int64_t> cached, std::span<const int64_t> request,
                       std::vector<int>* remap) {
  // Sort both slot orders by (length, slot) and pair them rank by rank:
  // equal multisets make that a bijection. O(S log S).
  const size_t n = cached.size();
  if (n != request.size()) {
    return false;
  }
  std::vector<int> cached_order(n), request_order(n);
  std::iota(cached_order.begin(), cached_order.end(), 0);
  std::iota(request_order.begin(), request_order.end(), 0);
  std::sort(cached_order.begin(), cached_order.end(), [&](int a, int b) {
    return std::tie(cached[a], a) < std::tie(cached[b], b);
  });
  std::sort(request_order.begin(), request_order.end(), [&](int a, int b) {
    return std::tie(request[a], a) < std::tie(request[b], b);
  });
  remap->resize(n);
  for (size_t i = 0; i < n; ++i) {
    if (cached[cached_order[i]] != request[request_order[i]]) {
      return false;
    }
    (*remap)[cached_order[i]] = request_order[i];
  }
  return true;
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
  if (!Cacheable(request)) {
    bypasses_->Inc();
    return service_->Plan(request);  // cache_outcome stays kBypass.
  }
  if (std::optional<PlanResponse> served = TryServe(request)) {
    if (served->plan == nullptr) {
      // An exact hit carries the image alone. ParsePlan re-checks its
      // trailer, so an entry whose bytes changed is never accepted here; the
      // replan replaces it.
      auto plan = std::make_shared<PartitionPlan>();
      if (!ParsePlan(*served->image, plan.get()).ok()) {
        verify_failures_->Inc();
        return PlanAndInsert(request);
      }
      served->plan = std::move(plan);
    }
    return *std::move(served);
  }
  return PlanAndInsert(request);
}

std::optional<PlanResponse> PlanCache::TryServe(const PlanRequest& request) {
  if (!Cacheable(request)) {
    return std::nullopt;
  }
  // Covers the whole probe: the slot-order hash, the LRU lookup and length
  // compare, and (rarely) the canonical signature plus the remap tier.
  obs::TraceScope lookup_span(obs::Stage::kCacheLookup);
  const PlanCacheKey identity = IdentityKey(request);
  const PlanCacheKey exact_key = WithBatch(identity, SlotOrderSignature(*request.batch));
  std::optional<PlanResponse> served;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = exact_index_.find(exact_key);
    // The length compare confirms the hash: a collision falls through.
    if (it != exact_index_.end() && it->second->seq_lens == request.batch->seq_lens) {
      lru_.splice(lru_.begin(), lru_, it->second);
      Entry& entry = lru_.front();
      entry.remap_streak = 0;
      served.emplace();
      served->image = entry.image;
      served->stats = entry.stats;
      served->digest = entry.digest;
    }
  }
  if (!served.has_value()) {
    served = ServeRemapped(exact_key, WithBatch(identity, CanonicalBatchSignature(*request.batch)),
                           request);
    if (!served.has_value()) {
      return std::nullopt;
    }
  }
  // Hits report the producing call's engine/capacity with zeroed wall times
  // and zeroed stage breakdown: no planning happened, and identical repeats
  // must serve byte-identical responses (the daemon test contract). The
  // lookup's own latency still reaches the daemon's stage histograms and
  // --trace_out through the bound TraceContext.
  PlanStats& stats = served->stats;
  stats.partition_time_us = 0;
  stats.materialize_time_us = 0;
  stats.stage_us = {};
  // Live (not insert-time) session count: the fill is uniform across serve
  // paths, and the daemon test only compares hit responses field-wise.
  stats.session_count = service_->session_count();
  stats.cache_outcome = CacheOutcome::kHit;
  stats.verified = true;
  hits_->Inc();
  return served;
}

std::optional<PlanResponse> PlanCache::ServeRemapped(const PlanCacheKey& exact_key,
                                                     const PlanCacheKey& canonical_key,
                                                     const PlanRequest& request) {
  std::vector<int64_t> cached_lens;
  Image stored;
  PlanStats stored_stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = canonical_index_.find(canonical_key);
    if (it == canonical_index_.end()) {
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    const Entry& entry = lru_.front();
    cached_lens = entry.seq_lens;
    stored = entry.image;
    stored_stats = entry.stats;
  }
  // A different length multiset behind the same key is a signature
  // collision, not a faulty entry: an ordinary miss, whose PlanAndInsert
  // replaces the entry under this key. verify_failures stays for genuine
  // certification faults.
  std::vector<int> remap;
  if (!PairSlotsByLength(cached_lens, request.batch->seq_lens, &remap)) {
    return std::nullopt;
  }
  // The image's trailer is re-checked by the parse, and the remapped plan is
  // a new object, so it is certified in full.
  auto plan = std::make_shared<PartitionPlan>();
  bool ok = ParsePlan(*stored, plan.get()).ok();
  if (ok) {
    for (RingRef& ring : plan->inter_node) {
      ring.seq_id = remap[ring.seq_id];
    }
    for (RingRef& ring : plan->intra_node) {
      ring.seq_id = remap[ring.seq_id];
    }
    for (LocalSequence& seq : plan->local) {
      seq.seq_id = remap[seq.seq_id];
    }
    ok = Certified(*plan, request);
  }
  PlanResponse response;
  if (ok) {
    response.digest = plan->StateDigest();
    response.image = Serialize(*plan, response.digest);
    response.plan = std::move(plan);
    response.stats = stored_stats;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = canonical_index_.find(canonical_key);
  const bool same_entry = it != canonical_index_.end() && it->second->image == stored;
  if (!ok) {
    verify_failures_->Inc();
    if (same_entry) {
      EraseLocked(it->second);  // Never serve it again; the replan replaces it.
    }
    return std::nullopt;
  }
  // A shape first planted by a permuted request would otherwise pay the
  // remap on every subsequent serve — but re-anchoring eagerly thrashes when
  // two orders alternate. Re-anchor to the order just served only after two
  // consecutive remap serves (an exact serve resets the streak), so the
  // entry converges to the dominant request order. The new image was
  // certified above; the new entry replaces the old one.
  if (same_entry && ++it->second->remap_streak >= 2) {
    Entry anchored;
    anchored.exact_key = exact_key;
    anchored.canonical_key = canonical_key;
    anchored.seq_lens = request.batch->seq_lens;
    anchored.image = response.image;
    anchored.stats = stored_stats;
    anchored.digest = response.digest;
    InsertLocked(std::move(anchored));
  }
  return response;
}

PlanResponse PlanCache::PlanAndInsert(const PlanRequest& request) {
  if (!Cacheable(request)) {
    return Plan(request);
  }
  PlanResponse response = service_->Plan(request);
  if (response.status != PlanStatus::kOk) {
    return response;
  }
  response.stats.cache_outcome = CacheOutcome::kMiss;
  response.stats.verified = Certified(*response.plan, request);
  misses_->Inc();
  if (!response.stats.verified) {
    verify_failures_->Inc();
    return response;
  }
  {
    // The one encode a plan gets: the entry's image is what this response,
    // and every hit after it, serves.
    obs::TraceScope encode_span(obs::Stage::kEncode);
    response.image = Serialize(*response.plan, response.digest);
  }

  const PlanCacheKey identity = IdentityKey(request);
  Entry entry;
  entry.exact_key = WithBatch(identity, SlotOrderSignature(*request.batch));
  entry.canonical_key = WithBatch(identity, CanonicalBatchSignature(*request.batch));
  entry.seq_lens = request.batch->seq_lens;
  entry.image = response.image;
  entry.stats = response.stats;
  entry.digest = response.digest;
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(std::move(entry));
  return response;
}

int64_t PlanCache::ResidentBytes(const Entry& entry) {
  return static_cast<int64_t>(entry.image->size() + sizeof(int64_t) * entry.seq_lens.size());
}

void PlanCache::InsertLocked(Entry entry) {
  // One entry per canonical key, and one per exact key (another entry under
  // it is a slot-order hash collision): the new entry replaces either.
  if (auto it = canonical_index_.find(entry.canonical_key); it != canonical_index_.end()) {
    EraseLocked(it->second);
  }
  if (auto it = exact_index_.find(entry.exact_key); it != exact_index_.end()) {
    EraseLocked(it->second);
  }
  if (lru_.size() >= options_.capacity) {
    EraseLocked(std::prev(lru_.end()));
    evictions_->Inc();
  }
  resident_bytes_->Add(ResidentBytes(entry));
  lru_.push_front(std::move(entry));
  exact_index_[lru_.front().exact_key] = lru_.begin();
  canonical_index_[lru_.front().canonical_key] = lru_.begin();
}

void PlanCache::EraseLocked(std::list<Entry>::iterator it) {
  resident_bytes_->Sub(ResidentBytes(*it));
  exact_index_.erase(it->exact_key);
  canonical_index_.erase(it->canonical_key);
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
