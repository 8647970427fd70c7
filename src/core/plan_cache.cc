#include "src/core/plan_cache.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <utility>

#include "src/common/check.h"
#include "src/model/cost_model.h"
#include "src/topology/path.h"

namespace zeppelin {

namespace {

// The repo's FNV-1a idiom (partitioner.cc StateDigest): mix fixed-width
// values into a running hash; strings are mixed byte-wise.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  h ^= v;
  return h * kFnvPrime;
}

inline uint64_t FnvMixDouble(uint64_t h, double v) {
  return FnvMix(h, std::bit_cast<uint64_t>(v));
}

inline uint64_t FnvMixString(uint64_t h, const std::string& s) {
  h = FnvMix(h, s.size());
  for (unsigned char c : s) {
    h = FnvMix(h, c);
  }
  return h;
}

// Full-avalanche 64-bit finalizer (splitmix64). The commutative batch
// signature sums per-element hashes, and a single FNV step is not enough
// there: (offset ^ len) * prime distributes over the sum, and for lengths
// whose set bits miss the offset's (e.g. multiples of 64) the xor degrades
// to addition — making the sum a function of (count, total tokens) alone.
// Batches are sized to a fixed token budget, so equal totals are the common
// case, not a corner: distinct batches collided constantly. Avalanching
// each length first makes the sum depend on the actual multiset.
inline uint64_t AvalancheMix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

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

uint64_t DigestFabric(const FabricResources& fabric) {
  const ClusterSpec& c = fabric.cluster();
  uint64_t h = kFnvOffset;
  h = FnvMixString(h, c.name);
  h = FnvMix(h, static_cast<uint64_t>(c.num_nodes));
  h = FnvMix(h, static_cast<uint64_t>(c.gpus_per_node));
  h = FnvMix(h, static_cast<uint64_t>(c.nics_per_node));
  h = FnvMixDouble(h, c.nic_bandwidth);
  h = FnvMixDouble(h, c.nvswitch_bandwidth);
  h = FnvMixDouble(h, c.intra_latency_us);
  h = FnvMixDouble(h, c.inter_latency_us);
  h = FnvMixDouble(h, c.gpu_effective_tflops);
  h = FnvMixDouble(h, c.kernel_launch_us);
  h = FnvMixDouble(h, c.gpu_memory_bytes);
  h = FnvMixDouble(h, c.hbm_bandwidth);
  h = FnvMix(h, c.gpu_to_nic.size());
  for (int nic : c.gpu_to_nic) {
    h = FnvMix(h, static_cast<uint64_t>(nic));
  }
  // Per-rank speed factors: a straggler or restored rank changes the fabric
  // identity even when the cluster spec is unchanged.
  for (int rank = 0; rank < c.world_size(); ++rank) {
    h = FnvMixDouble(h, fabric.rank_speed(rank));
  }
  return h;
}

}  // namespace

uint64_t CanonicalBatchSignature(const Batch& batch) {
  // A commutative digest of the length multiset: each length is avalanched
  // independently and the hashes are summed, so permuting sequence order or
  // renaming slot ids cannot change the signature — no sort needed on the
  // serve hot path — while any length change almost surely must (the
  // per-element mixing avalanches every bit, so compensating edits like
  // {a+1, b-1} or equal-total rearrangements do not cancel; see
  // AvalancheMix for why one FNV step was not enough). A colliding batch is
  // still caught downstream: the exact tier compares the full length vector
  // and the remap tier re-checks multiset equality slot by slot.
  uint64_t sum = 0;
  for (int64_t len : batch.seq_lens) {
    sum += AvalancheMix(static_cast<uint64_t>(len));
  }
  uint64_t h = kFnvOffset;
  h = FnvMix(h, batch.seq_lens.size());
  h = FnvMix(h, sum);
  return h;
}

namespace {

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

}  // namespace

PlanCacheKey ComputePlanCacheKey(const PlanRequest& request) {
  ZCHECK(request.batch != nullptr && request.cost_model != nullptr &&
         request.fabric != nullptr)
      << "ComputePlanCacheKey on an incomplete request";
  PlanCacheKey key;
  key.cost_digest = DigestCostModel(*request.cost_model);
  key.fabric_digest = DigestFabric(*request.fabric);
  key.batch_sig = CanonicalBatchSignature(*request.batch);
  key.options_sig = OptionsSignature(request.options);
  return key;
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
    return *std::move(served);
  }
  return PlanAndInsert(request);
}

std::shared_ptr<const PartitionPlan> PlanCache::RemapPlan(
    const std::vector<int64_t>& cached_lens, const PartitionPlan& cached,
    const Batch& batch) const {
  // Same length multiset, different slot order: pair the cached slots with
  // the request's by (length, slot) — a stable bijection because the
  // multisets are equal — and rewrite every entry's seq id. O(S log S + plan).
  const size_t n = cached_lens.size();
  if (n != batch.seq_lens.size()) {
    return nullptr;  // Signature collision; treat as a miss.
  }
  std::vector<int> cached_order(n), request_order(n);
  std::iota(cached_order.begin(), cached_order.end(), 0);
  std::iota(request_order.begin(), request_order.end(), 0);
  std::sort(cached_order.begin(), cached_order.end(), [&](int a, int b) {
    return std::tie(cached_lens[a], a) < std::tie(cached_lens[b], b);
  });
  std::sort(request_order.begin(), request_order.end(), [&](int a, int b) {
    return std::tie(batch.seq_lens[a], a) < std::tie(batch.seq_lens[b], b);
  });
  std::vector<int> remap(n);
  for (size_t i = 0; i < n; ++i) {
    if (cached_lens[cached_order[i]] != batch.seq_lens[request_order[i]]) {
      return nullptr;  // Signature collision; treat as a miss.
    }
    remap[cached_order[i]] = request_order[i];
  }
  auto plan = std::make_shared<PartitionPlan>(cached);
  for (RingRef& ring : plan->inter_node) {
    ring.seq_id = remap[ring.seq_id];
  }
  for (RingRef& ring : plan->intra_node) {
    ring.seq_id = remap[ring.seq_id];
  }
  for (LocalSequence& seq : plan->local) {
    seq.seq_id = remap[seq.seq_id];
  }
  return plan;
}

std::optional<PlanResponse> PlanCache::TryServe(const PlanRequest& request) {
  if (!Cacheable(request)) {
    return std::nullopt;
  }
  // Covers the whole probe: key derivation, the LRU lookup, the digest
  // check, and (rarely) the remap tier + its certification.
  obs::TraceScope lookup_span(obs::Stage::kCacheLookup);
  const PlanCacheKey key = ComputePlanCacheKey(request);
  std::shared_ptr<const PartitionPlan> stored;
  PlanStats stored_stats;
  uint64_t stored_digest = 0;
  bool exact = false;
  std::vector<int64_t> cached_lens;  // Filled only for the remap tier.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    const Entry& entry = lru_.front();
    stored = entry.plan;
    stored_stats = entry.stats;
    stored_digest = entry.digest;
    // The exact-order compare happens under the lock so the hot path never
    // copies the cached length vector; the remap tier (rare) copies it.
    exact = entry.seq_lens == request.batch->seq_lens;
    if (exact) {
      lru_.front().remap_streak = 0;
    } else {
      cached_lens = entry.seq_lens;
    }
  }
  std::shared_ptr<const PartitionPlan> plan;
  uint64_t served_digest = 0;
  if (exact) {
    // Exact-tier serve of the same immutable handle that was certified at
    // insert: re-running the full certifier would re-prove a theorem already
    // on file. A digest check against the digest recorded at certification
    // time detects any content drift (a poisoned entry) at a fraction of
    // VerifyPlan's cost — and a digest match
    // means the served bytes are the certified bytes, so the plan still
    // passes VerifyPlan by referential transparency.
    if (stored->StateDigest() == stored_digest) {
      plan = stored;
      served_digest = stored_digest;
    }
  } else {
    plan = RemapPlan(cached_lens, *stored, *request.batch);
    if (plan == nullptr) {
      // A different length multiset behind the same key: a signature
      // collision, not a poisoned entry. Report an ordinary miss —
      // PlanAndInsert replaces the entry under this key — and leave
      // verify_failures for genuine certification faults.
      return std::nullopt;
    }
    // A remapped twin is a freshly built object — certify it in full.
    if (!Certified(*plan, request)) {
      plan = nullptr;  // Poisoned entry: never serve, drop and replan.
    } else {
      served_digest = plan->StateDigest();
      // A shape first planted by a permuted request would otherwise pay the
      // remap on every subsequent serve — but re-anchoring eagerly thrashes
      // when two orders alternate. Re-anchor to the order just served only
      // after two consecutive remap serves (an exact serve resets the
      // streak), so the entry converges to the dominant request order. The
      // remapped plan was certified above, keeping the entry's digest
      // truthful.
      std::lock_guard<std::mutex> lock(mu_);
      auto it = index_.find(key);
      if (it != index_.end() && it->second->plan == stored) {
        Entry& entry = *it->second;
        if (++entry.remap_streak >= 2) {
          entry.seq_lens = request.batch->seq_lens;
          entry.plan = plan;
          entry.digest = served_digest;
          entry.remap_streak = 0;
        }
      }
    }
  }
  if (plan == nullptr) {
    verify_failures_->Inc();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.erase(it->second);
      index_.erase(it);
    }
    return std::nullopt;
  }

  PlanResponse response;
  response.plan = plan;
  // Hits report the producing call's engine/capacity with zeroed wall times
  // and zeroed stage breakdown: no planning happened, and identical repeats
  // must serve byte-identical responses (the daemon test contract). The
  // lookup's own latency still reaches the daemon's stage histograms and
  // --trace_out through the bound TraceContext.
  response.stats = stored_stats;
  response.stats.partition_time_us = 0;
  response.stats.materialize_time_us = 0;
  response.stats.stage_us = {};
  // Live (not insert-time) session count: the fill is uniform across serve
  // paths, and the daemon test only compares hit responses field-wise.
  response.stats.session_count = service_->session_count();
  response.stats.cache_outcome = CacheOutcome::kHit;
  response.stats.verified = true;
  response.digest = served_digest;
  hits_->Inc();
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
  const PlanCacheKey key = ComputePlanCacheKey(request);
  response.stats.cache_outcome = CacheOutcome::kMiss;
  response.stats.verified = Certified(*response.plan, request);
  misses_->Inc();
  if (!response.stats.verified) {
    verify_failures_->Inc();
    return response;
  }

  Entry entry;
  entry.key = key;
  entry.seq_lens = request.batch->seq_lens;
  entry.plan = response.plan;
  entry.stats = response.stats;
  entry.digest = response.digest;
  std::lock_guard<std::mutex> lock(mu_);
  InsertLocked(std::move(entry));
  return response;
}

void PlanCache::InsertLocked(Entry entry) {
  auto it = index_.find(entry.key);
  if (it != index_.end()) {
    *it->second = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= options_.capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    evictions_->Inc();
  }
  lru_.push_front(std::move(entry));
  index_[lru_.front().key] = lru_.begin();
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

bool PlanCache::PoisonEntryForTest(const PlanRequest& request) {
  const PlanCacheKey key = ComputePlanCacheKey(request);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    return false;
  }
  // Rebuild the entry's plan with one header dropped (or one declared load
  // inflated when there is no ring to drop) — a single-fault corruption the
  // certifier must catch on the next serve.
  auto poisoned = std::make_shared<PartitionPlan>(*it->second->plan);
  if (!poisoned->intra_node.empty()) {
    poisoned->intra_node.pop_back();
  } else if (!poisoned->inter_node.empty()) {
    poisoned->inter_node.pop_back();
  } else if (!poisoned->local.empty()) {
    poisoned->local.pop_back();
  } else {
    poisoned->tokens_per_rank[0] += 1;
  }
  it->second->plan = std::move(poisoned);
  return true;
}

bool PlanCache::RekeyEntryForTest(const PlanRequest& from, const PlanRequest& to) {
  const PlanCacheKey from_key = ComputePlanCacheKey(from);
  const PlanCacheKey to_key = ComputePlanCacheKey(to);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(from_key);
  if (it == index_.end()) {
    return false;
  }
  auto collided = index_.find(to_key);
  if (collided != index_.end()) {
    lru_.erase(collided->second);
    index_.erase(collided);
    it = index_.find(from_key);
  }
  it->second->key = to_key;
  index_.emplace(to_key, it->second);
  index_.erase(it);
  return true;
}

}  // namespace zeppelin
