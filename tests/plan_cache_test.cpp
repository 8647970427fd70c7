// PlanCache (src/core/plan_cache.h): the cache-key canonicalization
// properties (randomized + seeded, twin-checked — permuting sequences or
// renaming slots never changes the canonical key, any semantic change always
// does), the slot-order signature and the remap tier's slot pairing as free
// functions, hit semantics (an exact hit is the stored certified image, a
// permuted batch is remapped, certified and re-anchored), LRU eviction, the
// resident-bytes gauge, and a concurrent hammer (the TSAN target together
// with plan_service_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/plan_cache.h"
#include "src/core/plan_io.h"
#include "src/core/plan_service.h"
#include "src/core/plan_verify.h"
#include "src/data/datasets.h"
#include "src/model/transformer.h"
#include "src/topology/cluster.h"

namespace zeppelin {
namespace {

Batch SampleBatch(int num_seqs, uint64_t seed) {
  const LengthDistribution dist = DatasetByName("github");
  Rng rng(seed);
  Batch batch;
  batch.seq_lens.reserve(num_seqs);
  for (int i = 0; i < num_seqs; ++i) {
    batch.seq_lens.push_back(dist.Sample(rng));
  }
  return batch;
}

Batch Permuted(const Batch& batch, uint64_t seed) {
  Batch out = batch;
  Rng rng(seed);
  // Fisher-Yates with the repo Rng: a uniformly random slot renaming.
  for (size_t i = out.seq_lens.size(); i > 1; --i) {
    const size_t j = rng.NextBounded(i);
    std::swap(out.seq_lens[i - 1], out.seq_lens[j]);
  }
  return out;
}

struct Rig {
  ClusterSpec cluster = MakeClusterA(2);
  FabricResources fabric{cluster};
  CostModel cost_model{MakeLlama3B(), cluster};

  PlanRequest Request(const Batch& batch) const {
    PlanRequest request;
    request.batch = &batch;
    request.cost_model = &cost_model;
    request.fabric = &fabric;
    return request;
  }
};

TEST(PlanCacheKeyTest, PermutationAndRenamingAreCanonical) {
  Rig rig;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const Batch batch = SampleBatch(64, seed);
    const Batch shuffled = Permuted(batch, seed * 977);
    const PlanCacheKey a = ComputePlanCacheKey(rig.Request(batch));
    const PlanCacheKey b = ComputePlanCacheKey(rig.Request(shuffled));
    EXPECT_EQ(a, b) << "seed " << seed;  // Order/renaming never changes the key.
    // Twin check: the unpermuted request keeps producing the same key.
    EXPECT_EQ(a, ComputePlanCacheKey(rig.Request(batch)));
  }
}

TEST(PlanCacheKeyTest, AnySemanticChangeSplitsTheKey) {
  Rig rig;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Batch batch = SampleBatch(64, seed);
    const PlanCacheKey base = ComputePlanCacheKey(rig.Request(batch));
    Rng rng(seed * 31);

    // Any single length change (including a swap-breaking one).
    Batch longer = batch;
    longer.seq_lens[rng.NextBounded(longer.seq_lens.size())] += 1;
    EXPECT_NE(base, ComputePlanCacheKey(rig.Request(longer)));

    // Adding or dropping a sequence.
    Batch grown = batch;
    grown.seq_lens.push_back(batch.seq_lens.front());
    EXPECT_NE(base, ComputePlanCacheKey(rig.Request(grown)));
    Batch shrunk = batch;
    shrunk.seq_lens.pop_back();
    EXPECT_NE(base, ComputePlanCacheKey(rig.Request(shrunk)));

    // A different model config.
    Rig other_model;
    other_model.cost_model = CostModel{MakeLlama13B(), other_model.cluster};
    EXPECT_NE(base, ComputePlanCacheKey(other_model.Request(batch)));

    // A different cluster shape.
    Rig other_cluster;
    other_cluster.cluster = MakeClusterA(4);
    other_cluster.fabric = FabricResources{other_cluster.cluster};
    other_cluster.cost_model = CostModel{MakeLlama3B(), other_cluster.cluster};
    EXPECT_NE(base, ComputePlanCacheKey(other_cluster.Request(batch)));

    // A topology change surfaced through the fabric: one straggler rank.
    // The fabric keeps its digest current, so restoring the rank's speed
    // restores the key.
    Rig slowed;
    const int straggler = static_cast<int>(rng.NextBounded(16));
    slowed.fabric.set_rank_speed(straggler, 0.5);
    EXPECT_NE(base, ComputePlanCacheKey(slowed.Request(batch)));
    slowed.fabric.set_rank_speed(straggler, 1.0);
    EXPECT_EQ(base, ComputePlanCacheKey(slowed.Request(batch)));
    slowed.fabric.set_rank_speed(straggler, 0.25);
    slowed.fabric.ResetRankSpeeds();
    EXPECT_EQ(base, ComputePlanCacheKey(slowed.Request(batch)));

    // A planning-option change that alters the plan bytes.
    PlanRequest optioned = rig.Request(batch);
    optioned.options.token_capacity = 1 << 20;
    EXPECT_NE(base, ComputePlanCacheKey(optioned));
    PlanRequest flat = rig.Request(batch);
    flat.options.hierarchical_partitioning = false;
    EXPECT_NE(base, ComputePlanCacheKey(flat));

    // Twin check: recomputing the unchanged request still matches.
    EXPECT_EQ(base, ComputePlanCacheKey(rig.Request(batch)));
  }
}

TEST(PlanCacheKeyTest, EqualTotalMultisetsSplitTheKey) {
  // Regression: batches are sized to a fixed token budget, so distinct
  // batches routinely share (count, total tokens). The summed per-element
  // mix must still separate them — a single FNV step degraded to a function
  // of count + total for 64-aligned lengths, and these two real sampler
  // outputs collided.
  Batch a, b;
  a.seq_lens = {1280, 15488, 48768};
  b.seq_lens = {30080, 14720, 20736};
  EXPECT_NE(CanonicalBatchSignature(a), CanonicalBatchSignature(b));

  // Randomized: 64-aligned partitions of one total must get pairwise
  // distinct signatures whenever their multisets differ (and equal ones
  // when they do not).
  Rng rng(0x70741);
  std::vector<std::pair<std::vector<int64_t>, uint64_t>> seen;
  for (int trial = 0; trial < 64; ++trial) {
    Batch batch;
    int64_t remaining = 65536;
    while (remaining > 0) {
      const int64_t units = remaining / 64;
      const int64_t take =
          64 * (1 + static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(units))));
      batch.seq_lens.push_back(take);
      remaining -= take;
    }
    const uint64_t sig = CanonicalBatchSignature(batch);
    std::vector<int64_t> sorted = batch.seq_lens;
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [lens, other_sig] : seen) {
      if (lens == sorted) {
        EXPECT_EQ(sig, other_sig);
      } else {
        EXPECT_NE(sig, other_sig);
      }
    }
    seen.emplace_back(std::move(sorted), sig);
  }
}

TEST(PlanCacheKeyTest, SlotOrderSignatureSeesEverySlot) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    // Odd sizes leave a tail past the last whole round of the hash's lanes.
    const Batch batch = SampleBatch(64 + static_cast<int>(seed), seed);
    const uint64_t sig = SlotOrderSignature(batch);
    EXPECT_EQ(sig, SlotOrderSignature(Batch(batch)));  // A copy hashes equal.
    Rng rng(seed * 131);
    for (int trial = 0; trial < 8; ++trial) {
      Batch changed = batch;
      changed.seq_lens[rng.NextBounded(changed.seq_lens.size())] += 64;
      EXPECT_NE(sig, SlotOrderSignature(changed)) << "seed " << seed;
    }
    Batch swapped = batch;
    const auto [lo, hi] = std::minmax_element(swapped.seq_lens.begin(), swapped.seq_lens.end());
    std::iter_swap(lo, hi);
    EXPECT_NE(sig, SlotOrderSignature(swapped)) << "seed " << seed;
    Batch shrunk = batch;
    shrunk.seq_lens.pop_back();
    EXPECT_NE(sig, SlotOrderSignature(shrunk)) << "seed " << seed;
  }
}

TEST(PlanCacheKeyTest, RemapPairingIsABijectionOrACollision) {
  // A permutation pairs every cached slot with a request slot of the same
  // length, one to one.
  const Batch batch = SampleBatch(256, 0x9a1);
  const Batch shuffled = Permuted(batch, 0x77);
  std::vector<int> remap;
  ASSERT_TRUE(PairSlotsByLength(batch.seq_lens, shuffled.seq_lens, &remap));
  ASSERT_EQ(remap.size(), batch.seq_lens.size());
  std::vector<bool> taken(remap.size(), false);
  for (size_t c = 0; c < remap.size(); ++c) {
    ASSERT_GE(remap[c], 0);
    ASSERT_LT(static_cast<size_t>(remap[c]), remap.size());
    EXPECT_FALSE(taken[remap[c]]);
    taken[remap[c]] = true;
    EXPECT_EQ(batch.seq_lens[c], shuffled.seq_lens[remap[c]]);
  }
  // A different multiset behind an equal signature (a collision) pairs
  // nothing: the cache answers it as a miss, never a verify failure.
  Batch other = shuffled;
  other.seq_lens.front() += 64;
  EXPECT_FALSE(PairSlotsByLength(batch.seq_lens, other.seq_lens, &remap));
  Batch shorter = shuffled;
  shorter.seq_lens.pop_back();
  EXPECT_FALSE(PairSlotsByLength(batch.seq_lens, shorter.seq_lens, &remap));
}

TEST(PlanCacheTest, ExactHitServesTheStoredImage) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch batch = SampleBatch(256, 0xcac4e);

  const PlanResponse miss = cache.Plan(rig.Request(batch));
  ASSERT_NE(miss.plan, nullptr);
  ASSERT_NE(miss.image, nullptr);
  EXPECT_EQ(miss.stats.cache_outcome, CacheOutcome::kMiss);
  EXPECT_TRUE(miss.stats.verified);
  // The miss was serialized once, and its response carries those bytes.
  EXPECT_EQ(*miss.image, SerializePlan(*miss.plan));

  // Lookup-only: the exact tier builds no plan and no bytes — it hands out
  // the very image the miss stored.
  const std::optional<PlanResponse> served = cache.TryServe(rig.Request(batch));
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->plan, nullptr);
  EXPECT_EQ(served->image.get(), miss.image.get());
  EXPECT_EQ(served->digest, miss.digest);
  EXPECT_EQ(served->stats.cache_outcome, CacheOutcome::kHit);
  EXPECT_TRUE(served->stats.verified);

  // The in-process front door parses the image into a plan of its own.
  const PlanResponse hit = cache.Plan(rig.Request(batch));
  EXPECT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
  EXPECT_TRUE(hit.stats.verified);
  ASSERT_NE(hit.plan, nullptr);
  EXPECT_EQ(SerializePlan(*hit.plan), *miss.image);
  EXPECT_EQ(hit.digest, miss.digest);
  EXPECT_EQ(hit.stats.partition_time_us, 0);
  EXPECT_EQ(cache.counters().hits, 2u);
  EXPECT_EQ(cache.counters().misses, 1u);
}

TEST(PlanCacheTest, PermutedBatchHitsWithARemappedPlan) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch batch = SampleBatch(256, 0x9e9);
  const Batch shuffled = Permuted(batch, 0x41);

  const PlanResponse miss = cache.Plan(rig.Request(batch));
  const PlanResponse hit = cache.Plan(rig.Request(shuffled));
  EXPECT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
  ASSERT_NE(hit.plan, nullptr);
  EXPECT_NE(hit.plan.get(), miss.plan.get());  // Remapped copy, not the handle.
  EXPECT_TRUE(hit.stats.verified);

  // The remap must be a *correct* plan for the permuted batch, not just a
  // cache artifact — certify it independently and line up the loads.
  PlanVerifyOptions opts;
  opts.world = rig.cluster.world_size();
  const PlanVerifyResult verdict = VerifyPlan(*hit.plan, &shuffled, nullptr, opts);
  EXPECT_TRUE(verdict.ok()) << verdict.message;
  EXPECT_EQ(hit.plan->tokens_per_rank, miss.plan->tokens_per_rank);
}

TEST(PlanCacheTest, RemapTierReanchorsToTheServedOrder) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch batch = SampleBatch(256, 0x7e4);
  const Batch shuffled = Permuted(batch, 0x52);
  ASSERT_EQ(cache.Plan(rig.Request(batch)).stats.cache_outcome, CacheOutcome::kMiss);

  // Two consecutive remap serves: each builds, certifies and encodes a plan
  // for the permuted order (the remap tier carries the plan it built).
  std::shared_ptr<const std::string> remapped_image;
  for (int serve = 0; serve < 2; ++serve) {
    const std::optional<PlanResponse> remapped = cache.TryServe(rig.Request(shuffled));
    ASSERT_TRUE(remapped.has_value());
    ASSERT_NE(remapped->plan, nullptr) << "serve " << serve;
    ASSERT_NE(remapped->image, nullptr);
    EXPECT_TRUE(remapped->stats.verified);
    EXPECT_EQ(*remapped->image, SerializePlan(*remapped->plan));
    remapped_image = remapped->image;
  }
  // The entry re-anchored to the permuted order: its next serve is an exact
  // hit of the image the second remap certified.
  const std::optional<PlanResponse> exact = cache.TryServe(rig.Request(shuffled));
  ASSERT_TRUE(exact.has_value());
  EXPECT_EQ(exact->plan, nullptr);
  EXPECT_EQ(exact->image.get(), remapped_image.get());
  PartitionPlan parsed;
  ASSERT_TRUE(ParsePlan(*exact->image, &parsed).ok());
  PlanVerifyOptions opts;
  opts.world = rig.cluster.world_size();
  const PlanVerifyResult verdict = VerifyPlan(parsed, &shuffled, nullptr, opts);
  EXPECT_TRUE(verdict.ok()) << verdict.message;

  // The original order is now the permutation, still served by one entry.
  const std::optional<PlanResponse> original = cache.TryServe(rig.Request(batch));
  ASSERT_TRUE(original.has_value());
  EXPECT_NE(original->plan, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.counters().verify_failures, 0u);
}

TEST(PlanCacheTest, ResidentBytesTrackTheImagesHeld) {
  Rig rig;
  PlannerService service;
  const obs::Gauge* resident = service.metrics().GetGauge("cache.resident_bytes");
  const Batch a = SampleBatch(64, 11), b = SampleBatch(96, 12), c = SampleBatch(128, 13);
  {
    PlanCacheOptions options;
    options.capacity = 2;
    PlanCache cache(&service, options);
    const auto held = [](const PlanResponse& r, const Batch& batch) {
      return static_cast<int64_t>(r.image->size() + 8 * batch.seq_lens.size());
    };
    const PlanResponse ra = cache.Plan(rig.Request(a));
    const PlanResponse rb = cache.Plan(rig.Request(b));
    EXPECT_EQ(resident->value(), held(ra, a) + held(rb, b));
    cache.Plan(rig.Request(a));  // A hit holds nothing new.
    EXPECT_EQ(resident->value(), held(ra, a) + held(rb, b));
    const PlanResponse rc = cache.Plan(rig.Request(c));  // Evicts b.
    EXPECT_EQ(resident->value(), held(ra, a) + held(rc, c));
  }
  EXPECT_EQ(resident->value(), 0);  // A destroyed cache holds nothing.
}

TEST(PlanCacheTest, LruEvictsTheColdestEntry) {
  Rig rig;
  PlannerService service;
  PlanCacheOptions options;
  options.capacity = 2;
  PlanCache cache(&service, options);

  const Batch a = SampleBatch(64, 1), b = SampleBatch(64, 2), c = SampleBatch(64, 3);
  cache.Plan(rig.Request(a));
  cache.Plan(rig.Request(b));
  cache.Plan(rig.Request(a));  // Refresh a; b is now coldest.
  cache.Plan(rig.Request(c));  // Evicts b.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(cache.Plan(rig.Request(a)).stats.cache_outcome, CacheOutcome::kHit);
  EXPECT_EQ(cache.Plan(rig.Request(b)).stats.cache_outcome, CacheOutcome::kMiss);
}

TEST(PlanCacheTest, SessionRequestsBypassTheCache) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch batch = SampleBatch(64, 0x5e5);
  PlanRequest request = rig.Request(batch);
  request.stream_id = "stream";
  const PlanResponse response = cache.Plan(request);
  EXPECT_EQ(response.stats.cache_outcome, CacheOutcome::kBypass);
  EXPECT_EQ(cache.counters().bypasses, 1u);
  EXPECT_EQ(cache.size(), 0u);
  service.CloseSession("stream");
}

TEST(PlanCacheTest, ConcurrentMixedTrafficIsSafe) {
  Rig rig;
  PlannerService service;
  PlanCacheOptions options;
  options.capacity = 8;
  PlanCache cache(&service, options);
  std::vector<Batch> batches;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    batches.push_back(SampleBatch(128, 0xc0 + seed));
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xf00 + t);
      for (int i = 0; i < 40; ++i) {
        const Batch& batch = batches[rng.NextBounded(batches.size())];
        const PlanResponse response = cache.Plan(rig.Request(batch));
        ASSERT_NE(response.plan, nullptr);
        ASSERT_TRUE(response.stats.verified);
        ASSERT_EQ(response.plan->total_tokens(), batch.total_tokens());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const PlanCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.hits + counters.misses, 160u);
  EXPECT_LE(cache.size(), 8u);
}

}  // namespace
}  // namespace zeppelin
