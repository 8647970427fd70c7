// PlanCache (src/core/plan_cache.h): the cache-key properties (randomized +
// seeded, twin-checked — any semantic change, a permutation of the batch
// included, splits the key), the slot-order signature as a free function, hit
// semantics (a hit is the stored certified image), session plans (certified
// and encoded, never stored), LRU eviction, the resident-bytes gauge, and a
// concurrent hammer (the TSAN target together with plan_service_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/plan_cache.h"
#include "src/core/plan_io.h"
#include "src/core/plan_service.h"
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

    // A permutation: the same lengths in another slot order.
    const Batch shuffled = Permuted(batch, seed * 977);
    ASSERT_NE(shuffled.seq_lens, batch.seq_lens);
    EXPECT_NE(base, ComputePlanCacheKey(rig.Request(shuffled)));

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

TEST(PlanCacheTest, HitServesTheStoredImage) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch batch = SampleBatch(256, 0xcac4e);

  const PlanResponse miss = cache.Plan(rig.Request(batch));
  ASSERT_NE(miss.plan, nullptr);
  ASSERT_GT(miss.image.size(), 0u);
  EXPECT_EQ(miss.stats.cache_outcome, CacheOutcome::kMiss);
  EXPECT_TRUE(miss.stats.verified);
  // The miss was serialized once, and its response carries those bytes.
  EXPECT_EQ(miss.image.view(), SerializePlan(*miss.plan));

  // Lookup-only: a hit builds no plan and no bytes — it hands out the very
  // image the miss stored.
  PlanCacheKey key;
  const std::optional<PlanResponse> served = cache.TryServe(rig.Request(batch), &key);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(key, ComputePlanCacheKey(rig.Request(batch)));
  EXPECT_EQ(served->plan, nullptr);
  EXPECT_EQ(served->image.view().data(), miss.image.view().data());
  EXPECT_EQ(served->digest, miss.digest);
  EXPECT_EQ(served->stats.cache_outcome, CacheOutcome::kHit);
  EXPECT_TRUE(served->stats.verified);

  // The in-process front door parses the image into a plan of its own.
  const PlanResponse hit = cache.Plan(rig.Request(batch));
  EXPECT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
  EXPECT_TRUE(hit.stats.verified);
  ASSERT_NE(hit.plan, nullptr);
  EXPECT_EQ(SerializePlan(*hit.plan), miss.image.view());
  EXPECT_EQ(hit.digest, miss.digest);
  EXPECT_EQ(hit.stats.partition_time_us, 0);
  EXPECT_EQ(cache.counters().hits, 2u);
  EXPECT_EQ(cache.counters().misses, 1u);
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
      return static_cast<int64_t>(r.image.size() + 8 * batch.seq_lens.size());
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

TEST(PlanCacheTest, SessionPlansAreCertifiedAndEncodedButNotStored) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch batch = SampleBatch(128, 0x5e55);
  PlanRequest request = rig.Request(batch);
  request.stream_id = "stream";
  // A session request has no key: PlanAndInsert leaves the one given unread.
  const PlanResponse response = cache.PlanAndInsert(request, PlanCacheKey{});
  ASSERT_EQ(response.status, PlanStatus::kOk) << response.error;
  ASSERT_NE(response.plan, nullptr);
  EXPECT_TRUE(response.stats.verified);
  EXPECT_EQ(response.stats.cache_outcome, CacheOutcome::kBypass);
  // The one encode a served plan gets, with the certified digest as trailer.
  ASSERT_GT(response.image.size(), 0u);
  EXPECT_EQ(response.image.view(), SerializePlan(*response.plan));
  PartitionPlan parsed;
  const PlanIoResult io = ParsePlan(response.image.view(), &parsed);
  ASSERT_TRUE(io.ok()) << io.message;
  EXPECT_EQ(io.digest, response.digest);
  EXPECT_EQ(parsed.StateDigest(), response.digest);

  const PlanCacheCounters counters = cache.counters();
  EXPECT_EQ(counters.bypasses, 1u);
  EXPECT_EQ(counters.misses, 0u);
  EXPECT_EQ(counters.verify_failures, 0u);
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
