// PlanCache (src/core/plan_cache.h): the cache-key canonicalization
// properties (randomized + seeded, twin-checked — permuting sequences or
// renaming slots never changes the key, any semantic change always does),
// exact-tier hit semantics (zero-copy repeats, seq-id remap for permuted
// batches, every served plan certified), LRU eviction, the poisoned-entry
// hook, and a concurrent hammer (the TSAN target together with
// plan_service_test).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/plan_cache.h"
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
    Rig slowed;
    slowed.fabric.set_rank_speed(static_cast<int>(rng.NextBounded(16)), 0.5);
    EXPECT_NE(base, ComputePlanCacheKey(slowed.Request(batch)));

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

TEST(PlanCacheTest, ExactHitIsZeroCopyAndCertified) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch batch = SampleBatch(256, 0xcac4e);

  const PlanResponse miss = cache.Plan(rig.Request(batch));
  ASSERT_NE(miss.plan, nullptr);
  EXPECT_EQ(miss.stats.cache_outcome, CacheOutcome::kMiss);
  EXPECT_TRUE(miss.stats.verified);

  const PlanResponse hit = cache.Plan(rig.Request(batch));
  EXPECT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
  EXPECT_TRUE(hit.stats.verified);
  EXPECT_EQ(hit.plan.get(), miss.plan.get());  // Shared immutable handle.
  EXPECT_EQ(hit.digest, miss.digest);
  EXPECT_EQ(hit.stats.partition_time_us, 0);
  EXPECT_EQ(cache.counters().hits, 1u);
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

TEST(PlanCacheTest, PoisonedEntryIsNeverServed) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch batch = SampleBatch(256, 0xbad);

  const PlanResponse miss = cache.Plan(rig.Request(batch));
  ASSERT_TRUE(cache.PoisonEntryForTest(rig.Request(batch)));

  // The poisoned entry is caught by the certifier, dropped, and replanned —
  // the caller still receives a correct (and certified) plan. The replan is
  // a plain miss, never a hit of the poisoned bytes.
  const PlanResponse replanned = cache.Plan(rig.Request(batch));
  EXPECT_NE(replanned.stats.cache_outcome, CacheOutcome::kHit);
  EXPECT_TRUE(replanned.stats.verified);
  EXPECT_EQ(replanned.digest, miss.digest);
  EXPECT_EQ(cache.counters().verify_failures, 1u);

  // And the replanned insert restored a healthy entry.
  EXPECT_EQ(cache.Plan(rig.Request(batch)).stats.cache_outcome, CacheOutcome::kHit);
}

TEST(PlanCacheTest, SignatureCollisionIsAMissNotAVerifyFailure) {
  Rig rig;
  PlannerService service;
  PlanCache cache(&service);
  const Batch planted = SampleBatch(256, 0xc0111);
  const Batch other = SampleBatch(256, 0xd1ff);

  ASSERT_EQ(cache.Plan(rig.Request(planted)).stats.cache_outcome, CacheOutcome::kMiss);
  ASSERT_TRUE(cache.RekeyEntryForTest(rig.Request(planted), rig.Request(other)));

  // `other` now finds an entry holding a different length multiset — a
  // simulated signature collision. That is not a poisoned entry: it must be
  // served as an ordinary miss with a correct plan, without touching the
  // verify-failure counter, and the replacement entry must hit afterwards.
  const PlanResponse miss = cache.Plan(rig.Request(other));
  EXPECT_EQ(miss.stats.cache_outcome, CacheOutcome::kMiss);
  EXPECT_TRUE(miss.stats.verified);
  EXPECT_EQ(cache.counters().verify_failures, 0u);

  const PlanResponse hit = cache.Plan(rig.Request(other));
  EXPECT_EQ(hit.stats.cache_outcome, CacheOutcome::kHit);
  EXPECT_EQ(hit.digest, miss.digest);
  EXPECT_EQ(cache.counters().verify_failures, 0u);
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
