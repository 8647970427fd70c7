// LoadTracker: the addressable min-heap behind the sharded engine's z2 chunk
// placement, the GreedyPacker's valley fallback, and the delta planner's node
// loads, checked against a linear-scan reference. (Engine-vs-oracle plan
// equivalence lives in tests/parallel_planner_test.cpp.)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/load_tracker.h"
#include "src/common/rng.h"

namespace zeppelin {
namespace {

// --- LoadTracker unit behavior -----------------------------------------------

// Reference implementation: plain array with linear scans.
struct ReferenceLoads {
  std::vector<int64_t> loads;
  int argmin() const {
    int best = 0;
    for (int i = 1; i < static_cast<int>(loads.size()); ++i) {
      if (loads[i] < loads[best]) {
        best = i;
      }
    }
    return best;
  }
  std::vector<int> k_least(int k) const {
    std::vector<int> order(loads.size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int>(i);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return loads[a] < loads[b]; });
    order.resize(k);
    return order;
  }
};

TEST(PlannerFastPathTest, LoadTrackerMatchesLinearReference) {
  Rng rng(1234);
  for (int n : {1, 2, 7, 8, 64, 200}) {
    LoadTracker tracker(n);
    ReferenceLoads ref;
    ref.loads.assign(n, 0);
    std::vector<int> k_out;
    for (int step = 0; step < 2000; ++step) {
      const int op = static_cast<int>(rng.NextBounded(3));
      if (op == 0) {
        ASSERT_EQ(tracker.argmin(), ref.argmin()) << "n=" << n << " step=" << step;
        ASSERT_EQ(tracker.min_load(), ref.loads[ref.argmin()]);
      } else if (op == 1) {
        const int i = static_cast<int>(rng.NextBounded(n));
        int64_t delta = static_cast<int64_t>(rng.NextBounded(10000));
        if (rng.NextBounded(4) == 0) {
          delta = -std::min(delta, ref.loads[i]);  // Loads must stay >= 0.
        }
        tracker.add(i, delta);
        ref.loads[i] += delta;
        ASSERT_EQ(tracker.load(i), ref.loads[i]);
      } else {
        const int k = 1 + static_cast<int>(rng.NextBounded(n));
        tracker.k_least(k, &k_out);
        ASSERT_EQ(k_out, ref.k_least(k)) << "n=" << n << " step=" << step << " k=" << k;
        // k_least must not perturb subsequent queries.
        ASSERT_EQ(tracker.argmin(), ref.argmin());
      }
    }
  }
}

}  // namespace
}  // namespace zeppelin
