#include "src/common/load_tracker.h"

#include <numeric>

#include "src/common/check.h"

namespace zeppelin {

void LoadTracker::Reset(int n) {
  ZCHECK(n >= 0 && static_cast<int64_t>(n) <= kIndexMask + 1) << "n=" << n;
  heap_.resize(n);
  pos_.resize(n);
  // With all loads equal the order is by index alone, so the identity
  // permutation is already a valid heap.
  std::iota(heap_.begin(), heap_.end(), int64_t{0});
  std::iota(pos_.begin(), pos_.end(), 0);
  ++ops_;
}

void LoadTracker::Assign(const std::vector<int64_t>& loads) {
  const int n = static_cast<int>(loads.size());
  ZCHECK(static_cast<int64_t>(n) <= kIndexMask + 1) << "n=" << n;
  heap_.resize(n);
  pos_.resize(n);
  for (int i = 0; i < n; ++i) {
    ZCHECK(loads[i] >= 0 && loads[i] < kMaxLoad) << "load=" << loads[i];
    heap_[i] = (loads[i] << kIndexBits) | i;
    pos_[i] = i;
  }
  for (int p = n / 2 - 1; p >= 0; --p) {
    SiftDownBounded(p, heap_[p], n);
  }
  ++ops_;
}

void LoadTracker::k_least(int k, std::vector<int>* out) {
  const int n = size();
  ZCHECK(k >= 0 && k <= n) << "k=" << k << " n=" << n;
  out->clear();
  ++ops_;
  // Pop k minima (ascending (load, index) by construction), then reinsert.
  // The packed key is a strict total order, so any valid heap shape yields
  // the same answers afterwards; popped keys are parked in the heap slots
  // the pops vacate (positions [n-k, n)), so no side storage is needed.
  for (int i = 0; i < k; ++i) {
    const int64_t top = heap_[0];
    out->push_back(static_cast<int>(top & kIndexMask));
    const int live = n - i - 1;  // Heap size after this pop.
    const int64_t last = heap_[live];
    heap_[live] = top;  // Park the popped key; reinserted below.
    if (live > 0) {
      SiftDownBounded(0, last, live);
    }
  }
  for (int i = k - 1; i >= 0; --i) {
    // Reinsert parked keys, largest first: each SiftUp treats its position
    // as the new leaf of the prefix heap growing back to full size.
    const int live = n - i - 1;
    SiftUp(live, heap_[live]);
  }
}

}  // namespace zeppelin
