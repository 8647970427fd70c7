// Indexed addressable min-heap over per-bucket loads — the planner's packing
// primitive (paper §3.1, Algorithms 1-2).
//
// Greedy packing repeatedly asks "which bucket is least loaded?" and "which k
// buckets are least loaded?" while loads change one bucket at a time. A plain
// linear scan answers in O(n) per sequence and a sort in O(n log n); this
// tracker answers argmin() in O(1), add() in O(log n), and k_least() in
// O(k log n), which turns the whole per-iteration Plan() into
// O((S + P) log P).
//
// Ordering is the strict total order (load, bucket index): ties always break
// toward the lowest index. That is exactly the tie-break of the reference
// linear-scan packing, so heap-based plans are bit-identical to naive ones.
//
// Representation: each heap slot holds the packed key (load << 20) | index,
// so the lexicographic (load, index) comparison is a single int64 compare —
// measurably faster than a two-field comparator at planner bucket counts
// (tens of nodes / a few devices). The packing bounds buckets to 2^20 and
// loads to 2^43 tokens per bucket; both are checked and far beyond any
// cluster the planner targets.
#ifndef SRC_COMMON_LOAD_TRACKER_H_
#define SRC_COMMON_LOAD_TRACKER_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"

namespace zeppelin {

class LoadTracker {
 public:
  LoadTracker() = default;
  explicit LoadTracker(int n) { Reset(n); }

  // Re-initializes to `n` buckets, all loads zero. O(n); reuses storage, so a
  // tracker held in a scratch arena allocates only when `n` grows.
  void Reset(int n);

  // Re-initializes from explicit non-negative loads (heapify, O(n)).
  void Assign(const std::vector<int64_t>& loads);

  int size() const { return static_cast<int>(heap_.size()); }
  int64_t load(int i) const { return heap_[pos_[i]] >> kIndexBits; }

  // Bucket with the smallest (load, index). O(1).
  int argmin() const { return static_cast<int>(heap_[0] & kIndexMask); }
  int64_t min_load() const { return heap_[0] >> kIndexBits; }

  // Adds `delta` (may be negative; the load must stay >= 0) to bucket `i`'s
  // load. O(log n). Defined inline: this is the planner's innermost loop,
  // and a cross-TU call here costs as much as the sift itself.
  void add(int i, int64_t delta) {
    const int p = pos_[i];
    const int64_t key = heap_[p] + (delta << kIndexBits);
    // A negative key catches both a load driven below zero and (via the sign
    // bit) a load grown past kMaxLoad.
    ZCHECK_GE(key, 0) << "load out of range, bucket=" << i;
    ++ops_;
    if (delta >= 0) {
      SiftDownBounded(p, key, size());
    } else {
      SiftUp(p, key);
    }
  }

  // Fused argmin() + add(argmin, delta): places `delta` (>= 0) on the
  // least-loaded bucket and returns it. Skips the position lookup a generic
  // add needs (the root's position is 0 by invariant). O(log n).
  int add_min(int64_t delta) {
    const int64_t top = heap_[0];
    const int64_t key = top + (delta << kIndexBits);
    ZCHECK_GE(key, 0) << "load out of range";
    ++ops_;
    SiftDownBounded(0, key, size());
    return static_cast<int>(top & kIndexMask);
  }

  // Capacity-checked add_min: packs `delta` (>= 0) onto the least-loaded
  // bucket if the result stays within `cap`, returning the bucket; returns
  // -1 (and changes nothing) on overflow. The packing loops' innermost op.
  int pack_min(int64_t delta, int64_t cap) {
    const int64_t top = heap_[0];
    if ((top >> kIndexBits) + delta > cap) {
      return -1;
    }
    ++ops_;
    SiftDownBounded(0, top + (delta << kIndexBits), size());
    return static_cast<int>(top & kIndexMask);
  }

  // The k buckets with the smallest (load, index), ascending in that order
  // (pop k, then reinsert). O(k log n). `out` is overwritten, not reallocated
  // in steady state.
  void k_least(int k, std::vector<int>* out);

  // Heap-operation counter (one tick per public call plus one per level a
  // sift traverses). Lets tests assert the planner stays O((S + P) log P):
  // a reintroduced linear scan shows up as an op count explosion.
  int64_t ops() const { return ops_; }
  void ResetOps() { ops_ = 0; }

 private:
  static constexpr int kIndexBits = 20;
  static constexpr int64_t kIndexMask = (int64_t{1} << kIndexBits) - 1;
  static constexpr int64_t kMaxLoad = int64_t{1} << (62 - kIndexBits);

  // Sifts `key` from `pos` toward the root / the leaves until the heap
  // property holds, maintaining pos_. The bounded form operates on the
  // logical prefix heap [0, n) (used while k_least temporarily shrinks).
  void SiftUp(int pos, int64_t key) {
    while (pos > 0) {
      const int parent = (pos - 1) / 2;
      if (heap_[parent] < key) {
        break;
      }
      heap_[pos] = heap_[parent];
      pos_[heap_[pos] & kIndexMask] = pos;
      pos = parent;
      ++ops_;
    }
    heap_[pos] = key;
    pos_[key & kIndexMask] = pos;
  }
  void SiftDownBounded(int pos, int64_t key, int n) {
    for (;;) {
      int child = 2 * pos + 1;
      if (child >= n) {
        break;
      }
      if (child + 1 < n && heap_[child + 1] < heap_[child]) {
        ++child;
      }
      if (heap_[child] > key) {
        break;
      }
      heap_[pos] = heap_[child];
      pos_[heap_[pos] & kIndexMask] = pos;
      pos = child;
      ++ops_;
    }
    heap_[pos] = key;
    pos_[key & kIndexMask] = pos;
  }

  std::vector<int64_t> heap_;  // heap_[pos] = (load << kIndexBits) | bucket.
  std::vector<int> pos_;       // pos_[bucket] = heap position.
  int64_t ops_ = 0;
};

}  // namespace zeppelin

#endif  // SRC_COMMON_LOAD_TRACKER_H_
