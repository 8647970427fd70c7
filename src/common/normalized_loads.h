// Bucket loads under the degraded-fabric packing rule — the planner's packing
// primitive wherever buckets run at different speeds or capacities.
//
// The rule: an item of `len` tokens goes to the bucket of least
// speed-normalized load raw * nominal / rate whose raw load still fits it
// under the bucket's capacity; ties go to the lowest index; a bucket of rate
// 0 (dead) never takes work. Nodes use their alive speed sums against
// P * kSpeedScale and capacity m*L (the engine's degraded z2 and z01
// placement, the delta planner's added-sequence and migrant picks); devices
// use their own speeds against kSpeedScale and capacity L (the degraded z0
// packing). With equal rates and capacities it is the homogeneous rule: if
// the least-loaded bucket has no room, none has.
//
// Normalized loads are cached per bucket and refreshed on Add(), so a pick
// is a division-free scan. Only degraded fabrics pack through this class;
// clean ones keep LoadTracker / GreedyPacker. The keys are plain int64, not
// LoadTracker's packed 42-bit loads: at the slowest speed the wire admits
// (q = 1) a node with one alive device has normalized load
// raw * P * kSpeedScale, which passes 2^42 once raw exceeds 2^32 / P tokens.
#ifndef SRC_COMMON_NORMALIZED_LOADS_H_
#define SRC_COMMON_NORMALIZED_LOADS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace zeppelin {

class NormalizedLoads {
 public:
  // Re-initializes to the buckets of `rates` with raw loads `loads` and raw
  // capacities cap_of(b). Reuses storage.
  template <typename CapFn>
  void Assign(std::span<const int64_t> rates, int64_t nominal, std::span<const int64_t> loads,
              CapFn&& cap_of) {
    nominal_ = nominal;
    rates_.assign(rates.begin(), rates.end());
    loads_.assign(loads.begin(), loads.end());
    rooms_.resize(rates.size());
    keys_.resize(rates.size());
    for (size_t b = 0; b < rates.size(); ++b) {
      // A dead bucket's room stays negative: it never fits even len 0.
      rooms_[b] = rates[b] > 0 ? cap_of(static_cast<int>(b)) - loads_[b] : -1;
      keys_[b] = Key(b);
    }
  }

  const std::vector<int64_t>& loads() const { return loads_; }
  // Speed-normalized load of bucket b.
  int64_t key(int b) const { return keys_[b]; }
  int64_t room(int b) const { return rooms_[b]; }

  void Add(int b, int64_t len) {
    loads_[b] += len;
    rooms_[b] -= len;
    keys_[b] = Key(b);
  }

  // The bucket the rule picks for `len`; -1 when nothing fits.
  int Pick(int64_t len) const {
    int best = -1;
    int64_t best_key = INT64_MAX;
    for (int b = 0; b < static_cast<int>(keys_.size()); ++b) {
      if (len <= rooms_[b] && keys_[b] < best_key) {
        best = b;
        best_key = keys_[b];
      }
    }
    return best;
  }

 private:
  int64_t Key(size_t b) const { return rates_[b] > 0 ? loads_[b] * nominal_ / rates_[b] : 0; }

  int64_t nominal_ = 0;
  std::vector<int64_t> rates_;
  std::vector<int64_t> loads_;
  std::vector<int64_t> rooms_;  // Raw capacity minus raw load.
  std::vector<int64_t> keys_;
};

}  // namespace zeppelin

#endif  // SRC_COMMON_NORMALIZED_LOADS_H_
