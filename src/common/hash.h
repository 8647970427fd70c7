// The repo's 64-bit hashing idioms, shared by the content-addressed plan
// cache (src/core/plan_cache.cc), the identities the objects it keys on
// keep current (FabricResources::digest()) and PartitionPlan::StateDigest.
#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <bit>
#include <cstdint>
#include <string>

namespace zeppelin {

// FNV-1a over fixed-width values (PartitionPlan::StateDigest's idiom): mix
// each value into a running hash; strings are mixed byte-wise.
inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  // Folds 8 bytes at a time: FNV-1a is defined bytewise, but a 64-bit fold
  // keeps the same avalanche quality at 1/8 the multiplies, and a digest
  // only needs to be a stable fingerprint, not the reference constant.
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

// Full-avalanche 64-bit finalizer (splitmix64). A commutative digest that
// sums per-element hashes needs it: a single FNV step distributes over the
// sum, and for values whose set bits miss the offset's the xor degrades to
// addition, making the sum a function of (count, total) alone. Avalanching
// each element first makes the sum depend on the actual multiset.
inline uint64_t AvalancheMix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace zeppelin

#endif  // SRC_COMMON_HASH_H_
