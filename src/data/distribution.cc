#include "src/data/distribution.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace zeppelin {

LengthDistribution::LengthDistribution(std::string name, std::vector<LengthBin> bins)
    : name_(std::move(name)), bins_(std::move(bins)) {
  ZCHECK(!bins_.empty());
  for (const auto& b : bins_) {
    ZCHECK_GT(b.hi, b.lo);
    ZCHECK_GE(b.lo, 0);
    ZCHECK_GE(b.weight, 0.0);
    total_weight_ += b.weight;
  }
  ZCHECK_GT(total_weight_, 0.0) << "distribution " << name_ << " has no mass";
}

int64_t LengthDistribution::Sample(Rng& rng, int64_t granularity) const {
  ZCHECK_GT(granularity, 0);
  std::vector<double> weights(bins_.size());
  for (size_t i = 0; i < bins_.size(); ++i) {
    weights[i] = bins_[i].weight;
  }
  const auto& bin = bins_[rng.NextWeighted(weights)];
  // Log-uniform within the bin captures the long-tailed within-bin shape.
  const double lo = std::max<double>(static_cast<double>(bin.lo), 1.0);
  const double hi = static_cast<double>(bin.hi);
  const double log_len = std::log(lo) + rng.NextDouble() * (std::log(hi) - std::log(lo));
  int64_t len = static_cast<int64_t>(std::exp(log_len));
  // Round to granularity, clamping inside the bin.
  len = (len / granularity) * granularity;
  len = std::clamp<int64_t>(len, std::max<int64_t>(granularity, bin.lo), bin.hi - 1);
  // Final clamp can leave a non-multiple at bin.hi - 1; round down once more
  // but never below granularity.
  len = std::max<int64_t>((len / granularity) * granularity, granularity);
  return len;
}

double LengthDistribution::MassInRange(int64_t lo, int64_t hi) const {
  double mass = 0;
  for (const auto& b : bins_) {
    const int64_t olo = std::max(lo, b.lo);
    const int64_t ohi = std::min(hi, b.hi);
    if (ohi <= olo) {
      continue;
    }
    const double frac = static_cast<double>(ohi - olo) / static_cast<double>(b.hi - b.lo);
    mass += b.weight * frac;
  }
  return mass / total_weight_;
}

double LengthDistribution::TokenShareInRange(int64_t lo, int64_t hi) const {
  // Expected tokens from a bin ~ weight * midpoint (uniform-midpoint
  // approximation is adequate for reporting shares).
  double in_range = 0;
  double total = 0;
  for (const auto& b : bins_) {
    const double mid = 0.5 * static_cast<double>(b.lo + b.hi);
    total += b.weight * mid;
    const int64_t olo = std::max(lo, b.lo);
    const int64_t ohi = std::min(hi, b.hi);
    if (ohi <= olo) {
      continue;
    }
    const double frac = static_cast<double>(ohi - olo) / static_cast<double>(b.hi - b.lo);
    const double omid = 0.5 * static_cast<double>(olo + ohi);
    in_range += b.weight * frac * omid;
  }
  ZCHECK_GT(total, 0.0);
  return in_range / total;
}

double LengthDistribution::MeanLength() const {
  double acc = 0;
  for (const auto& b : bins_) {
    acc += b.weight * 0.5 * static_cast<double>(b.lo + b.hi);
  }
  return acc / total_weight_;
}

int64_t LengthDistribution::MaxLength() const {
  int64_t max_len = 0;
  for (const auto& b : bins_) {
    if (b.weight > 0) {
      max_len = std::max(max_len, b.hi - 1);
    }
  }
  return max_len;
}

std::vector<int64_t> StandardBinEdges() {
  return {0, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144};
}

std::string BinLabel(int64_t lo, int64_t hi) {
  auto k = [](int64_t v) { return std::to_string(v / 1024) + "k"; };
  if (lo == 0) {
    return std::string("<").append(k(hi));
  }
  return std::to_string(lo / 1024) + "-" + k(hi);
}

}  // namespace zeppelin
