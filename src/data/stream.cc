#include "src/data/stream.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace zeppelin {

void ApplyBatchDelta(const BatchDelta& delta, Batch* batch,
                     std::vector<int>* added_slots) {
  ZCHECK(batch != nullptr);
  if (added_slots != nullptr) {
    added_slots->clear();
  }

  // Resizes are direct slot writes.
  for (const auto& [slot, new_len] : delta.resized) {
    ZCHECK(slot >= 0 && slot < batch->size()) << "resize slot out of range: " << slot;
    ZCHECK_GE(new_len, 0);
    batch->seq_lens[slot] = new_len;
  }

  // Freed slots are refilled by additions in ascending slot order, so the
  // add -> slot mapping is a pure function of the delta (the determinism the
  // planner-side mirroring depends on).
  std::vector<int> freed = delta.removed;
  std::sort(freed.begin(), freed.end());
  size_t next_free = 0;
  for (int64_t len : delta.added) {
    ZCHECK_GE(len, 0);
    int slot;
    if (next_free < freed.size()) {
      slot = freed[next_free++];
      ZCHECK(slot >= 0 && slot < batch->size()) << "removed slot out of range: " << slot;
    } else {
      slot = batch->size();
      batch->seq_lens.push_back(0);
    }
    batch->seq_lens[slot] = len;
    if (added_slots != nullptr) {
      added_slots->push_back(slot);
    }
  }
  // Surplus removals become zero-length tombstones: the slot stays, carrying
  // no tokens, so every other slot id remains stable.
  for (; next_free < freed.size(); ++next_free) {
    const int slot = freed[next_free];
    ZCHECK(slot >= 0 && slot < batch->size()) << "removed slot out of range: " << slot;
    batch->seq_lens[slot] = 0;
  }
}

bool CheckBatchDelta(const BatchDelta& delta, const Batch& tracked, const Batch& request,
                     std::string* why) {
  std::vector<uint8_t> seen(tracked.size(), 0);
  for (int slot : delta.removed) {
    if (slot < 0 || slot >= tracked.size() || seen[slot]) {
      *why = "delta removes an out-of-range or repeated slot";
      return false;
    }
    seen[slot] = 1;
  }
  for (const auto& [slot, len] : delta.resized) {
    if (slot < 0 || slot >= tracked.size() || seen[slot] || len < 0) {
      *why = "delta resizes an out-of-range or repeated slot, or to a negative length";
      return false;
    }
    seen[slot] = 1;
  }
  if (std::any_of(delta.added.begin(), delta.added.end(), [](int64_t len) { return len < 0; })) {
    *why = "delta adds a negative length";
    return false;
  }
  Batch patched = tracked;
  ApplyBatchDelta(delta, &patched);
  if (patched.seq_lens != request.seq_lens) {
    *why = "delta applied to the session's tracked batch does not produce the request batch";
    return false;
  }
  return true;
}

int64_t QuantizeSpeed(double factor) {
  ZCHECK_GT(factor, 0.0) << "speed factor must be positive";
  const double scaled = factor * static_cast<double>(kSpeedScale) + 0.5;
  const int64_t q = static_cast<int64_t>(scaled);
  return std::clamp<int64_t>(q, 1, 64 * kSpeedScale);
}

void RankTopology::Reset(int world) {
  ZCHECK_GT(world, 0);
  alive.assign(world, 1);
  speed_q.assign(world, kSpeedScale);
}

void RankTopology::Apply(const TopologyDelta& delta) {
  for (int rank : delta.removed_ranks) {
    ZCHECK(rank >= 0 && rank < world()) << "removed rank out of range: " << rank;
    ZCHECK(alive[rank]) << "removed rank already dead: " << rank;
    alive[rank] = 0;
  }
  for (int rank : delta.added_ranks) {
    ZCHECK(rank >= 0 && rank < world()) << "added rank out of range: " << rank;
    ZCHECK(!alive[rank]) << "added rank already alive: " << rank;
    alive[rank] = 1;
  }
  for (const auto& [rank, factor] : delta.speed_factors) {
    ZCHECK(rank >= 0 && rank < world()) << "speed rank out of range: " << rank;
    speed_q[rank] = QuantizeSpeed(factor);
  }
}

bool CheckTopologyDelta(const TopologyDelta& delta, const RankTopology& current,
                        std::string* why) {
  // Per rank: 0 dead, 1 alive, 2 killed or 3 restored by this delta (odd =
  // alive afterwards).
  const int world = current.world();
  std::vector<uint8_t> state = current.alive;
  for (int rank : delta.removed_ranks) {
    if (rank < 0 || rank >= world || state[rank] != 1) {
      *why = "topology removes an out-of-range, dead, or repeated rank";
      return false;
    }
    state[rank] = 2;
  }
  for (int rank : delta.added_ranks) {
    if (rank < 0 || rank >= world || state[rank] != 0) {
      *why = "topology restores an out-of-range, alive, or repeated rank";
      return false;
    }
    state[rank] = 3;
  }
  for (const auto& [rank, factor] : delta.speed_factors) {
    if (rank < 0 || rank >= world || !std::isfinite(factor) || factor <= 0) {
      *why = "topology speed factor out of range";
      return false;
    }
  }
  if (std::none_of(state.begin(), state.end(), [](uint8_t s) { return s & 1; })) {
    *why = "topology would leave no alive ranks";
    return false;
  }
  return true;
}

int RankTopology::alive_count() const {
  int count = 0;
  for (uint8_t a : alive) {
    count += a ? 1 : 0;
  }
  return count;
}

bool RankTopology::degraded() const {
  for (uint8_t a : alive) {
    if (!a) {
      return true;
    }
  }
  for (int64_t q : speed_q) {
    if (q != kSpeedScale) {
      return true;
    }
  }
  return false;
}

FaultStream::FaultStream(int world, FaultStreamOptions options, uint64_t seed)
    : options_(options), rng_(seed) {
  topo_.Reset(world);
  ZCHECK(options_.fault_rate >= 0 && options_.fault_rate <= 1.0);
  ZCHECK(options_.slowdown_rate >= 0 && options_.slowdown_rate <= 1.0);
  ZCHECK(options_.min_speed > 0 && options_.min_speed <= 1.0);
  ZCHECK_GE(options_.restore_after, 0);
  ZCHECK(options_.min_alive >= 1 && options_.min_alive <= world);
}

TopologyDelta FaultStream::Next() {
  TopologyDelta delta;

  // Restores due this iteration come first (FIFO by due time; pending_restore_
  // is appended in kill order, so it is already sorted by due iteration).
  size_t due = 0;
  while (due < pending_restore_.size() && pending_restore_[due].first <= iter_) {
    delta.added_ranks.push_back(pending_restore_[due].second);
    ++due;
  }
  pending_restore_.erase(pending_restore_.begin(), pending_restore_.begin() + due);

  // Kill victims are drawn from the ranks alive *before* the restores above,
  // so one delta never removes and adds the same rank.
  const int world = topo_.world();
  pick_buf_.clear();
  for (int rank = 0; rank < world; ++rank) {
    if (topo_.alive[rank]) {
      pick_buf_.push_back(rank);
    }
  }
  const int alive = static_cast<int>(pick_buf_.size());
  const int alive_after_restores = alive + static_cast<int>(delta.added_ranks.size());

  // Fractional kill expectations accumulate so sub-1-per-iteration rates
  // still fire deterministically.
  kill_accum_ += options_.fault_rate * alive;
  int kills = static_cast<int>(kill_accum_);
  kills = std::clamp(kills, 0, std::max(0, alive_after_restores - options_.min_alive));
  kills = std::min(kills, alive);
  kill_accum_ -= kills;

  for (int i = 0; i < kills; ++i) {
    const int j = i + static_cast<int>(rng_.NextBounded(static_cast<uint64_t>(alive - i)));
    std::swap(pick_buf_[i], pick_buf_[j]);
    const int rank = pick_buf_[i];
    delta.removed_ranks.push_back(rank);
    if (options_.restore_after > 0) {
      pending_restore_.emplace_back(iter_ + options_.restore_after, rank);
    }
  }

  // Slowdowns re-rate survivors (alive before restores, not killed above).
  slow_accum_ += options_.slowdown_rate * (alive - kills);
  int slows = static_cast<int>(slow_accum_);
  slows = std::clamp(slows, 0, alive - kills);
  slow_accum_ -= slows;
  for (int i = 0; i < slows; ++i) {
    const int j =
        kills + i + static_cast<int>(rng_.NextBounded(static_cast<uint64_t>(alive - kills - i)));
    std::swap(pick_buf_[kills + i], pick_buf_[j]);
    const int rank = pick_buf_[kills + i];
    const double factor =
        options_.min_speed + (1.0 - options_.min_speed) * rng_.NextDouble();
    delta.speed_factors.emplace_back(rank, factor);
  }

  topo_.Apply(delta);
  ++iter_;
  return delta;
}

WorkloadStream::WorkloadStream(LengthDistribution dist, Batch initial,
                               StreamOptions options, uint64_t seed)
    : dist_(std::move(dist)), batch_(std::move(initial)), options_(std::move(options)), rng_(seed) {
  stream_id_ =
      options_.stream_id.empty() ? "stream-" + std::to_string(seed) : options_.stream_id;
  ZCHECK_GT(batch_.size(), 0);
  ZCHECK(options_.churn_fraction >= 0 && options_.churn_fraction <= 1.0);
  ZCHECK(options_.resize_fraction >= 0 && options_.resize_fraction <= 1.0);
  ZCHECK(options_.drop_fraction >= 0 && options_.drop_fraction <= 1.0);
}

BatchDelta WorkloadStream::Next() {
  const int n = batch_.size();
  int live = 0;
  for (int64_t len : batch_.seq_lens) {
    live += len > 0 ? 1 : 0;
  }
  int churn = static_cast<int>(options_.churn_fraction * live + 0.5);
  churn = std::clamp(churn, live > 0 ? 1 : 0, live);

  // Distinct live slots, chosen by partial Fisher-Yates over the slot ids.
  pick_buf_.resize(n);
  int live_count = 0;
  for (int slot = 0; slot < n; ++slot) {
    if (batch_.seq_lens[slot] > 0) {
      pick_buf_[live_count++] = slot;
    }
  }
  BatchDelta delta;
  // Tombstones from the previous iteration revive first (a dropped
  // replacement is withheld for exactly one iteration), keeping the live
  // count stationary under drop churn.
  for (int slot : pending_revive_) {
    delta.resized.emplace_back(slot, dist_.Sample(rng_, options_.granularity));
  }
  pending_revive_.clear();
  for (int i = 0; i < churn; ++i) {
    const int j = i + static_cast<int>(rng_.NextBounded(static_cast<uint64_t>(live_count - i)));
    std::swap(pick_buf_[i], pick_buf_[j]);
    const int slot = pick_buf_[i];
    if (rng_.NextDouble() < options_.resize_fraction) {
      delta.resized.emplace_back(slot, dist_.Sample(rng_, options_.granularity));
    } else {
      delta.removed.push_back(slot);
      if (rng_.NextDouble() >= options_.drop_fraction) {
        delta.added.push_back(dist_.Sample(rng_, options_.granularity));
      }
    }
  }
  ApplyBatchDelta(delta, &batch_);
  // The slots that actually became tombstones are the surplus removals —
  // the highest freed slots, since additions refill in ascending order (not
  // necessarily the slots whose replacements were withheld). Queue exactly
  // those for next iteration's revival.
  if (delta.removed.size() > delta.added.size()) {
    std::vector<int> freed = delta.removed;
    std::sort(freed.begin(), freed.end());
    pending_revive_.assign(freed.begin() + delta.added.size(), freed.end());
  }
  return delta;
}

}  // namespace zeppelin
