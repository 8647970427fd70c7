#include "src/core/plan_verify.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "src/obs/trace.h"

namespace zeppelin {

namespace {

PlanVerifyResult Reject(PlanVerifyStatus status, const std::string& message) {
  PlanVerifyResult result;
  result.status = status;
  result.message = message;
  return result;
}

// A rejection whose message streams `parts` in order. Cold and out of line:
// the per-entry loops below only branch to it, so they carry no stream code.
template <typename... Parts>
[[gnu::cold, gnu::noinline]] PlanVerifyResult RejectWith(PlanVerifyStatus status,
                                                         const Parts&... parts) {
  std::ostringstream msg;
  (msg << ... << parts);
  return Reject(status, msg.str());
}

// The largest per-rank share a ring of `length` over `group` positions must
// grant somewhere: position i holds chunks i and 2G-1-i, i.e. two chunks of
// at most ceil(length / 2G) tokens each. Used as the indivisible-unit floor
// of the balance certificate (never smaller than the engines' actual max
// position share, so the certificate stays sound for every legal plan).
int64_t RingUnit(int64_t length, uint32_t group) {
  if (group == 0 || length <= 0) {
    return 0;
  }
  const int64_t half = 2 * static_cast<int64_t>(group);
  return 2 * ((length + half - 1) / half);
}

}  // namespace

const char* PlanVerifyStatusName(PlanVerifyStatus status) {
  switch (status) {
    case PlanVerifyStatus::kOk:
      return "ok";
    case PlanVerifyStatus::kMalformed:
      return "malformed";
    case PlanVerifyStatus::kArenaBounds:
      return "arena-bounds";
    case PlanVerifyStatus::kArenaOverlap:
      return "arena-overlap";
    case PlanVerifyStatus::kRankRange:
      return "rank-range";
    case PlanVerifyStatus::kDeadRank:
      return "dead-rank";
    case PlanVerifyStatus::kCoverage:
      return "coverage";
    case PlanVerifyStatus::kLengthMismatch:
      return "length-mismatch";
    case PlanVerifyStatus::kTokenMismatch:
      return "token-mismatch";
    case PlanVerifyStatus::kCapacityOverflow:
      return "capacity-overflow";
    case PlanVerifyStatus::kEpsImbalance:
      return "eps-imbalance";
  }
  return "unknown";
}

PlanVerifyResult VerifyPlan(const PartitionPlan& plan, const Batch* batch,
                            const RankTopology* topology,
                            const PlanVerifyOptions& options) {
  // Every certification site (cache insert/serve, daemon verify-before-serve,
  // client-side verify, --plan_in) shares this one span.
  obs::TraceScope verify_span(obs::Stage::kVerify);
  // --- Clause 1: well-formedness -------------------------------------------
  if (plan.tokens_per_rank.empty()) {
    return Reject(PlanVerifyStatus::kMalformed, "plan declares an empty rank universe");
  }
  const int world = static_cast<int>(plan.tokens_per_rank.size());
  if (options.world > 0 && world != options.world) {
    return RejectWith(PlanVerifyStatus::kMalformed, "plan targets ", world,
                      " ranks but the fabric has ", options.world);
  }
  if (topology != nullptr && topology->world() != world) {
    return RejectWith(PlanVerifyStatus::kMalformed, "plan targets ", world,
                      " ranks but the topology tracks ", topology->world());
  }
  for (int64_t tokens : plan.tokens_per_rank) {
    if (tokens < 0) {
      return Reject(PlanVerifyStatus::kMalformed, "negative declared rank load");
    }
  }
  auto headers_well_formed = [&](const std::vector<RingRef>& queue) {
    for (const RingRef& ring : queue) {
      if (ring.length < 0 || (ring.length > 0 && ring.rank_count == 0)) {
        return false;
      }
    }
    return true;
  };
  if (!headers_well_formed(plan.inter_node) || !headers_well_formed(plan.intra_node)) {
    return Reject(PlanVerifyStatus::kMalformed,
                  "ring with a negative length or an empty rank group");
  }
  for (const LocalSequence& seq : plan.local) {
    if (seq.length < 0) {
      return Reject(PlanVerifyStatus::kMalformed, "local with a negative length");
    }
  }

  // --- Clause 2: arena bounds + disjointness -------------------------------
  // (Tightness is not required — delta-patched plans legally carry slack.)
  std::vector<uint8_t> used(plan.rank_arena.size(), 0);
  PlanVerifyStatus arena_status = PlanVerifyStatus::kOk;
  auto check_arena = [&](const std::vector<RingRef>& queue) {
    for (const RingRef& ring : queue) {
      if (static_cast<size_t>(ring.rank_offset) + ring.rank_count > plan.rank_arena.size()) {
        arena_status = PlanVerifyStatus::kArenaBounds;
        return false;
      }
      for (uint32_t f = 0; f < ring.rank_count; ++f) {
        if (used[ring.rank_offset + f]++) {
          arena_status = PlanVerifyStatus::kArenaOverlap;
          return false;
        }
      }
    }
    return true;
  };
  if (!check_arena(plan.inter_node) || !check_arena(plan.intra_node)) {
    return Reject(arena_status, arena_status == PlanVerifyStatus::kArenaBounds
                                    ? "ring span outside the rank arena"
                                    : "overlapping live ring spans in the arena");
  }

  // --- Clause 3: rank validity + liveness ----------------------------------
  std::vector<uint8_t> touched(world, 0);
  auto check_rank = [&](int rank) {
    if (rank < 0 || rank >= world) {
      return PlanVerifyStatus::kRankRange;
    }
    if (topology != nullptr && !topology->alive[rank]) {
      return PlanVerifyStatus::kDeadRank;
    }
    touched[rank] = 1;
    return PlanVerifyStatus::kOk;
  };
  for (const std::vector<RingRef>* queue : {&plan.inter_node, &plan.intra_node}) {
    for (const RingRef& ring : *queue) {
      for (int rank : plan.ranks(ring)) {
        const PlanVerifyStatus s = check_rank(rank);
        if (s != PlanVerifyStatus::kOk) {
          return RejectWith(s, "ring for sequence ", ring.seq_id, " references rank ", rank);
        }
      }
    }
  }
  for (const LocalSequence& seq : plan.local) {
    if (seq.length == 0) {
      continue;  // Tombstone slot: carries no work, rank is vestigial.
    }
    const PlanVerifyStatus s = check_rank(seq.rank);
    if (s != PlanVerifyStatus::kOk) {
      return RejectWith(s, "local sequence ", seq.seq_id, " placed on rank ", seq.rank);
    }
  }
  if (topology != nullptr) {
    for (int rank = 0; rank < world; ++rank) {
      if (!topology->alive[rank] && plan.tokens_per_rank[rank] != 0) {
        return RejectWith(PlanVerifyStatus::kDeadRank, "dead rank ", rank, " declares ",
                          plan.tokens_per_rank[rank], " tokens");
      }
    }
  }

  // --- Clause 4: coverage + length agreement -------------------------------
  // With a batch: exactly the batch universe, lengths matching. Without:
  // exactly the implied universe [0, max_seq_id], each id once.
  int universe = batch != nullptr ? batch->size() : 0;
  if (batch == nullptr) {
    auto fold_max = [&](int seq_id) { universe = std::max(universe, seq_id + 1); };
    for (const RingRef& ring : plan.inter_node) fold_max(ring.seq_id);
    for (const RingRef& ring : plan.intra_node) fold_max(ring.seq_id);
    for (const LocalSequence& seq : plan.local) fold_max(seq.seq_id);
  }
  std::vector<uint8_t> seen(universe, 0);
  int64_t entry_tokens = 0;
  int64_t unit_max = 0;  // Largest indivisible per-rank share (clause 7).
  PlanVerifyResult verdict;
  auto tally = [&](int seq_id, int64_t length, int64_t unit) {
    if (seq_id < 0 || seq_id >= universe) {
      verdict = RejectWith(PlanVerifyStatus::kCoverage, "sequence ", seq_id,
                           " outside the batch universe [0, ", universe, ")");
      return false;
    }
    if (seen[seq_id]++) {
      verdict = RejectWith(PlanVerifyStatus::kCoverage, "sequence ", seq_id,
                           " covered more than once");
      return false;
    }
    if (batch != nullptr && length != batch->seq_lens[seq_id]) {
      verdict = RejectWith(PlanVerifyStatus::kLengthMismatch, "sequence ", seq_id,
                           " planned at length ", length, " but the batch has ",
                           batch->seq_lens[seq_id]);
      return false;
    }
    entry_tokens += length;
    unit_max = std::max(unit_max, unit);
    return true;
  };
  for (const RingRef& ring : plan.inter_node) {
    if (!tally(ring.seq_id, ring.length, RingUnit(ring.length, ring.rank_count))) {
      return verdict;
    }
  }
  for (const RingRef& ring : plan.intra_node) {
    if (!tally(ring.seq_id, ring.length, RingUnit(ring.length, ring.rank_count))) {
      return verdict;
    }
  }
  for (const LocalSequence& seq : plan.local) {
    if (!tally(seq.seq_id, seq.length, seq.length)) {
      return verdict;
    }
  }
  for (int seq_id = 0; seq_id < universe; ++seq_id) {
    if (!seen[seq_id]) {
      return RejectWith(PlanVerifyStatus::kCoverage, "sequence ", seq_id,
                        " is not covered by any plan entry");
    }
  }

  // --- Clause 5: token conservation ----------------------------------------
  const int64_t expected = batch != nullptr ? batch->total_tokens() : entry_tokens;
  const int64_t declared = plan.total_tokens();
  if (declared != expected || entry_tokens != expected) {
    return RejectWith(PlanVerifyStatus::kTokenMismatch, "declared loads sum to ", declared,
                      ", entries to ", entry_tokens, ", batch holds ", expected);
  }
  for (int rank = 0; rank < world; ++rank) {
    if (plan.tokens_per_rank[rank] > 0 && !touched[rank]) {
      return RejectWith(PlanVerifyStatus::kTokenMismatch, "rank ", rank, " declares ",
                        plan.tokens_per_rank[rank], " tokens but no entry touches it");
    }
  }

  // --- Clause 6: capacity ---------------------------------------------------
  if (options.token_capacity > 0) {
    for (int rank = 0; rank < world; ++rank) {
      if (plan.tokens_per_rank[rank] > options.token_capacity) {
        return RejectWith(PlanVerifyStatus::kCapacityOverflow, "rank ", rank, " carries ",
                          plan.tokens_per_rank[rank], " tokens over the capacity ",
                          options.token_capacity);
      }
    }
  }

  // --- Clause 7: eps max-load certificate ----------------------------------
  if (options.eps >= 0 && expected > 0) {
    int64_t speed_sum = 0;
    int64_t max_eff = 0;
    int64_t min_speed = kSpeedScale;
    for (int rank = 0; rank < world; ++rank) {
      if (topology != nullptr) {
        if (!topology->alive[rank]) {
          continue;
        }
        speed_sum += topology->speed_q[rank];
        min_speed = std::min(min_speed, topology->speed_q[rank]);
        max_eff = std::max(max_eff, topology->EffectiveLoad(rank, plan.tokens_per_rank[rank]));
      } else {
        speed_sum += kSpeedScale;
        max_eff = std::max(max_eff, plan.tokens_per_rank[rank]);
      }
    }
    // Perfectly balanced speed-weighted effective load (homogeneous: the
    // plain per-rank average), plus the indivisible-unit floor valued at the
    // slowest surviving rank — together the certificate every greedy engine
    // meets by construction (max <= avg + max_item sits strictly inside).
    const double ideal =
        static_cast<double>(expected) * static_cast<double>(kSpeedScale) /
        static_cast<double>(std::max<int64_t>(speed_sum, 1));
    const double unit_eff = static_cast<double>(unit_max) *
                            static_cast<double>(kSpeedScale) /
                            static_cast<double>(std::max<int64_t>(min_speed, 1));
    const double allowed = (1.0 + options.eps) * ideal + unit_eff;
    verdict.max_load_ratio =
        ideal > 0 ? static_cast<double>(max_eff) / ideal : 0;
    if (static_cast<double>(max_eff) > allowed) {
      PlanVerifyResult result =
          RejectWith(PlanVerifyStatus::kEpsImbalance, "max effective rank load ", max_eff,
                     " exceeds the (1+eps) bound ", allowed, " (ideal ", ideal, ", unit ",
                     unit_eff, ")");
      result.max_load_ratio = verdict.max_load_ratio;
      return result;
    }
  }

  verdict.status = PlanVerifyStatus::kOk;
  verdict.message.clear();
  return verdict;
}

PlanVerifyResult VerifyPlan(const PartitionPlan& plan, const Batch& batch,
                            const FabricResources& fabric,
                            const PlanVerifyOptions& options) {
  PlanVerifyOptions opts = options;
  if (opts.world == 0) {
    opts.world = fabric.cluster().world_size();
  }
  if (!fabric.heterogeneous()) {
    return VerifyPlan(plan, &batch, nullptr, opts);
  }
  RankTopology topo;
  topo.Reset(fabric.cluster().world_size());
  for (int rank = 0; rank < topo.world(); ++rank) {
    topo.speed_q[rank] = QuantizeSpeed(fabric.rank_speed(rank));
  }
  return VerifyPlan(plan, &batch, &topo, opts);
}

}  // namespace zeppelin
