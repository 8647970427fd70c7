// Streaming / online-batch workload model: deltas between consecutive
// iterations' batches, and a deterministic churn generator that produces them.
//
// In online training and continuous-batching serving, the batch of iteration
// t+1 is mostly the batch of iteration t: a handful of sequences finish
// (removed), new requests arrive (added), and some running sequences change
// length (resized, e.g. incremental decoding or re-chunked documents). A
// BatchDelta captures exactly that difference; the delta planner
// (src/core/delta_planner.h) consumes it to patch the previous PartitionPlan
// instead of re-partitioning all S sequences from scratch.
//
// Slot semantics: a Batch is treated as an array of sequence *slots* whose
// ids stay stable across deltas (a slot id is a seq_id everywhere in the
// planner). ApplyBatchDelta fills freed slots with added sequences first (in
// ascending slot order), appends any surplus additions as new tail slots, and
// turns surplus removals into zero-length tombstone slots. Tombstones remain
// valid sequences (zero tokens, packed as no-op locals) so slot ids never
// shift. ApplyBatchDelta itself only refills slots freed within the same
// delta; re-filling an older tombstone is a `resized` entry on that slot
// (that is how WorkloadStream revives the tombstones it creates).
#ifndef SRC_DATA_STREAM_H_
#define SRC_DATA_STREAM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/data/distribution.h"
#include "src/data/sampler.h"

namespace zeppelin {

// The difference between two consecutive batches. Slot ids in `removed` and
// `resized` refer to the batch the delta is applied to; `added` sequences get
// their slots assigned by ApplyBatchDelta (freed slots first, then the tail).
struct BatchDelta {
  std::vector<int> removed;                       // Slot ids to free.
  std::vector<std::pair<int, int64_t>> resized;   // (slot id, new length).
  std::vector<int64_t> added;                     // New sequence lengths.

  // Number of changed sequences (the churn count).
  int size() const {
    return static_cast<int>(removed.size() + resized.size() + added.size());
  }
  bool empty() const { return size() == 0; }
};

// Applies `delta` to `batch` in place under the slot semantics above. If
// `added_slots` is non-null it is overwritten with the slot id assigned to
// each `delta.added[i]`, in order — the mapping the delta planner needs to
// mirror the same placement in its own state. Slot ids must be in range and
// not repeated across removed/resized within one delta.
void ApplyBatchDelta(const BatchDelta& delta, Batch* batch,
                     std::vector<int>* added_slots = nullptr);

// The checked form of ApplyBatchDelta's preconditions for an untrusted delta:
// slots in `removed`/`resized` in range of `tracked` and not repeated across
// both lists, every length >= 0, and `tracked` with the delta applied equal
// to `request` slot for slot. False with `*why` set on the first violation.
bool CheckBatchDelta(const BatchDelta& delta, const Batch& tracked, const Batch& request,
                     std::string* why);

// --- Topology churn ---------------------------------------------------------
//
// Production clusters churn *topology* as well as batches: a GPU drops
// mid-run, a preempted node rejoins, a straggler runs slow. A TopologyDelta is
// the fabric-side sibling of BatchDelta: the difference between two
// consecutive fabric states, expressed against a fixed rank universe (ranks
// never renumber; a dead rank is a hole, not a shift — the same stability
// contract tombstone slots give sequences).

// Fixed-point scale for rank speed factors. Speeds are quantized once at the
// delta boundary so every consumer (planner, equivalence checker, cost model
// callers) sees the identical integer and load comparisons stay deterministic.
inline constexpr int64_t kSpeedScale = 1024;

// Quantizes a relative speed factor (1.0 = nominal) to kSpeedScale fixed
// point. factor must be > 0; results clamp to [1, 64 * kSpeedScale].
int64_t QuantizeSpeed(double factor);

// The difference between two consecutive fabric states. Ranks in
// `removed_ranks` must be alive, ranks in `added_ranks` must be dead; a rank
// may not appear in both within one delta. `speed_factors` entries re-rate a
// rank (alive or dead — a dead rank's factor sticks and applies on restore).
struct TopologyDelta {
  std::vector<int> removed_ranks;                    // Ranks killed.
  std::vector<int> added_ranks;                      // Ranks restored.
  std::vector<std::pair<int, double>> speed_factors;  // (rank, new factor).

  int size() const {
    return static_cast<int>(removed_ranks.size() + added_ranks.size() +
                            speed_factors.size());
  }
  bool empty() const { return size() == 0; }
};

// The running fabric state a consumer folds TopologyDeltas into: per-rank
// liveness plus quantized speed. Value type, cheap to copy/compare.
struct RankTopology {
  std::vector<uint8_t> alive;    // 1 = rank accepts work.
  std::vector<int64_t> speed_q;  // Quantized speed, kSpeedScale = nominal.

  // (Re)initializes to `world` ranks, all alive at nominal speed.
  void Reset(int world);
  // Folds one delta in. ZCHECKs the liveness preconditions above.
  void Apply(const TopologyDelta& delta);

  int world() const { return static_cast<int>(alive.size()); }
  int alive_count() const;
  // True when any rank is dead or off nominal speed — the planner's trigger
  // for heterogeneous-aware paths (the clean fabric keeps byte-identical
  // plans through the homogeneous code path).
  bool degraded() const;
  double speed(int rank) const {
    return static_cast<double>(speed_q[rank]) / static_cast<double>(kSpeedScale);
  }
  // Load of `tokens` on `rank` in speed-normalized units: tokens at nominal
  // speed, proportionally more on slow ranks. Integer and exact at nominal
  // speed so homogeneous comparisons are unchanged.
  int64_t EffectiveLoad(int rank, int64_t tokens) const {
    return tokens * kSpeedScale / speed_q[rank];
  }

  bool operator==(const RankTopology&) const = default;
};

// The checked form of RankTopology::Apply's preconditions for an untrusted
// delta against `current`: removed ranks in range, alive and not repeated,
// restored ranks in range, dead and not repeated, speed factors finite and
// > 0 on in-range ranks, and at least one rank alive afterwards. False with
// `*why` set on the first violation.
bool CheckTopologyDelta(const TopologyDelta& delta, const RankTopology& current,
                        std::string* why);

// Fault-injection knobs for FaultStream.
struct FaultStreamOptions {
  // Expected fraction of currently-alive ranks killed per Next(). Fractional
  // expectations accumulate across iterations (0.001 on 64 ranks kills one
  // rank roughly every 16 calls), so low rates still fire.
  double fault_rate = 0.01;
  // Iterations a killed rank stays dead before the stream restores it.
  // 0 = killed ranks never come back.
  int restore_after = 4;
  // Expected fraction of alive ranks whose speed factor is re-drawn per
  // Next() (stragglers). Accumulates like fault_rate.
  double slowdown_rate = 0.0;
  // Re-drawn factors are uniform on [min_speed, 1.0].
  double min_speed = 0.5;
  // Kills never take the alive count below this floor.
  int min_alive = 1;
};

// Deterministic fault injector: owns the evolving RankTopology and emits the
// TopologyDelta of each step — kill/restore/slowdown schedules in the
// WorkloadStream style. Two streams with the same world, options, and seed
// produce bit-identical delta sequences (the twin-stream soak contract).
class FaultStream {
 public:
  FaultStream(int world, FaultStreamOptions options, uint64_t seed);

  // The current fabric state (after all deltas emitted so far).
  const RankTopology& topology() const { return topo_; }

  // Advances one iteration: restores due ranks, kills and slows fresh
  // victims, folds the changes into the internal topology, and returns the
  // delta it just applied.
  TopologyDelta Next();

  const FaultStreamOptions& options() const { return options_; }

 private:
  RankTopology topo_;
  FaultStreamOptions options_;
  Rng rng_;
  int iter_ = 0;
  double kill_accum_ = 0.0;
  double slow_accum_ = 0.0;
  std::vector<std::pair<int, int>> pending_restore_;  // (due iteration, rank).
  std::vector<int> pick_buf_;  // Scratch for distinct-rank selection.
};

// Churn-generation knobs for WorkloadStream.
struct StreamOptions {
  // Identifies this stream to planning-side consumers: drivers that feed a
  // PlannerService (src/core/plan_service.h) use it as the delta-session key,
  // so concurrent streams get independent incremental state. Empty = the
  // stream synthesizes "stream-<seed>" (deterministic, collision-free across
  // distinct seeds).
  std::string stream_id = {};
  // Fraction of live (non-tombstone) slots changed per Next() call; at least
  // one sequence changes when the batch is non-empty.
  double churn_fraction = 0.01;
  // Of the churned slots, the fraction resized in place (re-sampled length);
  // the rest are removed and replaced by freshly sampled sequences.
  double resize_fraction = 0.5;
  // Probability that a replacement is withheld, leaving a tombstone for one
  // iteration — the stream revives it (as a `resized` entry with a freshly
  // sampled length) on the next Next(), so the live sequence count stays
  // stationary (exercises shrink/grow churn; 0 keeps the size constant).
  double drop_fraction = 0.0;
  // Sequence-length granularity for sampling (matches BatchSampler).
  int64_t granularity = 64;
};

// Deterministic workload-churn generator: owns the evolving Batch and emits
// the BatchDelta of each step. Two streams built from the same distribution,
// initial batch, options, and seed produce bit-identical delta sequences —
// the reproducibility contract the delta-planner soak tests and the
// planner-delta bench rely on.
class WorkloadStream {
 public:
  WorkloadStream(LengthDistribution dist, Batch initial, StreamOptions options,
                 uint64_t seed);

  // The current batch (after all deltas emitted so far).
  const Batch& batch() const { return batch_; }

  // The stream's planning-session key (StreamOptions::stream_id, or the
  // seed-derived default).
  const std::string& stream_id() const { return stream_id_; }

  // Advances one iteration: picks churned slots, applies the changes to the
  // internal batch, and returns the delta it just applied.
  BatchDelta Next();

  const StreamOptions& options() const { return options_; }

 private:
  LengthDistribution dist_;
  Batch batch_;
  StreamOptions options_;
  std::string stream_id_;
  Rng rng_;
  std::vector<int> pick_buf_;       // Scratch for distinct-slot selection.
  std::vector<int> pending_revive_;  // Tombstones created by the last Next().
};

}  // namespace zeppelin

#endif  // SRC_DATA_STREAM_H_
