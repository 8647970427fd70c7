// Task model for the discrete-event cluster simulator.
//
// A training step is expressed as a DAG of tasks. Each task occupies a set of
// fabric resources (compute lanes, NVSwitch channels, NIC channels) for its
// whole duration; resources serialize tasks FIFO in program order, which is
// how CUDA streams and NCCL channels behave. The simulator executes the DAG
// and reports the makespan plus per-resource utilization — the schedule-level
// quantities all of the paper's comparisons are about.
//
// Tasks live in a TaskGraph as flat columns (src/sim/graph.h); `Task` is a
// read-only view of one of them. Labels are stored as small TaskLabel records
// and formatted into text only on demand (TaskGraph::Label).
#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>
#include <string>
#include <string_view>

#include "src/common/check.h"
#include "src/topology/path.h"

namespace zeppelin {

using TaskId = int32_t;
inline constexpr TaskId kInvalidTask = -1;

enum class TaskCategory : uint8_t {
  kAttentionCompute = 0,
  kLinearCompute,
  kOtherCompute,
  kIntraComm,     // NVSwitch point-to-point.
  kInterComm,     // NIC point-to-point.
  kDispatchComm,  // Routing layer step 1 (intra-node scatter to proxies).
  kCombineComm,   // Routing layer step 3 (intra-node gather from proxies).
  kRemapComm,     // Remapping layer all-to-allv traffic.
  kBarrier,
};
inline constexpr int kNumTaskCategories = 9;

const char* TaskCategoryName(TaskCategory category);

// True for the communication categories (anything that moves bytes).
bool IsCommCategory(TaskCategory category);

// Read-only view of one task of a TaskGraph; valid until the graph changes.
struct Task {
  double duration_us = 0;
  TaskCategory category = TaskCategory::kBarrier;
  // Resources occupied for the full duration (empty => pure scheduling node).
  std::span<const ResourceId> resources;
  std::span<const TaskId> deps;
  int64_t bytes = 0;  // For transfers.
  int gpu = -1;       // Owning GPU (compute) or source GPU (transfers).
};

// Dependency list argument: a non-owning span of task ids that also accepts
// braced lists (`{}`, `{a, b}`) and vectors. A braced list lives until the
// end of the call it is passed to, which is as long as the graph needs it.
class DepSpan : public std::span<const TaskId> {
  using Base = std::span<const TaskId>;

 public:
  using Base::Base;
  DepSpan() = default;
  DepSpan(Base ids) : Base(ids) {}
  DepSpan(std::initializer_list<TaskId> ids) : Base(ids.begin(), ids.size()) {}
};

// --- Labels -----------------------------------------------------------------
//
// A label is an interned stem (text such as "fwd" or "fwd.remap_in") followed
// by up to three suffixes. Each suffix kind has a fixed format in which every
// '#' is replaced by the next integer argument, so "fwd" + kInterRing(12) +
// kKv(3, 5) + kDispatch(1) reads "fwd.inter.s12.kv.r3.5.dispatch.1".

enum class LabelSuffix : uint8_t {
  kNone = 0,
  // Attention engine and ring attention.
  kInterRing,
  kIntraRing,
  kKv,
  kAttnRound,
  kLocalVarlen,
  kAttnDone,
  // Routing layer.
  kDispatch,
  kNic,
  kCombine,
  kRoutedDone,
  // Collectives, remapping and linear stages.
  kDone,
  kDoneRank,
  kAllGatherHop,
  kAllToAllHop,
  kAllReduceHop,
  kNoRemap,
  kLinear,
  // Baselines.
  kDoubleRingKv,
  kDoubleRingAttn,
  kCpRing,
  kCpGate,
  kCpLinear,
  kDpAttn,
  kDpLinear,
  kAllGatherNode,
  kAllGather,
  kAllGatherDone,
  kLinearDone,
  kAttnRank,
  kUlyssesIn,
  kUlyssesOut,
  kPackedAttn,
};

// Format of each suffix kind, indexed by LabelSuffix.
inline constexpr const char* kLabelSuffixFormat[] = {
    "",
    ".inter.s#",
    ".intra.s#",
    ".kv.r#.#",
    ".attn.r#.#",
    ".local.varlen_x#",
    ".attn_done.#",
    ".dispatch.#",
    ".nic.#",
    ".combine.#",
    ".routed_done",
    ".done",
    ".done.#",
    ".ag.r#.#->#",
    ".a2a.#->#",
    ".ar.r#.#",
    ".noremap.#",
    ".linear.#",
    ".dr.r#.#",
    ".dr.attn.r#.#",
    ".cp.s#",
    ".cp_gate.#",
    ".cp_linear.#",
    ".dp_attn.mb#.#",
    ".dp_linear.mb#.#",
    ".allgather.n#",
    ".allgather",
    ".allgather_done",
    ".linear_done",
    ".attn.#",
    ".ulysses_in.g#",
    ".ulysses_out.g#",
    ".packed_attn.#",
};

static_assert(std::size(kLabelSuffixFormat) == static_cast<size_t>(LabelSuffix::kPackedAttn) + 1,
              "one format per LabelSuffix");

// Number of '#' in each suffix format: how many arguments it consumes.
inline constexpr auto kLabelSuffixArity = [] {
  std::array<uint8_t, std::size(kLabelSuffixFormat)> arity{};
  for (size_t i = 0; i < arity.size(); ++i) {
    for (const char* p = kLabelSuffixFormat[i]; *p != '\0'; ++p) {
      arity[i] += *p == '#';
    }
  }
  return arity;
}();

constexpr int LabelSuffixArity(LabelSuffix suffix) {
  return kLabelSuffixArity[static_cast<int>(suffix)];
}

// A task label record. `stem` indexes the owning graph's stem table (0 is the
// empty stem), so a record is only meaningful on the graph that made it.
struct TaskLabel {
  static constexpr int kMaxSuffixes = 3;
  static constexpr int kMaxArgs = 4;

  uint32_t stem = 0;
  std::array<LabelSuffix, kMaxSuffixes> suffixes{};
  std::array<int32_t, kMaxArgs> args{};

  // This label with one more suffix appended; `a`, `b`, `c` fill its '#'s.
  TaskLabel Then(LabelSuffix suffix, int32_t a = 0, int32_t b = 0, int32_t c = 0) const {
    TaskLabel out = *this;
    int slot = 0;
    int used = 0;
    while (slot < kMaxSuffixes && suffixes[slot] != LabelSuffix::kNone) {
      used += LabelSuffixArity(suffixes[slot]);
      ++slot;
    }
    const int arity = LabelSuffixArity(suffix);
    ZCHECK(slot < kMaxSuffixes && used + arity <= kMaxArgs) << "label record is full";
    out.suffixes[slot] = suffix;
    const int32_t values[3] = {a, b, c};
    for (int i = 0; i < arity; ++i) {
      out.args[used + i] = values[i];
    }
    return out;
  }
};

// Label argument of the graph-building functions: a record built on the same
// graph (TaskGraph::Intern, TaskLabel::Then) or plain text, which the graph
// interns as a stem when it uses the argument. Text is held by reference, so
// a LabelArg is only ever a function parameter, never stored.
class LabelArg {
 public:
  LabelArg(TaskLabel label) : label_(label) {}
  LabelArg(const char* text) : text_(text), is_text_(true) {}
  LabelArg(const std::string& text) : text_(text), is_text_(true) {}

 private:
  friend class TaskGraph;
  TaskLabel label_;
  std::string_view text_;
  bool is_text_ = false;
};

}  // namespace zeppelin

#endif  // SRC_SIM_TASK_H_
