// Discrete-event execution engine.
//
// Executes a TaskGraph against the fabric resources of a cluster:
//  - a task becomes *ready* when all its dependencies have finished;
//  - ready tasks wait on every resource they occupy; each resource admits
//    waiting tasks in program order (task id), FIFO like a CUDA stream;
//  - a task *starts* when it is at the head of all its resources' queues and
//    all of them are idle, and occupies them for its whole duration.
//
// The policy is deterministic: identical graphs produce identical schedules.
// Head-of-line blocking across resources is intentional — it is exactly the
// behaviour of NCCL channels and of kernels queued on a stream, and it is
// what produces the idle "bubbles" the paper's Fig. 12 discusses.
//
// Implementation: Run reads the graph's flat columns, builds the dependents
// in CSR form, and keeps each resource's waiting tasks in a min-heap on task
// id inside one arena. The loop drains every completion due at one instant,
// then admits. Admission checks only candidates: the head of each resource
// freed at that instant, and each newly ready task that heads every queue it
// waits on while all of them are idle. No other task can have become
// startable, and the startable tasks of one instant share no resource (two
// tasks cannot both head a shared queue), so the order in which they start
// cannot change the schedule; it only orders the trace's same-instant slices.
// Pending completions live in a radix heap keyed on the bits of their finish
// times, valid because no event is ever scheduled before the instant being
// drained; completions due at one instant drain in no particular order. All
// of this lives in workspaces local to one Run call, so an Engine is
// immutable and Run may be called from several threads at once.
#ifndef SRC_SIM_ENGINE_H_
#define SRC_SIM_ENGINE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/trace_json.h"
#include "src/sim/graph.h"
#include "src/topology/path.h"

namespace zeppelin {

struct ResourceUsage {
  double busy_us = 0;
  std::array<double, kNumTaskCategories> by_category{};
};

// What one Run did, filled without per-task allocation.
struct SimCounters {
  int64_t tasks = 0;             // Tasks simulated: the graph's size.
  int64_t event_instants = 0;    // Distinct finish times the event loop drained.
  int64_t peak_in_flight = 0;    // Most completions pending at once.
  int64_t peak_queue_depth = 0;  // Most tasks waiting on one resource at once.
};

struct SimResult {
  double makespan_us = 0;
  std::vector<double> start_us;   // Per task.
  std::vector<double> finish_us;  // Per task.
  std::vector<ResourceUsage> usage;  // Per resource.
  SimCounters counters;

  // Total busy time across all resources for a category (resource-seconds).
  double CategoryBusy(TaskCategory category) const;
  // Busy time of one resource.
  double ResourceBusy(ResourceId id) const;
  // Fraction of makespan the resource was busy.
  double Utilization(ResourceId id) const;
};

class Engine {
 public:
  explicit Engine(const FabricResources& fabric) : fabric_(&fabric) {}

  // Runs the whole graph from t = 0. If `trace` is non-null, emits one
  // chrome-trace slice per (task, resource) occupancy, lanes grouped by node.
  SimResult Run(const TaskGraph& graph, ChromeTraceWriter* trace = nullptr) const;

 private:
  const FabricResources* fabric_;
};

}  // namespace zeppelin

#endif  // SRC_SIM_ENGINE_H_
