// Attention engine (paper §3.2).
//
// Executes the partitioner's three sequence queues on each device in the
// order inter-node -> intra-node -> local (forward; reversed in backward, as
// the paper's Fig. 12(c) timeline shows). Each ring sequence runs the
// standard ring-attention pattern: G rounds, where every rank computes
// attention for its causal-balanced chunk pair against the KV block it
// currently holds while concurrently forwarding that block to the next rank.
// Inter-node hops are delegated to the routing layer (§3.3); intra-node hops
// are direct NVSwitch sends; local sequences use a single variable-length
// kernel with no communication.
//
// The inter-first ordering matters: inter-node rings span and subsume the
// intra-node groups of their nodes, so finishing them first lets intra-node
// queues start immediately, whereas the reverse order would stall inter-node
// launches on the slowest node (§3.2). This is design ablation D2.
#ifndef SRC_CORE_ATTENTION_ENGINE_H_
#define SRC_CORE_ATTENTION_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/core/chunking.h"
#include "src/core/partitioner.h"
#include "src/core/routing.h"
#include "src/model/cost_model.h"
#include "src/sim/graph.h"
#include "src/topology/path.h"

namespace zeppelin {

enum class Direction : uint8_t { kForward, kBackward };

enum class QueueOrder : uint8_t {
  kInterIntraLocal,  // Paper order (forward).
  kLocalIntraInter,  // Reverse (used in backward; forward variant = D2 ablation).
};

struct AttentionEngineOptions {
  // How ring sequences are sharded across ranks: the paper's causal-balanced
  // 2G chunk pairs, the naive contiguous split (ablation D3), or
  // token-striped (Striped Attention).
  ChunkScheme chunk_scheme = ChunkScheme::kBalancedPairs;
  // Queue order for the *forward* pass; backward always uses the reverse of
  // whatever is configured here.
  QueueOrder forward_order = QueueOrder::kInterIntraLocal;
};

class AttentionEngine {
 public:
  AttentionEngine(const CostModel& cost_model, const FabricResources& fabric,
                  const RoutingLayer& routing, AttentionEngineOptions options);

  // Emits the attention stage of one layer for `plan`. deps[r] gates rank r's
  // first task (pass {} for layer start). Returns one done-task per rank.
  std::vector<TaskId> Emit(TaskGraph& graph, const PartitionPlan& plan, Direction direction,
                           RankDeps deps, LabelArg label) const;
  // Upper bound on what Emit adds for `plan` and `direction` when every
  // deps[r] holds `deps_per_rank` tasks.
  GraphSize EmitBound(const PartitionPlan& plan, Direction direction,
                      int64_t deps_per_rank) const;

  // Emits one ring sequence; exposed for baselines and tests. Takes a
  // non-owning view: plan rings resolve via PartitionPlan::view()/rings(),
  // owning RingSequences convert implicitly. Adds each participating rank's
  // final compute task to last_task_per_rank (unsealed).
  void EmitRingSequence(TaskGraph& graph, const RingView& ring, Direction direction,
                        RankDeps deps, LabelArg label, RankTaskLists* last_task_per_rank) const;

 private:
  // The queue order of `direction`: the configured forward order, reversed
  // in backward.
  QueueOrder OrderFor(Direction direction) const;
  void EmitLocals(TaskGraph& graph, const std::vector<LocalSequence>& locals,
                  Direction direction, RankDeps deps, TaskLabel label,
                  RankTaskLists* last_task_per_rank) const;

  const CostModel* cost_model_;
  const FabricResources* fabric_;
  const RoutingLayer* routing_;
  AttentionEngineOptions options_;
  // Per-ring workspaces, recycled across EmitRingSequence calls (Emit is
  // logically const; the scratch holds no observable state): the chunk
  // assignment, and the KV arrivals of the current and the next round.
  mutable std::vector<ChunkPair> chunk_scratch_;
  mutable std::vector<TaskId> recv_scratch_;
  mutable std::vector<TaskId> next_recv_scratch_;
};

}  // namespace zeppelin

#endif  // SRC_CORE_ATTENTION_ENGINE_H_
