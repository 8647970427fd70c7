// Remapping layer (paper §3.4).
//
// The attention-optimal token layout produced by the partitioner is generally
// token-imbalanced, while linear modules (projections, MLP/MoE, norms) want a
// uniform token count per rank. The remapping layer computes a transfer
// matrix M minimizing the maximum per-rank transfer cost (Eq. 2, solved
// exactly by solver/minimax_remap) and executes it as a dynamic-shape
// all-to-allv before the linear modules, with the inverse transfer (equal
// cost, transposed matrix) afterwards.
#ifndef SRC_CORE_REMAPPING_H_
#define SRC_CORE_REMAPPING_H_

#include <cstdint>
#include <vector>

#include "src/model/cost_model.h"
#include "src/sim/graph.h"
#include "src/solver/minimax_remap.h"
#include "src/topology/path.h"

namespace zeppelin {

struct RemappingOptions {
  bool enabled = true;
  // Use the exact minimax solver (true) or the min-total-cost greedy (false)
  // — design ablation D5.
  bool minimax = true;
};

class RemappingLayer {
 public:
  RemappingLayer(const CostModel& cost_model, const FabricResources& fabric,
                 RemappingOptions options);

  // Plans the transfer matrix for the given attention-layout token counts.
  // Token counts are turned into bytes via the hidden-state activation size.
  RemapSolution Plan(const std::vector<int64_t>& tokens_per_rank) const;

  // Allocation-hoisted form: the problem and all solver intermediates live in
  // `scratch`, and `solution`'s transfer-matrix storage is recycled (pass the
  // previous iteration's solution back in). Identical results.
  void Plan(const std::vector<int64_t>& tokens_per_rank, RemapScratch* scratch,
            RemapSolution* solution) const;

  struct EmitResult {
    std::vector<TaskId> done;          // Per rank.
    std::vector<int64_t> new_tokens;   // Token counts after remapping.
  };

  // Emits the all-to-allv for `solution` (or its inverse when
  // `inverse` = true). deps[k] gates rank k's sends. When the layer is
  // disabled, returns barriers and the original token distribution.
  EmitResult Emit(TaskGraph& graph, const std::vector<int64_t>& tokens_per_rank,
                  const RemapSolution& solution, bool inverse, RankDeps deps,
                  LabelArg label) const;

  // Upper bound on what Emit adds for `solution`, in either direction, when
  // every deps[k] holds `deps_per_rank` tasks.
  GraphSize EmitBound(const RemapSolution& solution, int64_t deps_per_rank) const;

  bool enabled() const { return options_.enabled; }

 private:
  const CostModel* cost_model_;
  const FabricResources* fabric_;
  RemappingOptions options_;
};

}  // namespace zeppelin

#endif  // SRC_CORE_REMAPPING_H_
