// LLaMA-3-style context parallelism baseline (§5 "LLaMA CP").
//
// Instead of a ring, every rank all-gathers the full KV activations before
// attention (WLB-LLM / LLaMA 3 recipe). The collective uses every NIC of
// every node (NCCL bulk all-gather), which is why it beats TE CP's
// single-boundary-NIC ring, but it sits on the critical path (no overlap
// with attention) and its volume grows linearly with total sequence length.
#ifndef SRC_BASELINES_LLAMA_CP_H_
#define SRC_BASELINES_LLAMA_CP_H_

#include <vector>

#include "src/core/strategy.h"

namespace zeppelin {

class LlamaCpStrategy : public Strategy {
 public:
  std::string name() const override { return "LLaMA-CP"; }
  void Plan(const Batch& batch, const CostModel& cost_model,
            const FabricResources& fabric) override;
  std::vector<TaskId> EmitLayer(TaskGraph& graph, Direction direction) override;
  std::vector<int64_t> LinearTokensPerRank() const override;

 private:
  // Emits the bulk all-gather as one aggregate transfer per node occupying
  // all of that node's NIC channels (or NVSwitch channels on a single node).
  // Returns a barrier gating all ranks.
  TaskId EmitAllGather(TaskGraph& graph, double scale, DepSpan deps, TaskLabel label) const;

  const CostModel* cost_model_ = nullptr;
  const FabricResources* fabric_ = nullptr;
  Batch batch_;
  std::vector<double> attention_flops_per_rank_;
  std::vector<int64_t> tokens_per_rank_;
  int64_t total_kv_bytes_ = 0;
};

}  // namespace zeppelin

#endif  // SRC_BASELINES_LLAMA_CP_H_
