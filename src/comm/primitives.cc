#include "src/comm/primitives.h"

namespace zeppelin {

TaskCategory DefaultCommCategory(const TransferPath& path) {
  return path.crosses_node ? TaskCategory::kInterComm : TaskCategory::kIntraComm;
}

TaskId AddP2P(TaskGraph& graph, const FabricResources& fabric, int src_gpu, int dst_gpu,
              int64_t bytes, TaskCategory category, DepSpan deps, LabelArg label, int src_nic,
              int dst_nic) {
  const TransferPath path = fabric.Resolve(src_gpu, dst_gpu, src_nic, dst_nic);
  return graph.AddTransfer(path, bytes, category, deps, label, src_gpu);
}

TaskId AddP2PAuto(TaskGraph& graph, const FabricResources& fabric, int src_gpu, int dst_gpu,
                  int64_t bytes, DepSpan deps, LabelArg label, int src_nic, int dst_nic) {
  const TransferPath path = fabric.Resolve(src_gpu, dst_gpu, src_nic, dst_nic);
  return graph.AddTransfer(path, bytes, DefaultCommCategory(path), deps, label, src_gpu);
}

}  // namespace zeppelin
