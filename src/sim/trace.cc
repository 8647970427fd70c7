#include "src/sim/trace.h"

#include <algorithm>
#include <sstream>

#include "src/common/stats.h"
#include "src/common/table.h"

namespace zeppelin {

std::array<CategorySummary, kNumTaskCategories> SummarizeByCategory(const TaskGraph& graph,
                                                                    const SimResult& result) {
  std::array<CategorySummary, kNumTaskCategories> out{};
  (void)result;
  const auto durations = graph.durations();
  const auto categories = graph.categories();
  for (TaskId id = 0; id < graph.size(); ++id) {
    auto& s = out[static_cast<int>(categories[id])];
    ++s.task_count;
    s.total_us += durations[id];
    s.max_us = std::max(s.max_us, durations[id]);
  }
  for (auto& s : out) {
    if (s.task_count > 0) {
      s.mean_us = s.total_us / s.task_count;
    }
  }
  return out;
}

std::vector<NicUtilization> ComputeNicUtilization(const FabricResources& fabric,
                                                  const SimResult& result) {
  const ClusterSpec& spec = fabric.cluster();
  std::vector<NicUtilization> out;
  for (int node = 0; node < spec.num_nodes; ++node) {
    for (int nic = 0; nic < spec.nics_per_node; ++nic) {
      NicUtilization u;
      u.node = node;
      u.nic = nic;
      u.tx_busy_us = result.ResourceBusy(fabric.NicTx(node, nic));
      u.rx_busy_us = result.ResourceBusy(fabric.NicRx(node, nic));
      if (result.makespan_us > 0) {
        u.tx_utilization = u.tx_busy_us / result.makespan_us;
        u.rx_utilization = u.rx_busy_us / result.makespan_us;
      }
      out.push_back(u);
    }
  }
  return out;
}

double MeanNicUtilization(const FabricResources& fabric, const SimResult& result) {
  const auto nics = ComputeNicUtilization(fabric, result);
  if (nics.empty()) {
    return 0;
  }
  double total = 0;
  for (const auto& u : nics) {
    total += 0.5 * (u.tx_utilization + u.rx_utilization);
  }
  return total / static_cast<double>(nics.size());
}

std::string FormatTimelineReport(const TaskGraph& graph, const FabricResources& fabric,
                                 const SimResult& result) {
  std::ostringstream out;
  out << "makespan: " << FormatDouble(result.makespan_us, 1) << " us over " << graph.size()
      << " tasks\n";

  Table cat_table({"category", "tasks", "total_ms", "mean_us", "max_us"});
  const auto cats = SummarizeByCategory(graph, result);
  for (int c = 0; c < kNumTaskCategories; ++c) {
    if (cats[c].task_count == 0) {
      continue;
    }
    cat_table.AddRow({TaskCategoryName(static_cast<TaskCategory>(c)),
                      Table::Cell(static_cast<int64_t>(cats[c].task_count)),
                      Table::Cell(cats[c].total_us / 1000.0, 3), Table::Cell(cats[c].mean_us, 1),
                      Table::Cell(cats[c].max_us, 1)});
  }
  out << cat_table.ToString();

  Table nic_table({"nic", "tx_util", "rx_util"});
  for (const auto& u : ComputeNicUtilization(fabric, result)) {
    nic_table.AddRow({std::string("n")
                          .append(std::to_string(u.node))
                          .append(".nic")
                          .append(std::to_string(u.nic)),
                      Table::Cell(u.tx_utilization, 3), Table::Cell(u.rx_utilization, 3)});
  }
  out << nic_table.ToString();
  return out.str();
}

}  // namespace zeppelin
