// Strategy and cluster registries: build the paper's systems from strings,
// so tools (CLI, sweep scripts) can select configurations without touching
// C++ options structs.
//
// Strategy spec grammar:  name[+modifier]...
//   te-cp            Transformer Engine context parallelism
//   te-cp+routing    TE CP with Zeppelin's routing layer: the routing-only
//                    ablation of Fig. 11
//   llama-cp         LLaMA-3-style all-gather context parallelism
//   hybrid-dp        FLOP-balanced hybrid data parallelism
//   pack-ulysses     input-balanced packing + Ulysses SP
//   zeppelin         the full system
//   zeppelin+...     toggle modifiers: -routing, -remap, +zones (zone-aware
//                    thresholds), +striped / +contiguous (chunk scheme),
//                    +localfirst (queue-order ablation)
//
// Zeppelin specs also accept inline *knob* modifiers (`+key=value`), so a
// single spec string fully describes a configuration without side-channel
// flags:
//   zeppelin+delta=0.02              delta-replan threshold (PlanDelta)
//   zeppelin+capacity=8192           explicit token capacity L per device
//   zeppelin+stream=decode-7         PlannerService session key (distinct
//                                    ids = independent delta streams)
//   zeppelin+faults=0.01@7           fault-injection rate (and optional
//                                    injector seed) for streaming drivers;
//                                    wins over --fault_rate/--fault_seed
//   zeppelin+stream=a+delta=0.02     modifiers compose left to right
// The corresponding StrategyDefaults field remains as an alias (typically fed
// from the --delta_threshold flag); inline knobs take precedence over
// defaults.
//
// Cluster spec grammar: A|B|C (paper presets), case-insensitive.
#ifndef SRC_CORE_REGISTRY_H_
#define SRC_CORE_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/strategy.h"
#include "src/topology/cluster.h"

namespace zeppelin {

class PlannerService;  // src/core/plan_service.h

// Knobs that tools pass alongside a spec string (typically straight from
// command-line flags) and that apply across specs rather than naming a
// variant. Each field is the *alias* of an inline knob modifier (see the
// grammar above); an inline knob on the spec wins over the default.
struct StrategyDefaults {
  // ZeppelinOptions::planning.delta_replan_threshold for zeppelin specs:
  // streaming (PlanDelta) fallback knob — full re-plan above this churn
  // fraction or imbalance drift. Ignored by baselines (their PlanDelta
  // re-plans fully). Inline form: +delta=X.
  double delta_replan_threshold = 0.05;
  // Shared PlannerService for zeppelin specs (null = each strategy gets a
  // private service). Tools that drive several concurrent streams pass one
  // service here and give each spec its own +stream=<id> knob.
  std::shared_ptr<PlannerService> service;
};

// Creates a strategy from a spec string; aborts (ZCHECK) on unknown specs.
std::unique_ptr<Strategy> MakeStrategyByName(const std::string& spec,
                                             const StrategyDefaults& defaults = {});

// All spec names the registry accepts (base names, without modifiers).
std::vector<std::string> KnownStrategyNames();

// Creates one of the paper's cluster presets ("A", "B", "C") with the given
// node count.
ClusterSpec MakeClusterByName(const std::string& name, int num_nodes);

}  // namespace zeppelin

#endif  // SRC_CORE_REGISTRY_H_
