#include "src/core/registry.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "src/baselines/double_ring.h"
#include "src/baselines/hybrid_dp.h"
#include "src/baselines/llama_cp.h"
#include "src/baselines/packing.h"
#include "src/baselines/te_cp.h"
#include "src/common/check.h"
#include "src/core/zeppelin.h"

namespace zeppelin {
namespace {

std::vector<std::string> SplitSpec(const std::string& spec) {
  // "zeppelin+striped-routing" -> {"zeppelin", "+striped", "-routing"}.
  // Once a part contains '=', only '+' terminates it, so knob values may
  // carry '-' ("+stream=decode-7", "+delta=1e-3"); a toggle after a knob
  // therefore needs '+' form or its own spec position.
  std::vector<std::string> parts;
  std::string current;
  for (char c : spec) {
    if (c == '+' || (c == '-' && current.find('=') == std::string::npos)) {
      if (!current.empty()) {
        parts.push_back(current);
      }
      current = std::string(1, c);
    } else {
      current += c;
    }
  }
  if (!current.empty()) {
    parts.push_back(current);
  }
  return parts;
}

// Inline knob modifier: "+key=value" -> value when `mod` is "+<key>=...".
bool KnobValue(const std::string& mod, const std::string& key, std::string* value) {
  const std::string prefix = "+" + key + "=";
  if (mod.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  *value = mod.substr(prefix.size());
  ZCHECK(!value->empty()) << "empty value in spec modifier: " << mod;
  return true;
}

double ParseDouble(const std::string& value, const std::string& mod) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  ZCHECK(end != nullptr && *end == '\0') << "bad numeric value in spec modifier: " << mod;
  return parsed;
}

}  // namespace

std::unique_ptr<Strategy> MakeStrategyByName(const std::string& spec,
                                             const StrategyDefaults& defaults) {
  const std::vector<std::string> parts = SplitSpec(spec);
  ZCHECK(!parts.empty()) << "empty strategy spec";
  const std::string& base = parts[0];

  if (base == "te" && parts.size() >= 2 && parts[1] == "-cp") {
    // "te-cp" splits at '-'; re-join and treat the remainder as modifiers.
    TeCpOptions options;
    for (size_t i = 2; i < parts.size(); ++i) {
      if (parts[i] == "+routing") {
        options.routing.enabled = true;
      } else {
        ZCHECK(false) << "unknown te-cp modifier: " << parts[i];
      }
    }
    return std::make_unique<TeCpStrategy>(options);
  }
  if (base == "llama" || spec == "llama-cp") {
    return std::make_unique<LlamaCpStrategy>();
  }
  if (spec == "double-ring") {
    return std::make_unique<DoubleRingStrategy>();
  }
  if (base == "hybrid" || spec == "hybrid-dp") {
    return std::make_unique<HybridDpStrategy>();
  }
  if (base == "pack" || spec == "pack-ulysses") {
    return std::make_unique<PackingUlyssesStrategy>();
  }
  if (base == "zeppelin") {
    ZeppelinOptions options;
    // Defaults first; inline knob modifiers below override them.
    options.planning.delta_replan_threshold = defaults.delta_replan_threshold;
    options.service = defaults.service;
    for (size_t i = 1; i < parts.size(); ++i) {
      const std::string& mod = parts[i];
      std::string value;
      if (mod == "-routing") {
        options.routing.enabled = false;
      } else if (mod == "-remap") {
        options.remapping.enabled = false;
      } else if (mod == "+zones") {
        options.planning.zone_aware_thresholds = true;
      } else if (mod == "+striped") {
        options.engine.chunk_scheme = ChunkScheme::kStriped;
      } else if (mod == "+contiguous") {
        options.engine.chunk_scheme = ChunkScheme::kContiguous;
      } else if (mod == "+localfirst") {
        options.engine.forward_order = QueueOrder::kLocalIntraInter;
      } else if (KnobValue(mod, "delta", &value)) {
        options.planning.delta_replan_threshold = ParseDouble(value, mod);
      } else if (KnobValue(mod, "capacity", &value)) {
        const double capacity = ParseDouble(value, mod);
        // The upper bound keeps the double -> int64 cast defined (a value
        // past INT64_MAX is UB and lands negative on x86).
        ZCHECK(capacity >= 0 &&
               capacity < static_cast<double>(std::numeric_limits<int64_t>::max()))
            << "capacity out of range in spec modifier: " << mod;
        options.planning.token_capacity = static_cast<int64_t>(capacity);
      } else if (KnobValue(mod, "stream", &value)) {
        options.stream_id = value;
      } else if (KnobValue(mod, "faults", &value)) {
        // "+faults=RATE[@SEED]": fault-injection rate with an optional
        // injector seed (drivers derive one from the workload seed if absent).
        const size_t at = value.find('@');
        options.fault_rate = ParseDouble(value.substr(0, at), mod);
        ZCHECK(options.fault_rate >= 0.0 && options.fault_rate <= 1.0)
            << "fault rate out of [0, 1] in spec modifier: " << mod;
        if (at != std::string::npos) {
          const std::string seed = value.substr(at + 1);
          errno = 0;
          char* end = nullptr;
          const unsigned long long parsed = std::strtoull(seed.c_str(), &end, 10);
          ZCHECK(!seed.empty() && end != nullptr && *end == '\0' && errno != ERANGE)
              << "bad fault seed in spec modifier: " << mod;
          options.fault_seed = static_cast<uint64_t>(parsed);
        }
      } else {
        ZCHECK(false) << "unknown zeppelin modifier: " << mod;
      }
    }
    return std::make_unique<ZeppelinStrategy>(options);
  }
  ZCHECK(false) << "unknown strategy spec: " << spec;
  return nullptr;
}

std::vector<std::string> KnownStrategyNames() {
  return {"te-cp",     "te-cp+routing", "llama-cp", "double-ring",
          "hybrid-dp", "pack-ulysses",  "zeppelin"};
}

ClusterSpec MakeClusterByName(const std::string& name, int num_nodes) {
  std::string upper = name;
  std::transform(upper.begin(), upper.end(), upper.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (upper == "A") {
    return MakeClusterA(num_nodes);
  }
  if (upper == "B") {
    return MakeClusterB(num_nodes);
  }
  if (upper == "C") {
    return MakeClusterC(num_nodes);
  }
  ZCHECK(false) << "unknown cluster preset: " << name << " (expected A, B, or C)";
  return MakeClusterA(num_nodes);
}

}  // namespace zeppelin
