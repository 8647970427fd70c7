// The metric catalog in docs/OBSERVABILITY.md covers every instrument a
// serving daemon registers: start a daemon, plan one stateless and one
// session request over the wire, and require every counter, gauge and
// histogram name in the registry snapshot to appear in the catalog as a
// `code` span. A renamed, moved or added instrument fails here until the
// catalog says what it means.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/data/datasets.h"
#include "src/model/transformer.h"
#include "src/net/plan_client.h"
#include "src/net/planner_daemon.h"
#include "src/topology/cluster.h"

#ifndef ZEPPELIN_OBSERVABILITY_DOC
#error "ZEPPELIN_OBSERVABILITY_DOC must name docs/OBSERVABILITY.md"
#endif

namespace zeppelin {
namespace net {
namespace {

Batch SampleBatch(int num_seqs, uint64_t seed) {
  const LengthDistribution dist = DatasetByName("github");
  Rng rng(seed);
  Batch batch;
  for (int i = 0; i < num_seqs; ++i) {
    batch.seq_lens.push_back(dist.Sample(rng));
  }
  return batch;
}

TEST(MetricsCatalogTest, EveryRegisteredInstrumentIsDocumented) {
  std::ifstream in(ZEPPELIN_OBSERVABILITY_DOC);
  ASSERT_TRUE(in.good()) << "cannot read " << ZEPPELIN_OBSERVABILITY_DOC;
  std::stringstream doc;
  doc << in.rdbuf();
  const std::string catalog = doc.str();

  PlannerDaemon daemon(MakeLlama3B(), MakeClusterA(2));
  std::string error;
  ASSERT_TRUE(daemon.Start(&error)) << error;
  PlanClient client("127.0.0.1", daemon.port());
  WireRequest stateless;
  stateless.batch = SampleBatch(128, 1);
  const PlanClientResult planned = client.Plan(std::move(stateless));
  ASSERT_TRUE(planned.ok()) << planned.message;
  WireRequest session;
  session.stream_id = "s";
  session.batch = SampleBatch(128, 2);
  const PlanClientResult based = client.Plan(std::move(session));
  ASSERT_TRUE(based.ok()) << based.message;
  ASSERT_FALSE(daemon.StatsJson().empty());

  const obs::MetricsSnapshot snapshot = daemon.service().metrics().Snapshot();
  std::vector<std::string> names;
  for (const auto& [name, value] : snapshot.counters) {
    names.push_back(name);
  }
  for (const auto& [name, value] : snapshot.gauges) {
    names.push_back(name);
  }
  for (const auto& [name, value] : snapshot.histograms) {
    names.push_back(name);
  }
  EXPECT_FALSE(names.empty());
  for (const std::string& name : names) {
    EXPECT_NE(catalog.find("`" + name + "`"), std::string::npos)
        << name << " is registered but missing from docs/OBSERVABILITY.md";
  }
  daemon.Stop();
}

}  // namespace
}  // namespace net
}  // namespace zeppelin
