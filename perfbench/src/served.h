// Shared client-side machinery of the two served-plan workloads: the setup
// they both plan at, one record per request (each timed in wall and in CPU
// time), the daemon's own stage
// telemetry read from outside (kStats histograms), and the split-off timing
// of the client's ParsePlan + VerifyPlan on recorded reply bytes.
#ifndef PERFBENCH_SRC_SERVED_H_
#define PERFBENCH_SRC_SERVED_H_

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"
#include "src/net/plan_client.h"
#include "src/net/planner_daemon.h"
#include "src/obs/trace.h"

namespace perfbench {

// LLaMA-3B, Cluster A, 512 GPUs, fineweb, 16k tokens per GPU: S is about 6k
// sequences and the derived L (20,480) sits under the 23.9k memory cap.
inline constexpr int kServeNodes = 64;
inline constexpr int64_t kServeBatchTokens = int64_t{16384} * 512;

zeppelin::TransformerConfig ServeModel();
zeppelin::ClusterSpec ServeCluster();

// One plan request as the caller saw it.
struct Reply {
  double send_us = 0;
  double done_us = 0;  // A verified plan is in the caller's hand.
  double cpu_us = 0;   // CPU time of every thread from send to done.
  zeppelin::net::WireStatus status = zeppelin::net::WireStatus::kTransport;
  uint64_t digest = 0;
  int batch = -1;      // Workload-specific batch / step index.
  zeppelin::CacheOutcome cache = zeppelin::CacheOutcome::kBypass;
  zeppelin::DeltaOutcome delta = zeppelin::DeltaOutcome::kRebasedNoBase;
  double partition_us = 0;
  std::array<double, zeppelin::obs::kNumStages> stage_us{};

  double wall_ms() const { return (done_us - send_us) / 1e3; }
};

// The daemon's per-stage histograms (count, sum in µs) and request totals,
// read from its kStats snapshot. Subtract two snapshots to get a window.
struct DaemonStages {
  std::map<std::string, std::pair<double, double>> hist;  // name -> (count, sum)
  zeppelin::net::DaemonCounters counters;

  static DaemonStages Read(zeppelin::net::PlannerDaemon& daemon);
  // Window between `before` and this snapshot: per-request mean of stage
  // `name` (sum / requests in the window).
  double PerRequestUs(const DaemonStages& before, const std::string& name) const;
  double Requests(const DaemonStages& before) const;
};

// A reply's bytes kept for the split-off client timing.
struct SampledReply {
  std::string plan_bytes;
  const zeppelin::Batch* batch = nullptr;
};

// Client-side parse + verify, re-timed on recorded reply bytes outside the
// timed window with PlanClient's own options. Means per reply.
struct ClientSplit {
  double parse_us = 0;
  double verify_us = 0;
  double bytes = 0;
  int failures = 0;  // Replies that fail either step on re-check.
};
ClientSplit RetimeClient(const std::vector<SampledReply>& samples, int world);

// Sets the per-layer metrics the served workloads share: daemon stages,
// cache, certifier, plan_io, net. `replies` is the window's records.
void ReportServedLayers(const std::vector<Reply>& replies, const DaemonStages& before,
                        const DaemonStages& after, const ClientSplit& client,
                        RunResult* result);

// Records each request's spans: the request (send -> verified plan in hand)
// and under it the daemon stages the reply's stage_us carries, laid end to
// end.
void RecordReplySpans(const std::vector<Reply>& replies, SpanRecorder& spans);

zeppelin::net::PlanClientOptions ServeClientOptions();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SERVED_H_
