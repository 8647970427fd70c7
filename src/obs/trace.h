// Request-path tracing: per-request stage spans with zero hot-path
// allocation (docs/OBSERVABILITY.md).
//
// A request entering the daemon gets one stack-allocated TraceContext bound
// to the handling thread (TraceBinding). Every layer the request crosses —
// decode, validation, the cache tiers, the planning engines, the certifier,
// encode, the socket write — opens a TraceScope naming its Stage; the scope
// measures wall time on destruction and accumulates it into the context's
// fixed-size span array and per-stage totals. Deep layers (PlannerService,
// PlanCache, VerifyPlan) never see a context parameter: TraceScope reads the
// thread-local binding and is a no-op (one TLS load, no clock read) when no
// request is being traced, which is what keeps the instrumentation
// compiled-in-but-cheap for direct library callers.
//
// The per-stage totals travel back to the client inside PlanStats::stage_us
// (wire v3); the spans optionally drain into a TraceSink wrapping the
// existing ChromeTraceWriter (src/common/trace_json.h), so a daemon run
// under --trace_out opens in Perfetto next to the fig12 simulator timelines.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/trace_json.h"

namespace zeppelin {
namespace obs {

// The request-stage taxonomy, in request-lifecycle order. Values are
// wire-stable: PlanStats::stage_us is indexed by Stage on the wire (v3).
enum class Stage : uint8_t {
  kQueueWait = 0,    // Admission wait (daemon gate).
  kDecode,           // Wire payload -> WireRequest structural parse.
  kValidate,         // Request checks: wire limits, CheckPlanRequest, session deltas.
  kCacheLookup,      // PlanCache::TryServe (slot-order hash + length compare).
  kPlan,             // Partition / delta Apply / Rebase (the decision kernel).
  kMaterialize,      // Session-plan bulk copy into the immutable handle.
  kVerify,           // VerifyPlan certification.
  kEncode,           // SerializePlan -> plan bytes (once per plan, in PlanCache).
  kWrite,            // Socket write of the response frame.
  kCount,
};

inline constexpr int kNumStages = static_cast<int>(Stage::kCount);

const char* StageName(Stage stage);

// Monotonic microseconds (steady clock); the time base of every span.
double NowUs();

// One request's accumulated trace. Fixed-size everything: binding, scoping,
// and recording allocate nothing.
struct TraceContext {
  struct Span {
    Stage stage = Stage::kQueueWait;
    double start_us = 0;
    double duration_us = 0;
  };
  static constexpr int kMaxSpans = 32;

  uint64_t request_id = 0;
  // Chrome-trace lane (tid) the request's spans render on; the daemon uses
  // the connection id so concurrent connections stack visually.
  int lane = 0;
  std::array<double, kNumStages> stage_us{};
  std::array<Span, kMaxSpans> spans;
  int span_count = 0;
  int dropped_spans = 0;  // Spans beyond kMaxSpans (stage_us still summed).

  void AddSpan(Stage stage, double start_us, double duration_us);
};

// The thread's bound context, or nullptr when the thread is not handling a
// traced request.
TraceContext* CurrentTrace();

// RAII thread-local binding; restores the previous binding on destruction
// (bindings nest).
class TraceBinding {
 public:
  explicit TraceBinding(TraceContext* ctx);
  ~TraceBinding();

  TraceBinding(const TraceBinding&) = delete;
  TraceBinding& operator=(const TraceBinding&) = delete;

 private:
  TraceContext* prev_;
};

// RAII span: measures construction-to-destruction wall time into the
// thread's bound context. No-op (no clock read) when nothing is bound.
class TraceScope {
 public:
  explicit TraceScope(Stage stage);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext* ctx_;
  Stage stage_;
  double start_us_ = 0;
};

// Collects drained request contexts into a ChromeTraceWriter and writes the
// Perfetto-loadable JSON on Flush. Thread-safe; Drain is off the per-span
// hot path (once per request, only when tracing to a file is enabled).
class TraceSink {
 public:
  explicit TraceSink(std::string path);

  void Drain(const TraceContext& ctx);
  // Writes the accumulated trace to the path; returns false on I/O failure.
  bool Flush();
  size_t event_count() const;

 private:
  std::string path_;
  mutable std::mutex mu_;
  ChromeTraceWriter writer_;
};

// Typed, rate-limited log of requests whose total latency crossed a
// threshold. Keeps the most recent `capacity` entries in a ring
// (entries() for tests/introspection) and emits at most one stderr line per
// second — a daemon drowning in slow requests must not also drown in log
// I/O; the suppressed count says how many lines the limiter ate.
class SlowRequestLog {
 public:
  struct Entry {
    uint64_t request_id = 0;
    double total_us = 0;
    Stage slowest_stage = Stage::kQueueWait;
    double slowest_stage_us = 0;
  };

  SlowRequestLog(double threshold_us, size_t capacity = 64);

  // Records (and maybe logs) the request if total_us >= threshold.
  void Observe(const TraceContext& ctx, double total_us);

  std::vector<Entry> entries() const;  // Oldest first.
  uint64_t observed() const;
  uint64_t suppressed_logs() const;
  double threshold_us() const { return threshold_us_; }

 private:
  const double threshold_us_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Entry> ring_;
  size_t next_ = 0;
  uint64_t observed_ = 0;
  uint64_t suppressed_ = 0;
  double last_log_us_ = -1e18;
};

}  // namespace obs
}  // namespace zeppelin

#endif  // SRC_OBS_TRACE_H_
