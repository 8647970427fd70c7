// Chrome-trace ("catapult") JSON writer. The simulator emits execution
// timelines in this format so runs can be inspected in chrome://tracing or
// Perfetto — the reproduction of the paper's Fig. 12 timeline analysis.
#ifndef SRC_COMMON_TRACE_JSON_H_
#define SRC_COMMON_TRACE_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

namespace zeppelin {

struct TraceEvent {
  std::string name;       // Human label, e.g. "ring round 3 kv send".
  std::string category;   // e.g. "compute", "inter_comm".
  double start_us = 0;
  double duration_us = 0;
  int pid = 0;            // Process lane: we use node index.
  int tid = 0;            // Thread lane: we use resource index within node.
};

class ChromeTraceWriter {
 public:
  void Add(TraceEvent event);
  // Names a (pid, tid) lane; emitted as chrome metadata events.
  void NameThread(int pid, int tid, const std::string& name);

  // Serializes to chrome trace JSON (array-of-events form).
  std::string ToJson() const;

  // Writes ToJson() to `path`; returns false on I/O failure.
  bool WriteFile(const std::string& path) const;

  size_t event_count() const { return events_.size(); }
  // Slices in the order they were added.
  const std::vector<TraceEvent>& events() const { return events_; }

 private:
  struct ThreadName {
    int pid;
    int tid;
    std::string name;
  };
  std::vector<TraceEvent> events_;
  std::vector<ThreadName> thread_names_;
};

}  // namespace zeppelin

#endif  // SRC_COMMON_TRACE_JSON_H_
