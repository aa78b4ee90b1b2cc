// Span tracing from outside the program: the driver wraps each call it makes
// into a layer's public function in a span (name, start, end, parent, task).
//
// Spans of one task live in that task's TaskTrace, written by the one worker
// thread running the task, so recording takes no lock. They stay in memory
// until the run ends; summarize() then derives per-name counts, inclusive
// and self time (span time minus the time its child spans cover), and
// write_chrome_trace() emits them as Chrome trace-event JSON, which Perfetto
// and chrome://tracing open.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide trace epoch (first call).
std::int64_t now_ns();

/// Wall seconds elapsed since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  const char* name = "";     ///< static string: the layer function called
  std::int32_t parent = -1;  ///< index in the same task's spans, -1 = root
  std::uint32_t task = 0;    ///< run-wide task id
  std::uint32_t thread = 0;  ///< small per-run thread number
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// The spans of one task. The first span is the task's root ("task").
class TaskTrace {
 public:
  void begin_task(std::uint32_t task_id, std::uint32_t thread);
  std::size_t open(const char* name);
  void close(std::size_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t task_ = 0;
  std::uint32_t thread_ = 0;
};

/// RAII span; a no-op when `trace` is null, so untraced tasks read no clock.
class Scope {
 public:
  Scope(TaskTrace* trace, const char* name)
      : trace_(trace), index_(trace ? trace->open(name) : 0) {}
  ~Scope() {
    if (trace_) trace_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  TaskTrace* trace_;
  std::size_t index_;
};

struct SpanTotals {
  std::uint64_t count = 0;
  double inclusive_s = 0.0;
  double self_s = 0.0;
};

struct TraceSummary {
  std::map<std::string, SpanTotals> by_name;
  double task_s = 0.0;        ///< summed root ("task") span time
  double attributed_s = 0.0;  ///< root time covered by its child spans
};

TraceSummary summarize(const std::vector<TaskTrace>& tasks);

/// Writes the spans as a JSON array of complete ("X") trace events, at most
/// `max_events` of them (whole tasks; later tasks are dropped). Returns the
/// number of events written, or -1 if the file cannot be written.
long write_chrome_trace(const std::string& path,
                        const std::vector<TaskTrace>& tasks,
                        std::size_t max_events);

}  // namespace perfbench
