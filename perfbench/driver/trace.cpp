#include "trace.hpp"

#include <fstream>

#include "report/json.hpp"

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

void TaskTrace::begin_task(std::uint32_t task_id, std::uint32_t thread) {
  spans_.clear();
  stack_.clear();
  task_ = task_id;
  thread_ = thread;
}

std::size_t TaskTrace::open(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.task = task_;
  span.thread = thread_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

void TaskTrace::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  stack_.pop_back();
}

TraceSummary summarize(const std::vector<TaskTrace>& tasks) {
  TraceSummary summary;
  std::vector<std::int64_t> child_ns;
  for (const TaskTrace& task : tasks) {
    const auto& spans = task.spans();
    child_ns.assign(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = 1e-9 * double(s.end_ns - s.start_ns);
      SpanTotals& totals = summary.by_name[s.name];
      ++totals.count;
      totals.inclusive_s += dur;
      totals.self_s += dur - 1e-9 * double(child_ns[i]);
      if (s.parent < 0) {
        summary.task_s += dur;
        summary.attributed_s += 1e-9 * double(child_ns[i]);
      }
    }
  }
  return summary;
}

long write_chrome_trace(const std::string& path,
                        const std::vector<TaskTrace>& tasks,
                        std::size_t max_events) {
  std::ofstream out(path);
  if (!out) return -1;
  ffc::report::JsonWriter json(out, 0);
  json.begin_array();
  long written = 0;
  for (const TaskTrace& task : tasks) {
    const auto& spans = task.spans();
    if (std::size_t(written) + spans.size() > max_events) break;
    for (const Span& s : spans) {
      json.begin_object()
          .kv("name", s.name)
          .kv("cat", "perfbench")
          .kv("ph", "X")
          .kv("ts", 1e-3 * double(s.start_ns))
          .kv("dur", 1e-3 * double(s.end_ns - s.start_ns))
          .kv("pid", 1)
          .kv("tid", std::uint64_t(s.thread));
      json.key("args").begin_object()
          .kv("task", std::uint64_t(s.task))
          .kv("parent", s.parent >= 0 ? spans[s.parent].name : "")
          .end_object();
      json.end_object();
      ++written;
    }
  }
  json.end_array();
  json.close();
  return out ? written : -1;
}

}  // namespace perfbench
