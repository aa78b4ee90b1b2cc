#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "exec/param_grid.hpp"
#include "exec/sweep_runner.hpp"

namespace perfbench {

namespace {

// Set-up repeats until both floors are met (or the cap is hit) and reports
// the median, so that millisecond set-ups are not one noisy sample.
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 1000;
constexpr double kSetupFloorSeconds = 0.5;

// A tail percentile needs at least this many samples beyond it.
constexpr std::size_t kTailSamples = 10;
constexpr double kPercentileLadder[] = {99.9, 99.5, 99.0, 97.5, 95.0,
                                        90.0, 75.0, 50.0};

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that never calls into a layer reports 0 for it.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"exec.tasks", "count/batch"},
    {"exec.task_busy_s", "s/batch"},
    {"exec.idle_s", "s/batch"},
    {"core.solve_fixed_point.calls", "count/batch"},
    {"core.solve_fixed_point.iterations", "count/batch"},
    {"core.solve_fixed_point.busy_s", "s/batch"},
    {"core.solve_fixed_point.unconverged", "count/batch"},
    {"core.run_dynamics.busy_s", "s/batch"},
    {"core.jacobian.busy_s", "s/batch"},
    {"core.step.ns_per_conn", "ns"},
    {"core.congestion.ns_per_conn", "ns"},
    {"core.signal.ns_per_conn", "ns"},
    {"core.adjuster.ns_per_conn", "ns"},
    {"queueing.queue_lengths.fifo.ns_per_conn", "ns"},
    {"queueing.queue_lengths.fair_share.ns_per_conn", "ns"},
    {"network.gather.ns_per_slot", "ns"},
    {"network.reduce_max.ns_per_conn", "ns"},
    {"network.build_s", "s"},
    {"linalg.eigenvalues.busy_s", "s/batch"},
    {"linalg.iterative.applications", "count/batch"},
    {"linalg.iterative.self_s", "s/batch"},
    {"linalg.iterative.arnoldi_solves", "count/batch"},
    {"spectral.stability.busy_s", "s/batch"},
    {"spectral.model_evaluations", "count/batch"},
    {"spectral.unconverged", "count/batch"},
    {"spectral.jvp.ns_per_conn", "ns"},
    {"sim.run_for.busy_s", "s/batch"},
    {"sim.events", "count/batch"},
    {"sim.ns_per_event", "ns"},
    {"sim.calendar_high_water", "count"},
    {"sim.calendar.ns_per_op", "ns"},
    {"stats.rng.ns_per_draw", "ns"},
    {"trace.attributed_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
};

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec);
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// CPU time the hypervisor gave other guests while this machine's vCPUs
/// wanted to run (the "steal" column of /proc/stat, all CPUs); 0 where
/// unavailable. Reported beside the timings as a noise diagnostic.
double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field[8] = {};
  in >> cpu;
  for (double& f : field) in >> f;
  return in ? field[7] / double(sysconf(_SC_CLK_TCK)) : 0.0;
}

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next++;
  return mine;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = p / 100.0 * double(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - double(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

RunResult run_workload(Workload& w, const RunOptions& o) {
  RunResult result;

  // ---- set-up, several times; the last one's inputs are kept -------------
  std::vector<double> setup_times, build_times;
  const auto setup_start = Clock::now();
  for (std::size_t rep = 0;; ++rep) {
    if (rep > 0) w.teardown();
    const auto t0 = Clock::now();
    build_times.push_back(w.setup(o.seed));
    setup_times.push_back(seconds_since(t0));
    const bool floors_met = rep + 1 >= kMinSetupReps &&
                            seconds_since(setup_start) >= kSetupFloorSeconds;
    if (floors_met || rep + 1 >= kMaxSetupReps) break;
  }

  // ---- timed phase: whole batches until the seconds are used -------------
  const std::size_t b = w.batch_size();
  std::vector<double> indices(b);
  for (std::size_t i = 0; i < b; ++i) indices[i] = double(i);
  ffc::exec::ParamGrid grid;
  grid.axis("task", indices);
  ffc::exec::SweepOptions sweep;
  sweep.jobs = w.jobs();
  sweep.base_seed = o.seed;
  ffc::exec::SweepRunner runner(sweep);

  std::vector<char> threw(b, 0);
  std::vector<TaskTrace> batch_traces(b);

  double plain_wall = 0.0, plain_cpu = 0.0, traced_wall = 0.0;
  double traced_busy = 0.0;
  std::uint64_t plain_batches = 0, traced_batches = 0, plain_verified = 0;
  std::vector<double> latencies;
  BatchCounters counters;
  Oracles oracles(o.negative_control);

  // One untimed batch first where the workload asks for it: the first
  // batch of a process pays page faults on fresh malloc arenas and cold
  // caches, which for millisecond tasks triples their latency.
  if (w.warm_up()) {
    runner.run(grid, [&](const ffc::exec::GridPoint& p, std::uint64_t task_seed) {
      w.run_task(p.index(), task_seed, nullptr);
      return 0;
    });
  }

  const double steal0 = steal_seconds();
  for (std::uint64_t batch = 0;; ++batch) {
    // Traced runs alternate plain and traced batches, so the two halves see
    // the same inputs and machine state; the ratio is the trace overhead.
    const bool traced = o.trace && batch % 2 == 1;
    const double cpu0 = process_cpu_seconds();
    runner.run(grid, [&](const ffc::exec::GridPoint& p, std::uint64_t task_seed) {
      const std::size_t i = p.index();
      TaskTrace* trace = traced ? &batch_traces[i] : nullptr;
      if (trace) trace->begin_task(std::uint32_t(batch * b + i), thread_number());
      Scope root(trace, "task");
      try {
        w.run_task(i, task_seed, trace);
        threw[i] = 0;
      } catch (const std::exception&) {
        threw[i] = 1;
      }
      return 0;
    });
    const double cpu = process_cpu_seconds() - cpu0;
    const ffc::exec::SweepReport& report = runner.last_report();

    std::uint64_t verified = 0;
    for (std::size_t i = 0; i < b; ++i) {
      ++result.attempted;
      if (!threw[i] && w.check_task(i, oracles, counters)) ++verified;
    }
    result.failed += b - verified;

    if (traced) {
      traced_wall += report.wall_seconds;
      traced_busy += report.total_task_seconds;
      ++traced_batches;
      result.traces.insert(result.traces.end(), batch_traces.begin(),
                           batch_traces.end());
    } else {
      plain_wall += report.wall_seconds;
      plain_cpu += cpu;
      plain_verified += verified;
      ++plain_batches;
      for (const auto& task : runner.last_manifest().tasks) {
        latencies.push_back(task.seconds);
      }
    }

    // Stop at the batch boundary nearest to o.seconds, but never before two
    // plain batches (one plain and one traced in a traced run), so that the
    // latency samples hold at least two copies of the batch mix.
    const double elapsed = plain_wall + traced_wall;
    const double mean_batch = elapsed / double(batch + 1);
    const bool enough = o.trace ? traced_batches > 0 : plain_batches >= 2;
    if (enough && elapsed + 0.5 * mean_batch >= o.seconds) break;
  }
  result.details["steal_s"] = steal_seconds() - steal0;
  if (!w.check_run(oracles)) ++result.failed;
  result.failed = std::min(result.failed, result.attempted);
  for (const auto& [oracle, failures] : oracles.failures()) {
    result.details["failed." + oracle] = double(failures);
  }

  const std::uint64_t batches = plain_batches + traced_batches;
  result.details["batches"] = double(batches);
  result.details["batch_size"] = double(b);
  result.details["failed_frac"] =
      double(result.failed) / double(result.attempted);
  result.details["eigen_unconverged_per_batch"] =
      double(counters.eigen_unconverged) / double(batches);

  if (!o.trace) {
    double tail_p = w.tail_percentile();
    for (double p : kPercentileLadder) {
      if (p > tail_p) continue;
      tail_p = p;
      const double cut = percentile(latencies, p);
      const auto beyond = std::count_if(latencies.begin(), latencies.end(),
                                        [cut](double x) { return x > cut; });
      result.details["tail_samples_beyond"] = double(beyond);
      if (std::size_t(beyond) >= kTailSamples) break;
    }
    result.details["tail_percentile"] = tail_p;
    result.details["latency_samples"] = double(latencies.size());

    auto& m = result.metrics;
    m["setup_s"] = {median(setup_times), "s"};
    m["tasks_per_s"] = {double(plain_verified) / plain_wall, "1/s"};
    m["task_p50_ms"] = {1e3 * percentile(latencies, 50.0), "ms"};
    m["task_tail_ms"] = {1e3 * percentile(latencies, tail_p), "ms"};
    // The phase ends at a batch boundary; scale to exactly o.seconds.
    m["cpu_s"] = {plain_cpu * o.seconds / plain_wall, "s"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    m["verified_frac"] = {
        double(result.attempted - result.failed) / double(result.attempted),
        "fraction"};
    return result;
  }

  // ---- traced run: per-layer metrics --------------------------------------
  auto& m = result.metrics;
  for (const auto& [name, unit] : kLayerMetrics) m[name] = {0.0, unit};
  const auto set = [&m](const std::string& name, double value) {
    auto it = m.find(name);
    if (it == m.end()) throw std::logic_error("unknown metric " + name);
    it->second.value = value;
  };
  const double per_batch = 1.0 / double(batches);
  const double per_traced = 1.0 / double(traced_batches);
  const TraceSummary summary = summarize(result.traces);
  const auto self_s = [&summary](const char* name) {
    auto it = summary.by_name.find(name);
    return it == summary.by_name.end() ? 0.0 : it->second.self_s;
  };

  set("exec.tasks", double(b));
  set("exec.task_busy_s", traced_busy * per_traced);
  set("exec.idle_s",
      (double(w.jobs()) * traced_wall - traced_busy) * per_traced);
  set("core.solve_fixed_point.calls", double(counters.fixed_point_calls) * per_batch);
  set("core.solve_fixed_point.iterations",
      double(counters.fixed_point_iterations) * per_batch);
  set("core.solve_fixed_point.unconverged",
      double(counters.fixed_point_unconverged) * per_batch);
  set("core.solve_fixed_point.busy_s", self_s("core.solve_fixed_point") * per_traced);
  set("core.run_dynamics.busy_s", self_s("core.run_dynamics") * per_traced);
  set("core.jacobian.busy_s", self_s("core.jacobian") * per_traced);
  set("linalg.eigenvalues.busy_s", self_s("linalg.eigenvalues") * per_traced);
  set("spectral.stability.busy_s", self_s("spectral.stability") * per_traced);
  set("spectral.model_evaluations", double(counters.model_evaluations) * per_batch);
  set("spectral.unconverged", double(counters.spectral_unconverged) * per_batch);
  const double run_for_s = self_s("sim.run_for") * per_traced;
  const double events = double(counters.sim_events) * per_batch;
  set("sim.run_for.busy_s", run_for_s);
  set("sim.events", events);
  set("sim.ns_per_event", events > 0 ? 1e9 * run_for_s / events : 0.0);
  set("sim.calendar_high_water", double(counters.calendar_high_water));
  set("network.build_s", median(build_times));
  set("trace.attributed_frac",
      summary.task_s > 0 ? summary.attributed_s / summary.task_s : 0.0);
  const double plain_rate = double(plain_batches * b) / plain_wall;
  const double traced_rate = double(traced_batches * b) / traced_wall;
  set("trace.overhead_frac", plain_rate / traced_rate - 1.0);

  Metrics replayed;
  w.replay_layers(replayed);
  for (const auto& [name, metric] : replayed) set(name, metric.value);

  result.details["traced_batches"] = double(traced_batches);
  return result;
}

}  // namespace perfbench
