// The closed-loop batch harness every workload runs under.
//
// A workload is a fixed batch of tasks built from the run's seed. The timed
// phase runs the whole batch through exec::SweepRunner again and again (a
// worker starts its next task only when the previous one has finished) until
// the run's seconds are used up, so every batch repeats the same inputs and
// the latency samples are whole copies of the batch mix. Oracle checks run
// between batches, outside the timed intervals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Deterministic per-batch work counters a workload's tasks produce. Every
/// batch repeats the same inputs, so each counter is identical in every
/// batch of a run; the harness reports the per-batch value.
struct BatchCounters {
  std::uint64_t fixed_point_calls = 0;
  std::uint64_t fixed_point_iterations = 0;
  std::uint64_t fixed_point_unconverged = 0;
  std::uint64_t model_evaluations = 0;
  /// Dense QR solves that hit their iteration cap (linalg::EigenResult).
  std::uint64_t eigen_unconverged = 0;
  std::uint64_t spectral_unconverged = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t calendar_high_water = 0;  ///< max, not sum
};

/// Failures per named oracle over a run. A workload evaluates every oracle
/// a task is subject to, even after an earlier one has failed, so that a
/// negative-control run shows each oracle failing on its own.
class Oracles {
 public:
  explicit Oracles(bool negative_control) : negative_(negative_control) {}

  /// True in a negative-control run: every oracle is fed a wrong expected
  /// value (a boolean expectation is inverted).
  bool negative() const { return negative_; }

  /// Records one evaluation of `oracle`; returns `passed`.
  bool check(const std::string& oracle, bool passed) {
    failures_[oracle] += passed ? 0 : 1;
    return passed;
  }

  /// Failure count of every oracle evaluated at least once.
  const std::map<std::string, std::uint64_t>& failures() const {
    return failures_;
  }

 private:
  bool negative_;
  std::map<std::string, std::uint64_t> failures_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Worker threads the batch fans out over (SweepRunner jobs).
  virtual std::size_t jobs() const { return 1; }
  virtual std::size_t batch_size() const = 0;
  /// Percentile of the task_tail_ms metric (see README "Metrics").
  virtual double tail_percentile() const = 0;
  /// True to run one untimed batch before the timed phase.
  virtual bool warm_up() const { return false; }

  /// Builds every input from the seed: topologies with their CSR incidence,
  /// models, base points and warm workspaces. Called several times per run
  /// (set-up time is the median); each call replaces the previous inputs.
  /// Returns the seconds spent building topologies (network.build_s).
  virtual double setup(std::uint64_t seed) = 0;
  /// Releases the inputs of the last setup() (not timed).
  virtual void teardown() = 0;

  /// Runs task `index` of the batch. Called concurrently for different
  /// indices when jobs() > 1; results go to per-index slots.
  virtual void run_task(std::size_t index, std::uint64_t task_seed,
                        TaskTrace* trace) = 0;

  /// Checks task `index` of the batch just run against its oracles and adds
  /// its counters. Returns true iff the task passed every oracle.
  virtual bool check_task(std::size_t index, Oracles& oracles,
                          BatchCounters& counters) = 0;

  /// Run-level oracle after the timed phase (e.g. one task against a
  /// finite-difference reference). Returns true iff it passed.
  virtual bool check_run(Oracles& /*oracles*/) { return true; }

  /// Traced runs only: replays layer kernels on the batch's own inputs and
  /// adds the per-layer metrics they measure.
  virtual void replay_layers(Metrics& out) = 0;
};

std::unique_ptr<Workload> make_map_smalln();
std::unique_ptr<Workload> make_spectral_single();
std::unique_ptr<Workload> make_spectral_multi();
std::unique_ptr<Workload> make_des_packets();

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool negative_control = false;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  /// Free-form details printed beside the result (tail percentile, counts,
  /// failures per oracle as "failed.<oracle>").
  std::map<std::string, double> details;
  /// Every traced task's spans (traced runs).
  std::vector<TaskTrace> traces;
};

RunResult run_workload(Workload& workload, const RunOptions& options);

/// Linear-interpolation percentile (p in [0, 100]) of unsorted samples.
double percentile(std::vector<double> samples, double p);

}  // namespace perfbench
