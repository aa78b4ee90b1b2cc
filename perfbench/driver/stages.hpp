// Replays of single layer kernels on a task's own inputs (traced runs).
//
// StageReplay times FlowControlModel::step_unchecked and, one at a time, the
// public function of each stage it runs -- gateway gather, queue lengths,
// congestion measures, signal, bottleneck max, adjuster -- at the rates a
// task ended on, and reports cost per connection (or per incidence slot).
// IterativeReplay re-runs a task's eigensolve through a counting, timing
// wrapper around AnalyticJacobianOperator, which splits the solve into
// operator applications x cost per application plus the solver's own time.
#pragma once

#include <cstdint>
#include <vector>

#include "core/model.hpp"
#include "harness.hpp"
#include "linalg/sparse_eigen.hpp"

namespace perfbench {

class StageReplay {
 public:
  /// Replays every stage at `rates` (validated: finite, >= 0), repeating
  /// each timed loop until it has visited about `visits` connections.
  void replay(const ffc::core::FlowControlModel& model,
              const std::vector<double>& rates, std::size_t visits = 20000);
  void report(Metrics& out) const;

 private:
  struct Cost {
    double ns = 0.0;
    double items = 0.0;
    double per_item() const { return items > 0 ? ns / items : 0.0; }
  };
  Cost step_, congestion_, signal_, adjuster_, fifo_, fair_share_, gather_,
      reduce_max_;
};

class IterativeReplay {
 public:
  /// Solves for the `count` dominant eigenvalues of DF(base) with `options`,
  /// as the task's spectral_stability call did, counting and timing every
  /// operator application.
  void replay(const ffc::core::FlowControlModel& model,
              const std::vector<double>& base, std::size_t count,
              const ffc::linalg::IterativeEigenOptions& options);
  /// Reports the sums over every replay; replaying each task of one batch
  /// once makes them per-batch values.
  void report(Metrics& out) const;

 private:
  std::uint64_t applications_ = 0;
  std::uint64_t arnoldi_solves_ = 0;
  double solve_s_ = 0.0;
  double apply_s_ = 0.0;
  double apply_conn_visits_ = 0.0;
};

}  // namespace perfbench
