// map_smalln: the paper's design matrix at paper scale (README "Workloads").
//
// 2 disciplines x 2 feedback styles x N in {2..64} x {single bottleneck,
// 3-hop parking lot} x 4 gains = 192 tasks per batch, fanned out over two
// SweepRunner workers. Each task solves for a fixed point from a seeded
// start, classifies the orbit from the same start, and gives a dense
// stability verdict. At N <= 64 per-call overhead in core, queueing and exec
// dominates; spectral and sim never run here.
#include <cmath>
#include <iterator>
#include <memory>
#include <optional>

#include "core/dynamics.hpp"
#include "core/rate_adjustment.hpp"
#include "core/signal.hpp"
#include "core/stability.hpp"
#include "core/steady_state.hpp"
#include "exec/sweep_runner.hpp"
#include "harness.hpp"
#include "linalg/eigen.hpp"
#include "network/builders.hpp"
#include "queueing/fair_share.hpp"
#include "queueing/fifo.hpp"
#include "stages.hpp"
#include "stats/rng.hpp"

namespace perfbench {

namespace {

using namespace ffc;

constexpr double kBeta = 0.5;
// With B(C) = (C/(1+C))^2 and mu = fan-in, the map's multiplier at the fair
// point is 1 - 2 eta sqrt(beta) for both feedback styles (S2), so the onset
// is eta* = sqrt(2): 0.4 converges monotonically, 1.2 converges with
// alternating sign, 1.6 settles on a period-2 orbit, 1.95 is chaotic.
constexpr double kGains[] = {0.4, 1.2, 1.6, 1.95};
constexpr std::size_t kSizes[] = {2, 4, 8, 16, 32, 64};
const double kOnset = std::sqrt(2.0);

struct Case {
  bool parking_lot = false;
  bool fair_share = false;
  core::FeedbackStyle style = core::FeedbackStyle::Aggregate;
  double eta = 0.0;
};

struct Input {
  Case c;
  std::optional<core::FlowControlModel> model;
  std::vector<double> fair;   ///< Theorem 2's fair steady state
  std::vector<double> start;  ///< seeded start of the solve and the orbit
};

struct Output {
  core::FixedPointResult fp;
  core::OrbitKind orbit = core::OrbitKind::Irregular;
  double radius = 0.0;
  bool eigen_converged = false;
};

/// N connections in total: one bottleneck of rate N, or a 3-hop parking lot
/// whose gateways have rate = fan-in (N = 2 rounds up to 4 connections).
network::Topology topology_for(bool parking_lot, std::size_t n) {
  if (!parking_lot) return network::single_bottleneck(n, double(n));
  const std::size_t cross = std::max<std::size_t>(1, (n - 1) / 3);
  return network::parking_lot(3, cross, double(cross + 1));
}

class MapSmallN final : public Workload {
 public:
  std::size_t jobs() const override { return 2; }
  std::size_t batch_size() const override { return inputs_.size(); }
  double tail_percentile() const override { return 99.0; }
  bool warm_up() const override { return true; }

  double setup(std::uint64_t seed) override {
    double build_s = 0.0;
    inputs_.reserve(2 * 2 * 2 * std::size(kSizes) * std::size(kGains));
    for (bool parking_lot : {false, true}) {
      for (bool fair_share : {false, true}) {
        for (auto style : {core::FeedbackStyle::Aggregate,
                           core::FeedbackStyle::Individual}) {
          for (std::size_t n : kSizes) {
            for (double eta : kGains) {
              const auto t0 = Clock::now();
              network::Topology topo = topology_for(parking_lot, n);
              build_s += seconds_since(t0);
              Input& in = inputs_.emplace_back();
              in.c = {parking_lot, fair_share, style, eta};
              std::shared_ptr<const queueing::ServiceDiscipline> discipline;
              if (fair_share) {
                discipline = std::make_shared<queueing::FairShare>();
              } else {
                discipline = std::make_shared<queueing::Fifo>();
              }
              in.model.emplace(std::move(topo), std::move(discipline),
                               std::make_shared<core::QuadraticSignal>(),
                               style,
                               std::make_shared<core::AdditiveTsi>(eta, kBeta));
              in.fair = core::fair_steady_state(*in.model);
              // Same per-task seed the SweepRunner hands the task.
              stats::Xoshiro256 rng(
                  exec::derive_task_seed(seed, inputs_.size() - 1));
              in.start.resize(in.fair.size());
              for (std::size_t i = 0; i < in.fair.size(); ++i) {
                in.start[i] = in.fair[i] * rng.uniform(0.5, 1.0);
              }
            }
          }
        }
      }
    }
    outputs_.assign(inputs_.size(), Output{});
    return build_s;
  }

  void teardown() override {
    inputs_.clear();
    outputs_.clear();
  }

  void run_task(std::size_t index, std::uint64_t, TaskTrace* trace) override {
    const Input& in = inputs_[index];
    Output& out = outputs_[index];
    {
      Scope s(trace, "core.solve_fixed_point");
      out.fp = core::solve_fixed_point(*in.model, in.start);
    }
    {
      Scope s(trace, "core.run_dynamics");
      out.orbit = core::run_dynamics(*in.model, in.start).kind;
    }
    linalg::Matrix df;
    {
      Scope s(trace, "core.jacobian");
      df = core::jacobian(*in.model, out.fp.converged ? out.fp.rates : in.fair);
    }
    Scope s(trace, "linalg.eigenvalues");
    const linalg::EigenResult eig = linalg::eigenvalues(df);
    out.eigen_converged = eig.converged;
    out.radius = 0.0;
    for (const auto& lambda : eig.values) {
      out.radius = std::max(out.radius, std::abs(lambda));
    }
  }

  bool check_task(std::size_t index, Oracles& oracles,
                  BatchCounters& counters) override {
    const Input& in = inputs_[index];
    const Output& out = outputs_[index];
    ++counters.fixed_point_calls;
    counters.fixed_point_iterations += out.fp.iterations;
    if (!out.fp.converged) ++counters.fixed_point_unconverged;

    // linalg::eigenvalues can stop at its iteration cap on the kinked
    // finite-difference Jacobians of tied fair points; the radius it
    // returns is still the oracles' input, and the count is reported.
    if (!out.eigen_converged) ++counters.eigen_unconverged;
    const bool negative = oracles.negative();
    bool ok = oracles.check("radius_finite",
                            std::isfinite(out.radius) != negative);
    const bool stable_gain = in.c.eta < kOnset;
    const bool individual = in.c.style == core::FeedbackStyle::Individual;
    // T3: individual feedback converges to the unique fair steady state.
    if (individual && stable_gain) {
      const double scale = negative ? 1.01 : 1.0;
      double worst = 0.0, size = 1.0;
      for (std::size_t i = 0; i < in.fair.size(); ++i) {
        worst = std::max(worst, std::fabs(out.fp.rates[i] - scale * in.fair[i]));
        size = std::max(size, std::fabs(in.fair[i]));
      }
      ok &= oracles.check("t3", out.fp.converged && worst <= 1e-6 * size);
    }
    // T4: individual feedback + Fair Share is systemically stable wherever
    // it is unilaterally stable (the stable side of the gain axis).
    if (individual && in.c.fair_share && stable_gain) {
      ok &= oracles.check("t4", (out.radius < 1.0) != negative);
    }
    // S2: aggregate feedback at one bottleneck has the reduced multiplier
    // |1 - 2 eta sqrt(beta)| past the onset.
    if (!individual && !in.c.parking_lot && !stable_gain) {
      const double expected = std::fabs(1.0 - 2.0 * in.c.eta * std::sqrt(kBeta)) +
                              (negative ? 0.01 : 0.0);
      ok &= oracles.check("s2_radius", std::fabs(out.radius - expected) <= 1e-4);
    }
    // Past the onset no orbit settles on the fixed point.
    if (!stable_gain) {
      ok &= oracles.check(
          "orbit", (out.orbit == core::OrbitKind::Converged) == negative);
    }
    return ok;
  }

  void replay_layers(Metrics& out) override {
    StageReplay stages;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      stages.replay(*inputs_[i].model, outputs_[i].fp.rates);
    }
    stages.report(out);
  }

 private:
  std::vector<Input> inputs_;
  std::vector<Output> outputs_;
};

}  // namespace

std::unique_ptr<Workload> make_map_smalln() {
  return std::make_unique<MapSmallN>();
}

}  // namespace perfbench
