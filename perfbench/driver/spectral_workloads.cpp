// spectral_single and spectral_multi: matrix-free stability verdicts at
// N = 10^4 .. 10^5 (README "Workloads"). Both run single-threaded.
//
// spectral_single: the S2 aggregate-FIFO quadratic map at eta = 1.2 and 1.6
// (plus 0.8, 1.3 and 1.4 at N = 10^4) and the Theorem-4 individual + Fair
// Share map at one bottleneck, N in {10^4, 10^5}, at closed-form base
// points. Real spectra: the power path.
//
// spectral_multi: individual + Fair Share at the fair fixed point of a
// 4-hop parking lot (N = 10^4 and 2 10^4) and of a 200-gateway random
// topology (N = 10^4, fixed seed). Each task polishes the fixed point with
// core::solve_fixed_point, then runs E16's 300-step power probe; the
// clustered random-topology spectrum goes on to restarted Arnoldi.
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "core/rate_adjustment.hpp"
#include "core/signal.hpp"
#include "core/steady_state.hpp"
#include "exec/sweep_runner.hpp"
#include "harness.hpp"
#include "network/builders.hpp"
#include "queueing/fair_share.hpp"
#include "queueing/fifo.hpp"
#include "spectral/stability.hpp"
#include "stages.hpp"
#include "stats/rng.hpp"

namespace perfbench {

namespace {

using namespace ffc;

constexpr double kBeta = 0.5;
constexpr double kT4Gain = 0.4;

struct Input {
  std::optional<core::FlowControlModel> model;
  std::vector<double> base;  ///< closed-form base point / solve start
  spectral::SpectralOptions options;
  /// Closed-form spectral radius, or NaN where the oracle is the verdict.
  double expected_radius = std::nan("");
};

struct Output {
  core::FixedPointResult fp;
  spectral::SpectralReport report;
};

core::FlowControlModel fair_share_model(network::Topology topo) {
  return core::FlowControlModel(
      std::move(topo), std::make_shared<queueing::FairShare>(),
      std::make_shared<core::RationalSignal>(),
      core::FeedbackStyle::Individual,
      std::make_shared<core::AdditiveTsi>(kT4Gain, kBeta));
}

spectral::SpectralOptions iterative_options() {
  spectral::SpectralOptions options;
  options.method = spectral::SpectralOptions::Method::Iterative;
  return options;
}

/// The shared body of both workloads; `polish` adds the fixed-point solve.
class SpectralWorkload : public Workload {
 public:
  explicit SpectralWorkload(bool polish) : polish_(polish) {}

  std::size_t batch_size() const override { return inputs_.size(); }
  // 15 to 30 tasks in a 20 s run: the median is the highest percentile with
  // about ten samples beyond it.
  double tail_percentile() const override { return 50.0; }

  void teardown() override {
    inputs_.clear();
    outputs_.clear();
  }

  void run_task(std::size_t index, std::uint64_t task_seed,
                TaskTrace* trace) override {
    const Input& in = inputs_[index];
    Output& out = outputs_[index];
    const std::vector<double>* point = &in.base;
    if (polish_) {
      Scope s(trace, "core.solve_fixed_point");
      out.fp = core::solve_fixed_point(*in.model, in.base);
      point = &out.fp.rates;
    }
    spectral::SpectralOptions options = in.options;
    options.iterative.start_seed = task_seed;
    Scope s(trace, "spectral.stability");
    out.report = spectral::spectral_stability(*in.model, *point, options);
  }

  bool check_task(std::size_t index, Oracles& oracles,
                  BatchCounters& counters) override {
    const Input& in = inputs_[index];
    const Output& out = outputs_[index];
    counters.model_evaluations += out.report.model_evaluations;
    if (!out.report.converged) ++counters.spectral_unconverged;
    const bool negative = oracles.negative();
    bool ok = oracles.check(
        "converged",
        (out.report.converged && out.report.used_iterative) != negative);
    if (polish_) {
      ++counters.fixed_point_calls;
      counters.fixed_point_iterations += out.fp.iterations;
      if (!out.fp.converged) ++counters.fixed_point_unconverged;
      ok &= oracles.check("fixed_point", out.fp.converged != negative);
    }
    if (std::isnan(in.expected_radius)) {
      // Theorem 4: individual feedback + Fair Share is stable here.
      ok &= oracles.check("t4", out.report.systemically_stable != negative);
    } else {
      const double expected = in.expected_radius + (negative ? 0.01 : 0.0);
      ok &= oracles.check(
          "closed_form_radius",
          std::fabs(out.report.spectral_radius - expected) <= 1e-6);
    }
    return ok;
  }

  void replay_layers(Metrics& out) override {
    StageReplay stages;
    IterativeReplay iterative;
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      const Input& in = inputs_[i];
      const std::vector<double>& point =
          polish_ ? outputs_[i].fp.rates : in.base;
      stages.replay(*in.model, point);
      linalg::IterativeEigenOptions options = in.options.iterative;
      options.real_spectrum =
          options.real_spectrum || outputs_[i].report.triangular_hint;
      options.start_seed = exec::derive_task_seed(seed_, i);
      iterative.replay(*in.model, point, 1, options);
    }
    stages.report(out);
    iterative.report(out);
  }

 protected:
  bool polish_;
  std::uint64_t seed_ = 0;
  std::vector<Input> inputs_;
  std::vector<Output> outputs_;
};

class SpectralSingle final : public SpectralWorkload {
 public:
  SpectralSingle() : SpectralWorkload(false) {}

  double setup(std::uint64_t seed) override {
    seed_ = seed;
    double build_s = 0.0;
    for (std::size_t n : {std::size_t(10000), std::size_t(100000)}) {
      // At N = 10^4 the S2 gains scan toward the onset: as the reduced
      // multiplier 1 - 2 eta sqrt(beta) nears -1 the power iteration needs
      // 47 (eta = 1.2), 96 (1.3) and 303 (1.4) applications. The scan also
      // puts the median task on a cache-resident N = 10^4 solve, whose
      // latency varies far less from run to run than an N = 10^5 one.
      for (double eta : n == 10000
                            ? std::vector<double>{0.8, 1.2, 1.3, 1.4, 1.6}
                            : std::vector<double>{1.2, 1.6}) {
        const auto t0 = Clock::now();
        network::Topology topo = network::single_bottleneck(n, double(n));
        build_s += seconds_since(t0);
        Input& in = inputs_.emplace_back();
        in.model.emplace(std::move(topo), std::make_shared<queueing::Fifo>(),
                         std::make_shared<core::QuadraticSignal>(),
                         core::FeedbackStyle::Aggregate,
                         std::make_shared<core::AdditiveTsi>(eta, kBeta));
        in.base.assign(n, std::sqrt(kBeta));
        in.options = iterative_options();
        // S2: the fixed point r_i = sqrt(beta) carries an (N-1)-fold unit
        // manifold and the reduced multiplier 1 - 2 eta sqrt(beta). Below
        // the onset the radius is the manifold's 1; hunting past a
        // (N-1)-fold unit eigenvalue is futile, so that solve stops at one.
        const double s = 1.0 - 2.0 * eta * std::sqrt(kBeta);
        if (std::fabs(s) < 1.0) {
          in.options.max_unit_deflations = 0;
          in.expected_radius = 1.0;
        } else {
          in.expected_radius = std::fabs(s);
        }
      }
      const auto t0 = Clock::now();
      network::Topology topo = network::single_bottleneck(n, double(n));
      build_s += seconds_since(t0);
      Input& in = inputs_.emplace_back();
      in.model.emplace(fair_share_model(std::move(topo)));
      in.base = core::fair_steady_state(*in.model);
      in.options = iterative_options();
    }
    outputs_.assign(inputs_.size(), Output{});
    return build_s;
  }
};

class SpectralMulti final : public SpectralWorkload {
 public:
  SpectralMulti() : SpectralWorkload(true) {}

  double setup(std::uint64_t seed) override {
    seed_ = seed;
    double build_s = 0.0;
    const auto add_task = [&](network::Topology topo) {
      Input& in = inputs_.emplace_back();
      in.model.emplace(fair_share_model(std::move(topo)));
      in.base = core::fair_steady_state(*in.model);
      in.options = iterative_options();
      in.options.iterative.power_iterations = 300;  // E16's probe
    };
    // Gateway rates scale with fan-in so that shares stay O(1) against the
    // fixed gain (E16); the fair fixed point is then stable (Theorem 4).
    for (std::size_t cross : {std::size_t(2500), std::size_t(5000)}) {
      const auto t0 = Clock::now();
      network::Topology topo =
          network::parking_lot(4, cross, double(cross + 1));
      build_s += seconds_since(t0);
      add_task(std::move(topo));
    }
    // One fixed network, seeded as in E16, so that every run certifies the
    // same spectrum: the number of Arnoldi restarts differs from one random
    // network to the next (up to 2x), which would swamp the timing. The run
    // seed varies the eigensolver start vectors.
    stats::Xoshiro256 rng(20260807);
    network::RandomTopologyParams params;
    params.num_gateways = 200;
    params.num_connections = 10000;
    params.max_path_length = 4;
    // Expected fan-in is 10^4 x 2.5 / 200 = 125 slots.
    params.mu_min = 100.0;
    params.mu_max = 150.0;
    const auto t0 = Clock::now();
    network::Topology topo = network::random_topology(rng, params);
    build_s += seconds_since(t0);
    add_task(std::move(topo));
    outputs_.assign(inputs_.size(), Output{});
    return build_s;
  }

  /// The first parking-lot task against the finite-difference operator.
  bool check_run(Oracles& oracles) override {
    spectral::SpectralOptions options = inputs_[0].options;
    options.jvp_mode = spectral::SpectralOptions::Jvp::FiniteDifference;
    options.iterative.start_seed = exec::derive_task_seed(seed_, 0);
    const auto reference = spectral::spectral_stability(
        *inputs_[0].model, outputs_[0].fp.rates, options);
    const double expected =
        reference.spectral_radius + (oracles.negative() ? 0.01 : 0.0);
    return oracles.check(
        "fd_reference",
        reference.converged &&
            std::fabs(outputs_[0].report.spectral_radius - expected) <= 1e-5);
  }
};

}  // namespace

std::unique_ptr<Workload> make_spectral_single() {
  return std::make_unique<SpectralSingle>();
}

std::unique_ptr<Workload> make_spectral_multi() {
  return std::make_unique<SpectralMulti>();
}

}  // namespace perfbench
