#include "stages.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <string_view>

#include "core/congestion.hpp"
#include "network/csr.hpp"
#include "spectral/analytic.hpp"

namespace perfbench {

namespace {

volatile double g_sink = 0.0;  // keeps replayed results observable

template <typename F>
double time_ns(std::size_t reps, F&& body) {
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < reps; ++r) body();
  return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - t0)
                    .count());
}

/// y = A x through a borrowed operator, counting and timing applications.
class CountingOperator final : public ffc::linalg::LinearOperator {
 public:
  explicit CountingOperator(const ffc::linalg::LinearOperator& inner)
      : inner_(inner) {}
  std::size_t dim() const override { return inner_.dim(); }
  void apply(const ffc::linalg::Vector& x,
             ffc::linalg::Vector& y) const override {
    const auto t0 = Clock::now();
    inner_.apply(x, y);
    seconds_ += seconds_since(t0);
    ++applications_;
  }
  std::uint64_t applications() const { return applications_; }
  double seconds() const { return seconds_; }

 private:
  const ffc::linalg::LinearOperator& inner_;
  mutable std::uint64_t applications_ = 0;
  mutable double seconds_ = 0.0;
};

}  // namespace

void StageReplay::replay(const ffc::core::FlowControlModel& model,
                         const std::vector<double>& rates,
                         std::size_t visits) {
  using namespace ffc;
  const network::Topology& topo = model.topology();
  const network::CsrIncidence& csr = topo.incidence();
  const std::size_t n = topo.num_connections();
  const std::size_t e = csr.num_entries();
  const std::size_t gateways = topo.num_gateways();
  const std::size_t reps = std::max<std::size_t>(3, (visits + n - 1) / n);

  core::ModelWorkspace ws;
  model.step(rates, ws);  // validates the rates and warms the workspace
  const core::NetworkState& state = ws.state;

  step_.ns += time_ns(reps, [&] { model.step_unchecked(rates, ws); });
  step_.items += double(reps * n);

  // Inputs of each stage, as step_unchecked computes them.
  std::vector<std::vector<double>> local(gateways), queues(gateways),
      congestion(gateways);
  for (std::size_t a = 0; a < gateways; ++a) {
    for (network::ConnectionId i : topo.connections_through(a)) {
      local[a].push_back(rates[i]);
    }
    queues[a] = state.gateways[a].queues;
    congestion[a] = state.gateways[a].congestion;
  }
  std::vector<double> out, flat, per_conn;

  queueing::DisciplineWorkspace dws;
  const std::string_view discipline_name = model.discipline().name();
  Cost* discipline = discipline_name == "FIFO"        ? &fifo_
                     : discipline_name == "FairShare" ? &fair_share_
                                                      : nullptr;
  if (discipline) {
    discipline->ns += time_ns(reps, [&] {
      for (std::size_t a = 0; a < gateways; ++a) {
        model.discipline().queue_lengths_into(local[a], topo.gateway(a).mu,
                                              dws, out);
      }
    });
    discipline->items += double(reps * e);
  }

  core::CongestionWorkspace cws;
  congestion_.ns += time_ns(reps, [&] {
    for (std::size_t a = 0; a < gateways; ++a) {
      core::congestion_measures_into(model.style(), queues[a], cws, out);
    }
  });
  congestion_.items += double(reps * e);

  std::size_t widest = 0;
  for (const auto& c : congestion) widest = std::max(widest, c.size());
  std::vector<double> signals(widest);
  signal_.ns += time_ns(reps, [&] {
    for (std::size_t a = 0; a < gateways; ++a) {
      model.signal().apply_into(congestion[a],
                                std::span(signals.data(), congestion[a].size()));
    }
  });
  signal_.items += double(reps * e);

  double acc = 0.0;
  adjuster_.ns += time_ns(reps, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      acc += model.adjuster(i)(rates[i], state.combined_signals[i],
                               state.delays[i]);
    }
  });
  adjuster_.items += double(reps * n);

  gather_.ns += time_ns(
      reps, [&] { network::gather_by_gateway_into(csr, rates, flat); });
  gather_.items += double(reps * e);

  reduce_max_.ns += time_ns(
      reps, [&] { network::reduce_max_over_paths_into(csr, flat, per_conn); });
  reduce_max_.items += double(reps * n);

  g_sink = acc + out.back() + signals.front() + per_conn.front() +
           ws.next.front();
}

void StageReplay::report(Metrics& out) const {
  out["core.step.ns_per_conn"].value = step_.per_item();
  out["core.congestion.ns_per_conn"].value = congestion_.per_item();
  out["core.signal.ns_per_conn"].value = signal_.per_item();
  out["core.adjuster.ns_per_conn"].value = adjuster_.per_item();
  out["queueing.queue_lengths.fifo.ns_per_conn"].value = fifo_.per_item();
  out["queueing.queue_lengths.fair_share.ns_per_conn"].value =
      fair_share_.per_item();
  out["network.gather.ns_per_slot"].value = gather_.per_item();
  out["network.reduce_max.ns_per_conn"].value = reduce_max_.per_item();
}

void IterativeReplay::replay(const ffc::core::FlowControlModel& model,
                             const std::vector<double>& base,
                             std::size_t count,
                             const ffc::linalg::IterativeEigenOptions& options) {
  const ffc::spectral::AnalyticJacobianOperator op(model, base);
  const CountingOperator counted(op);
  const auto t0 = Clock::now();
  const auto result = ffc::linalg::iterative_eigenvalues(counted, count, options);
  solve_s_ += seconds_since(t0);
  applications_ += counted.applications();
  apply_s_ += counted.seconds();
  apply_conn_visits_ += double(counted.applications()) * double(base.size());
  if (result.method == ffc::linalg::IterativeMethod::Arnoldi) ++arnoldi_solves_;
}

void IterativeReplay::report(Metrics& out) const {
  out["linalg.iterative.applications"].value = double(applications_);
  out["linalg.iterative.self_s"].value = solve_s_ - apply_s_;
  out["linalg.iterative.arnoldi_solves"].value = double(arnoldi_solves_);
  out["spectral.jvp.ns_per_conn"].value =
      apply_conn_visits_ > 0 ? 1e9 * apply_s_ / apply_conn_visits_ : 0.0;
}

}  // namespace perfbench
