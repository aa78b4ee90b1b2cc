// des_packets: open-loop packet-level simulation (README "Workloads").
//
// FIFO and Fair Share x {single gateway, 4-hop parking lot with link
// latency} x load rho in {0.5, 0.9} x {8, 64, 512} sources per gateway = 24
// tasks per batch, single-threaded. Each task builds a NetworkSimulator with
// delay sampling off, warms up, resets the metrics and runs a fixed
// simulated horizon; the source count varies the calendar's working set.
// The oracle is E8's: a simulated mean queue Q^a_i lies within 0.05 + 15%
// of the analytic Q^a_i(r), wherever that formula is exact (checked_gateways).
#include <cmath>
#include <memory>
#include <optional>

#include "exec/sweep_runner.hpp"
#include "harness.hpp"
#include "network/builders.hpp"
#include "obs/metrics.hpp"
#include "queueing/fair_share.hpp"
#include "queueing/fifo.hpp"
#include "sim/network_sim.hpp"
#include "sim/simulator.hpp"
#include "stats/rng.hpp"

namespace perfbench {

namespace {

using namespace ffc;

constexpr double kMu = 1.0;
constexpr double kLatency = 0.5;
// Simulated horizon, in packets served per gateway. At rho = 0.9 the
// time-average queue converges slowly (relaxation ~ 1 / (1 - sqrt(rho))^2
// services), and under Fair Share the largest sender's queue carries most of
// the gateway's fluctuation, so those cases run longest: each horizon keeps
// the worst checked queue well inside E8's band on every seed.
double served_per_gateway(bool fair_share, double rho) {
  if (rho < 0.7) return 5e4;
  return fair_share ? 1.2e6 : 5e5;
}
constexpr double kWarmFraction = 0.1;

struct Input {
  bool fair_share = false;
  double horizon = 0.0;
  std::optional<network::Topology> topology;
  std::vector<double> rates;
  /// Analytic Q^a_i in Gamma(a) order, per gateway (the oracle).
  std::vector<std::vector<double>> expected;
};

struct Output {
  std::vector<std::vector<double>> queues;  ///< simulated Q^a_i
  std::uint64_t events = 0;
  std::uint64_t calendar_high_water = 0;
};

/// Seeded heterogeneous rates with every gateway loaded to exactly rho: the
/// parking lot's long connection (id 0) takes a share of each gateway, the
/// cross traffic of that gateway the rest.
std::vector<double> seeded_rates(const network::Topology& topo, double rho,
                                 stats::Xoshiro256& rng) {
  std::vector<double> weight(topo.num_connections());
  for (double& w : weight) w = rng.uniform(0.5, 1.5);
  std::vector<double> rates(topo.num_connections(), 0.0);
  const bool multi_hop = topo.num_gateways() > 1;
  if (multi_hop) {
    rates[0] = rho * kMu * weight[0] / double(topo.fan_in(0));
  }
  for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
    double total = 0.0;
    for (network::ConnectionId i : topo.connections_through(a)) {
      if (!(multi_hop && i == 0)) total += weight[i];
    }
    const double left = rho * kMu - (multi_hop ? rates[0] : 0.0);
    for (network::ConnectionId i : topo.connections_through(a)) {
      if (!(multi_hop && i == 0)) rates[i] = left * weight[i] / total;
    }
  }
  return rates;
}

class DesPackets final : public Workload {
 public:
  std::size_t batch_size() const override { return inputs_.size(); }
  // A run makes two batches, 48 tasks: p75 has twelve samples beyond it.
  double tail_percentile() const override { return 75.0; }

  double setup(std::uint64_t seed) override {
    double build_s = 0.0;
    for (bool fair_share : {false, true}) {
      for (bool parking_lot : {false, true}) {
        for (double rho : {0.5, 0.9}) {
          for (std::size_t sources : {8, 64, 512}) {
            const auto t0 = Clock::now();
            network::Topology topo =
                parking_lot
                    ? network::parking_lot(4, sources - 1, kMu, kLatency)
                    : network::single_bottleneck(sources, kMu);
            build_s += seconds_since(t0);
            Input& in = inputs_.emplace_back();
            in.fair_share = fair_share;
            in.horizon = served_per_gateway(fair_share, rho) / (rho * kMu);
            stats::Xoshiro256 rng(
                exec::derive_task_seed(seed ^ 0xde5, inputs_.size()));
            in.rates = seeded_rates(topo, rho, rng);
            in.topology.emplace(std::move(topo));
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

  void run_task(std::size_t index, std::uint64_t task_seed,
                TaskTrace* trace) override {
    const Input& in = inputs_[index];
    Output& out = outputs_[index];
    std::optional<sim::NetworkSimulator> sim;
    {
      Scope s(trace, "sim.construct");
      sim.emplace(*in.topology,
                  in.fair_share ? sim::SimDiscipline::FairShare
                                : sim::SimDiscipline::Fifo,
                  task_seed);
      sim->set_delay_sampling(false);
      sim->set_rates(in.rates);
    }
    {
      Scope s(trace, "sim.run_for");
      sim->run_for(kWarmFraction * in.horizon);
    }
    {
      Scope s(trace, "sim.reset_metrics");
      sim->reset_metrics();
    }
    {
      Scope s(trace, "sim.run_for");
      sim->run_for(in.horizon);
    }
    Scope s(trace, "sim.collect_metrics");
    obs::MetricRegistry registry;
    sim->collect_metrics(registry);
    out.events = registry.counter("des.events_processed");
    out.calendar_high_water = registry.high_water("des.calendar_high_water");
    const network::Topology& topo = *in.topology;
    out.queues.resize(topo.num_gateways());
    for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
      out.queues[a].clear();
      for (network::ConnectionId i : topo.connections_through(a)) {
        out.queues[a].push_back(sim->mean_queue(a, i));
      }
    }
  }

  bool check_task(std::size_t index, Oracles& oracles,
                  BatchCounters& counters) override {
    Input& in = inputs_[index];
    const Output& out = outputs_[index];
    counters.sim_events += out.events;
    counters.calendar_high_water =
        std::max(counters.calendar_high_water, out.calendar_high_water);
    if (in.expected.empty()) in.expected = analytic_queues(in);
    const double scale = oracles.negative() ? 1.5 : 1.0;
    bool in_band = true;
    for (std::size_t a = 0; a < checked_gateways(in); ++a) {
      for (std::size_t k = 0; k < in.expected[a].size(); ++k) {
        const double q = scale * in.expected[a][k];
        in_band = in_band && std::fabs(out.queues[a][k] - q) <= 0.05 + 0.15 * q;
      }
    }
    return oracles.check("queue_band", in_band);
  }

  void replay_layers(Metrics& out) override {
    // The calendar at each task's own high-water mark: a hold model where
    // every step pops the earliest event and schedules one replacement.
    double calendar_ns = 0.0, calendar_ops = 0.0;
    std::uint64_t draws_wanted = 0;
    for (const Output& o : outputs_) {
      calendar_ns += hold_model_ns(std::max<std::size_t>(1, o.calendar_high_water),
                                   kCalendarOps);
      calendar_ops += double(kCalendarOps);
      draws_wanted += o.events;
    }
    out["sim.calendar.ns_per_op"].value = calendar_ns / calendar_ops;

    // The exponential draws of one batch (about one per event), capped.
    const std::uint64_t draws = std::min<std::uint64_t>(draws_wanted, 20000000);
    stats::Xoshiro256 rng(draws_wanted);
    double sum = 0.0;
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < draws; ++k) sum += rng.exponential(1.0);
    const double ns = double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 Clock::now() - t0)
                                 .count());
    out["stats.rng.ns_per_draw"].value = draws ? ns / double(draws) : 0.0;
    sink_ = sum;
  }

 private:
  static constexpr std::uint64_t kCalendarOps = 200000;

  /// Handler that keeps the calendar at a constant size. Its delays come
  /// from a precomputed table, so the timed loop makes no RNG draws.
  struct Hold final : sim::EventHandler {
    sim::Simulator* sim = nullptr;
    std::vector<double> delays;
    std::size_t next = 0;
    void handle_event(sim::SimEvent& event) override {
      sim->schedule_event_in(delays[next++ % delays.size()], *this, event);
    }
  };

  static double hold_model_ns(std::size_t size, std::uint64_t ops) {
    sim::Simulator sim;
    Hold hold;
    hold.sim = &sim;
    stats::Xoshiro256 rng(size);
    hold.delays.resize(4096);
    for (double& d : hold.delays) d = rng.exponential(1.0);
    sim::SimEvent event;
    event.kind = sim::EventKind::Arrival;
    for (std::size_t k = 0; k < size; ++k) {
      sim.schedule_event_at(rng.exponential(1.0), hold, event);
    }
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < ops; ++k) sim.step();
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count());
  }

  /// Gateways whose analytic queues are exact. FIFO networks with
  /// exponential service are product-form (Kelly), so every FIFO gateway
  /// is. Under Fair Share only a gateway fed by fresh Poisson sources is:
  /// downstream of a Fair Share hop the long connection's departures are
  /// burstier than Poisson, and when it is its gateways' largest sender its
  /// simulated queue at the fourth hop runs ~17% above the formula at
  /// rho = 0.9 -- the limit of the paper's Poisson-through-the-network
  /// approximation, not a simulator error. Those gateways are not checked.
  static std::size_t checked_gateways(const Input& in) {
    return in.fair_share ? 1 : in.topology->num_gateways();
  }

  static std::vector<std::vector<double>> analytic_queues(const Input& in) {
    const network::Topology& topo = *in.topology;
    const queueing::Fifo fifo;
    const queueing::FairShare fair_share;
    const queueing::ServiceDiscipline& d =
        in.fair_share ? static_cast<const queueing::ServiceDiscipline&>(fair_share)
                      : fifo;
    std::vector<std::vector<double>> expected(topo.num_gateways());
    for (std::size_t a = 0; a < topo.num_gateways(); ++a) {
      std::vector<double> local;
      for (network::ConnectionId i : topo.connections_through(a)) {
        local.push_back(in.rates[i]);
      }
      expected[a] = d.queue_lengths(local, topo.gateway(a).mu);
    }
    return expected;
  }

  std::vector<Input> inputs_;
  std::vector<Output> outputs_;
  volatile double sink_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_des_packets() {
  return std::make_unique<DesPackets>();
}

}  // namespace perfbench
