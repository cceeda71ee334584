// Scenario: a P2P system under continuous churn, with periodic load
// balancing driven by the discrete-event engine.
//
//   $ ./build/examples/churn_simulation [--hours H] [--nodes N]
//
// Nodes join and leave continuously (exponential inter-arrival times);
// object load shifts as arcs split and merge.  Every simulated
// "balancing interval" a timed balancing round (lb::ProtocolRound) runs
// on the same engine that drives the churn, with unit message latency.
// The example prints a time series of the heavy-node fraction and the
// max unit load right before and right after each round -- showing the
// balancer repeatedly absorbing churn-induced imbalance.
//
// One designated round gets a crash burst under it mid-flight
// (`--crash-burst N` nodes at once): because decisions and endpoints are
// snapshotted at round start and transfers are validated at delivery, the
// round still completes (transfers whose endpoints vanished are skipped,
// none are lost from the accounting).
//
// With `--series FILE` (and optional `--windows W`, default 10) the
// closed buckets of an obs::WindowedAggregator -- the lb::HealthProbe
// gauges plus per-bucket net.* send counts, one row each per W time
// units -- are written as a time series, and the crash burst drops an
// `event.crash` marker into it at its exact time.  Feed the file to
// tools/p2plb_report to measure how long the system takes to
// re-converge.
//
// With `--alerts rules.conf` (and optional `--windows W` /
// `--alerts-out FILE`) an obs::AlertEngine watches the same windows
// online: the CI alert-smoke leg runs this scenario and requires the
// imbalance rule to fire during the crash burst and resolve after
// re-convergence.
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "lb/health.h"
#include "lb/protocol_round.h"
#include "obs/alert.h"
#include "obs/format.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace {

using namespace p2plb;

struct World {
  chord::Ring ring;
  Rng rng{99};
  workload::CapacityProfile capacities =
      workload::CapacityProfile::gnutella_like();
  double utilization = 0.25;

  void reassign_loads() {
    const auto model = workload::scaled_load_model(
        ring, workload::LoadDistribution::kGaussian, utilization);
    workload::assign_loads(ring, model, rng);
  }

  void join() {
    const auto fresh = ring.add_node(capacities.sample(rng));
    for (int v = 0; v < 5; ++v)
      (void)ring.add_random_virtual_server(fresh, rng);
  }

  void leave() {
    const auto live = ring.live_nodes();
    if (live.size() <= 8) return;  // keep a core alive
    const auto leaving = live[rng.below(live.size())];
    // Graceful leave: hand servers to random survivors (a crash would
    // instead drop them onto ring successors).
    auto survivors = live;
    std::erase(survivors, leaving);
    for (const chord::Key vs :
         std::vector<chord::Key>(ring.node(leaving).servers))
      ring.transfer_virtual_server(vs,
                                   survivors[rng.below(survivors.size())]);
    ring.remove_node(leaving);
  }

  /// (heavy fraction, max load / fair share).  A node is heavy when its
  /// load exceeds (1 + epsilon) times its capacity-proportional share --
  /// the same criterion the balancer enforces.
  [[nodiscard]] std::pair<double, double> imbalance(double epsilon) const {
    const double fair = ring.total_load() / ring.total_capacity();
    std::size_t heavy = 0;
    double worst = 0.0;
    for (const chord::NodeIndex i : ring.live_nodes()) {
      const double share = fair * ring.node(i).capacity;
      const double load = ring.node_load(i);
      if (load > (1.0 + epsilon) * share) ++heavy;
      worst = std::max(worst, load / share);
    }
    return {static_cast<double>(heavy) /
                static_cast<double>(ring.live_node_count()),
            worst};
  }
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("nodes", "initial node count", "512");
  cli.add_flag("intervals", "number of balancing intervals to simulate",
               "8");
  cli.add_flag("churn-per-interval", "expected joins (and leaves) between "
                                     "balancing sweeps",
               "24");
  cli.add_flag("crash-burst",
               "nodes crashed at once under the designated round", "1");
  cli.add_flag("trace", obs::kTraceFlagHelp, "");
  cli.add_flag("metrics", obs::kMetricsFlagHelp, "");
  cli.add_flag("series",
               std::string(obs::kSeriesFlagHelp) +
                   "; implies --windows, default width 10",
               "");
  cli.add_flag("windows",
               std::string(obs::kWindowsFlagHelp) + "; 0 = off", "0");
  cli.add_flag("alerts",
               std::string(obs::kAlertsFlagHelp) + ", default width 10", "");
  cli.add_flag("alerts-out", obs::kAlertsOutFlagHelp, "");
  if (!cli.parse(argc, argv)) return 0;

  World world;
  const auto initial = static_cast<std::size_t>(cli.get_int("nodes"));
  world.ring = workload::build_ring(initial, 5, world.capacities, world.rng);
  world.reassign_loads();

  const auto intervals = static_cast<int>(cli.get_int("intervals"));
  const double churn_rate = cli.get_double("churn-per-interval");
  constexpr sim::Time kBalanceInterval = 600.0;  // "10 minutes"

  sim::Engine engine;
  // Unit latency between distinct physical nodes (endpoints are node
  // indices here -- the ring carries no topology attachments).
  sim::Network net(engine, [](sim::Endpoint a, sim::Endpoint b) {
    return a == b ? 0.0 : 1.0;
  });
  obs::Tracer tracer;
  const std::string trace_path = cli.get_string("trace");
  const std::string metrics_path = cli.get_string("metrics");
  const std::string series_path = cli.get_string("series");
  if (!trace_path.empty()) net.attach_tracer(&tracer);

  constexpr double kEpsilon = 0.1;
  lb::HealthProbe health(world.ring, {kEpsilon, "health"});
  double window_width = cli.get_double("windows");
  const std::string alerts_path = cli.get_string("alerts");
  const std::string alerts_out = cli.get_string("alerts-out");
  const bool windowing =
      window_width > 0.0 || !alerts_path.empty() || !series_path.empty();
  if (windowing && window_width <= 0.0) window_width = 10.0;
  std::optional<obs::WindowedAggregator> windows;
  std::optional<obs::AlertEngine> alerts;
  std::vector<obs::Sample> series;
  if (windowing) {
    // Online sensing: the aggregator is passive (it schedules nothing),
    // fed by the network's sends and the health probe's boundary
    // sampling; the alert engine evaluates at every bucket close, and
    // the series export appends each closed bucket.
    windows.emplace(obs::WindowConfig{window_width, 64});
    net.attach_windows(&*windows);
    health.register_windows(*windows);
    if (!alerts_path.empty()) {
      alerts.emplace(*windows, obs::load_alert_rules_file(alerts_path));
      if (!trace_path.empty()) alerts->attach_tracer(&tracer);
      alerts->attach_metrics(&net.metrics());
    }
    if (!series_path.empty()) obs::record_series(*windows, series);
  }

  Table t({"t (s)", "nodes", "heavy % pre", "max overload pre",
           "heavy % post", "max overload post", "moved load",
           "round time", "transfers"});

  // Churn process: joins and leaves as independent Poisson streams.
  auto schedule_churn = [&](auto&& self, bool is_join) -> void {
    const double mean_gap = kBalanceInterval / churn_rate;
    engine.schedule_after(world.rng.exponential(mean_gap), [&, is_join] {
      if (is_join) {
        world.join();
      } else {
        world.leave();
      }
      // Loads shift with membership: redraw for the new arc layout.
      world.reassign_loads();
      self(self, is_join);
    });
  };
  if (churn_rate > 0.0) {
    // --churn-per-interval 0 isolates the crash burst: the only
    // disturbance is the designated round's burst, so an alert's
    // fire/resolve pair brackets it exactly (the CI alert-smoke
    // scenario).
    schedule_churn(schedule_churn, true);
    schedule_churn(schedule_churn, false);
  }

  int rounds_started = 0;
  const int crash_round = intervals / 2;  // this round loses nodes mid-flight
  const auto crash_burst =
      static_cast<std::size_t>(std::max<std::int64_t>(
          cli.get_int("crash-burst"), 0));
  const lb::ProtocolRound* crashed_round = nullptr;
  // In-flight rounds: each must outlive its events, so they live here.
  std::vector<std::unique_ptr<lb::ProtocolRound>> rounds;
  engine.every(kBalanceInterval, [&] {
    const auto [pre_heavy, pre_worst] = world.imbalance(kEpsilon);
    const double start = engine.now();
    lb::ProtocolRoundConfig config;
    config.balancer.epsilon = kEpsilon;
    rounds.push_back(std::make_unique<lb::ProtocolRound>(
        net, world.ring, config, world.rng));
    lb::ProtocolRound& round = *rounds.back();
    round.start([&, pre_heavy, pre_worst,
                 start](const lb::BalanceReport& report) {
      const auto [post_heavy, post_worst] = world.imbalance(kEpsilon);
      t.add_row({Table::num(start, 0),
                 std::to_string(world.ring.live_node_count()),
                 Table::num(100.0 * pre_heavy, 1), Table::num(pre_worst, 2),
                 Table::num(100.0 * post_heavy, 1),
                 Table::num(post_worst, 2),
                 Table::num(report.vsa.assigned_load(), 0),
                 Table::num(report.completion_time, 1),
                 std::to_string(report.transfers_applied)});
    });
    if (++rounds_started == crash_round) {
      // Crash a burst of nodes one latency unit into the round: their
      // LBI triples and VSA records are already counted, and any
      // transfer from or to them is skipped at delivery rather than
      // deadlocking the round.  Loads are redrawn for the shrunken arc
      // layout, so the burst shows up as a heavy-fraction spike the
      // later rounds have to work back down.
      engine.schedule_after(1.0, [&] {
        std::size_t crashed = 0;
        for (std::size_t c = 0; c < crash_burst; ++c) {
          const auto live = world.ring.live_nodes();
          if (live.size() <= 8) break;  // keep a core alive
          world.ring.remove_node(live[world.rng.below(live.size())]);
          ++crashed;
        }
        world.reassign_loads();
        if (!series_path.empty()) {
          // Mark the disturbance at its exact time, after every bucket
          // that ended by now, so the series stays in time order.
          windows->advance_to(engine.now());
          series.push_back({engine.now(), "event.crash",
                            static_cast<double>(crashed)});
        }
      });
      crashed_round = &round;
    }
    return rounds_started < intervals;
  });

  // A series needs every boundary closed, but the stretches between
  // rounds carry no traffic: tick the windows once per bucket while
  // anything else is pending (the tick parks at an engine drain).
  if (!series_path.empty()) sim::tick_windows(engine, *windows);
  // The churn processes reschedule themselves forever; run to a horizon
  // just past the last balancing sweep instead of draining the queue.
  engine.run_until(kBalanceInterval * (intervals + 0.5));
  // Close every bucket the horizon passed, so trailing resolves land.
  if (windows) windows->advance_to(engine.now());
  std::cout << "churn simulation: " << intervals << " balancing intervals, "
            << engine.events_executed() << " events, final membership "
            << world.ring.live_node_count() << " nodes, "
            << net.totals().messages << " protocol messages\n\n";
  t.print_text(std::cout);
  std::cout << "\n(rounds take simulated time now: the post column is "
               "measured at round completion, so churn landing *during* "
               "a round already shows up in it)\n";
  if (crashed_round != nullptr && crashed_round->done()) {
    const lb::BalanceReport& r = crashed_round->report();
    std::cout << "\ncrash-during-round " << crash_round << ": "
              << r.vsa.assignments.size() << " transfers planned, "
              << r.transfers_applied
              << " applied (those touching the crashed node were skipped "
                 "at delivery; the round still completed in "
              << Table::num(r.completion_time, 1) << " time units)\n";
  }
  if (!trace_path.empty()) {
    obs::write_trace_file(tracer, trace_path);
    std::cerr << "trace written to " << trace_path << " ("
              << tracer.event_count() << " events)\n";
  }
  if (!metrics_path.empty()) {
    net.export_metrics(net.metrics());
    obs::write_metrics_file(net.metrics(), metrics_path);
    std::cerr << "metrics written to " << metrics_path << "\n";
  }
  if (!series_path.empty()) {
    obs::write_series_file(series, series_path);
    std::cerr << "series written to " << series_path << " (" << series.size()
              << " samples)\n";
  }
  if (alerts) {
    std::cout << "\nalert transitions (" << alerts->events().size()
              << "):\n";
    for (const obs::AlertEvent& e : alerts->events())
      std::cout << "  t=" << Table::num(e.t, 1) << "  " << e.rule << "  "
                << (e.fire ? "fire" : "resolve")
                << "  value=" << Table::num(e.value, 3) << "\n";
    if (!alerts_out.empty()) {
      obs::write_alerts_file(*alerts, alerts_out);
      std::cerr << "alerts written to " << alerts_out << "\n";
    }
  }
  return 0;
}
