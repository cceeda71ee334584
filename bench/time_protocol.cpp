// Protocol-level timing (Sections 3.1-3.2 claims, measured in simulated
// time rather than round counts):
//
//   * LBI aggregation and dissemination completion time over the K-nary
//     tree with unit remote-message latency (parent-child edges between
//     KT nodes on the same physical node are free) -- the paper's
//     "bound in O(log_K N) time";
//   * soft-state self-repair: time for the maintenance protocol to
//     reconverge after crashing 10% of the nodes, in units of the
//     periodic check interval -- the paper's "completely reconstructed
//     in O(log_K N) time in a top-down fashion";
//   * one full event-driven balancing round (lb::ProtocolRound) on a
//     transit-stub topology with shortest-path latencies: per-phase
//     message/byte/timing breakdown and end-to-end completion time
//     (Section 3.5: phase 4 overlaps phase 3).
//
// Each timed row also prints its host time split four ways: deployment
// build, oracle fill (with the bytes its rows hold), ProtocolRound
// constructor and event loop.  These
// figures are report-only (a million-node row is run by hand with
// --timed-sizes 1048576); the repository's perf record is
// bench_e2e/run.py.  The exact counts of the 1024- and 4096-node rows
// are pinned by ctest (bench/CMakeLists.txt).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "ktree/protocol.h"
#include "ktree/tree.h"
#include "lb/protocol_round.h"
#include "obs/binary_trace.h"
#include "obs/format.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace {

using namespace p2plb;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One end-to-end timed round: its report plus where the host time went.
struct TimedRoundResult {
  lb::BalanceReport report;
  double mean_latency = 0.0;
  std::uint64_t events = 0;
  double deployment_seconds = 0.0;   ///< topology + loaded ring
  double oracle_fill_seconds = 0.0;  ///< up-front Dijkstra rows
  std::size_t oracle_row_bytes = 0;  ///< memory those rows hold
  double constructor_seconds = 0.0;  ///< lb::ProtocolRound constructor
  double loop_seconds = 0.0;         ///< round.start() + engine.run()
};

/// Build the deployment and run one event-driven balancing round over
/// ts5k-small latencies, timing each stage on the host clock.  The
/// oracle's rows for every attachment are filled (and timed) before the
/// round, so no Dijkstra runs inside the event loop.  A non-null
/// `tracer`/`profiler` is attached to the network (which hands the
/// profiler to the engine) so the caller can export the round's trace or
/// profile; the round notes its own phase spans into the profiler.
TimedRoundResult run_timed_round(std::size_t nodes, std::size_t servers,
                                 std::uint64_t seed, obs::Tracer* tracer,
                                 obs::Profiler* profiler,
                                 const std::string& metrics_path) {
  TimedRoundResult r;
  bench::ExperimentParams params;
  params.nodes = nodes;
  params.servers_per_node = servers;
  params.seed = seed;
  Rng round_rng(seed + 17);
  const auto deploy0 = Clock::now();
  bench::Deployment d = bench::build_deployment(
      params, topo::TransitStubParams::ts5k_small(), "ts5k-small", round_rng);
  r.deployment_seconds = seconds_since(deploy0);
  // Every send's source is a node attachment: fill those rows up front
  // so the event loop only reads them.
  const topo::Graph& graph = d.topology.graph;
  topo::DistanceOracle oracle(graph);
  std::vector<std::pair<topo::Vertex, topo::Vertex>> sources;
  for (chord::NodeIndex i = 0; i < d.ring.node_count(); ++i) {
    const sim::Endpoint a = lb::node_endpoint(d.ring, i);
    sources.emplace_back(a, a);
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  const auto fill0 = Clock::now();
  (void)oracle.distances(sources);
  r.oracle_fill_seconds = seconds_since(fill0);
  r.oracle_row_bytes = oracle.row_bytes();
  sim::Engine engine;
  sim::Network net(engine, oracle.latency());
  if (tracer != nullptr) net.attach_tracer(tracer);
  if (profiler != nullptr) net.attach_profiler(profiler);
  const auto ctor0 = Clock::now();
  lb::ProtocolRound round(net, d.ring, {}, round_rng);
  r.constructor_seconds = seconds_since(ctor0);
  const auto loop0 = Clock::now();
  round.start();
  engine.run();
  r.loop_seconds = seconds_since(loop0);
  r.report = round.report();
  r.mean_latency = net.totals().mean_latency();
  r.events = engine.events_executed();
  if (!metrics_path.empty()) {
    net.export_metrics(net.metrics());
    obs::write_metrics_file(net.metrics(), metrics_path);
    std::cerr << "metrics written to " << metrics_path << "\n";
  }
  return r;
}

/// Aggregation and dissemination over `tree` on a unit-latency network:
/// one unit per remote hop, and a hop between KT nodes hosted on the same
/// physical node is free.
std::pair<ktree::SweepResult, ktree::SweepResult> run_sweeps(
    const ktree::KTree& tree) {
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint a, sim::Endpoint b) {
    return a == b ? 0.0 : 1.0;
  });
  const std::vector<sim::Endpoint> host = lb::host_endpoints(tree);
  ktree::SweepResult up;
  ktree::SweepResult down;
  const auto release = ktree::begin_aggregation(
      net, tree, host, {}, [&](const ktree::SweepResult& r) { up = r; });
  for (ktree::KtIndex i = 0; i < tree.size(); ++i)
    if (tree.node(i).is_leaf()) release(i);
  engine.run();
  ktree::begin_dissemination(net, tree, host, {}, nullptr,
                             [&](const ktree::SweepResult& r) { down = r; });
  engine.run();
  return {up, down};
}

/// Binary-search the reconvergence instant to one check period.
sim::Time measure_recovery(sim::Engine& engine,
                           ktree::MaintenanceProtocol& protocol,
                           sim::Time interval, sim::Time budget) {
  const sim::Time start = engine.now();
  while (engine.now() - start < budget) {
    engine.run_until(engine.now() + interval);
    if (protocol.converged()) return engine.now() - start;
  }
  return -1.0;  // did not converge within budget (reported as such)
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli;
  cli.add_flag("sizes", "comma-separated node counts", "128,512,2048");
  cli.add_flag("degrees", "comma-separated K values", "2,8");
  cli.add_flag("servers", "virtual servers per node", "5");
  cli.add_flag("seed", "root RNG seed", "1");
  cli.add_flag("crash-fraction", "fraction of nodes to crash", "0.1");
  cli.add_flag("timed-sizes",
               "comma-separated ring sizes for the end-to-end timed "
               "balancing rounds",
               "512");
  cli.add_flag("trace", p2plb::obs::kTraceFlagHelp, "");
  cli.add_flag("metrics", p2plb::obs::kMetricsFlagHelp, "");
  cli.add_flag("profile",
               std::string(p2plb::obs::kProfileFlagHelp) +
                   "; captures the first timed round",
               "");
  cli.add_flag("csv", "emit CSV instead of aligned tables", "false");
  if (!cli.parse(argc, argv)) return 0;
  const bool csv = cli.get_bool("csv");
  const auto servers = static_cast<std::size_t>(cli.get_count("servers"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double crash_fraction = cli.get_double("crash-fraction");
  // Open the trace file before the sweeps, so a bad name fails fast.
  const std::string trace_path = cli.get_string("trace");
  std::unique_ptr<obs::TraceSink> trace_sink;
  if (!trace_path.empty()) trace_sink = obs::open_trace_sink(trace_path);

  print_heading(std::cout,
                "simulated sweep latency and self-repair time vs N");
  Table t({"N", "K", "aggregate time", "disseminate time", "remote msgs",
           "local hops", "repair time (intervals)", "repair msgs"});
  for (const auto n : cli.get_int_list("sizes")) {
    for (const auto k : cli.get_int_list("degrees")) {
      const auto degree = static_cast<std::uint32_t>(k);
      // --- sweep latency over the converged tree -----------------------
      Rng rng(seed);
      chord::Ring ring;
      for (std::int64_t i = 0; i < n; ++i) {
        const auto node = ring.add_node(1.0);
        for (std::size_t v = 0; v < servers; ++v)
          (void)ring.add_random_virtual_server(node, rng);
      }
      const ktree::KTree tree(ring, degree);
      const auto [up, down] = run_sweeps(tree);

      // --- self-repair after a correlated crash ------------------------
      sim::Engine engine;
      constexpr sim::Time kInterval = 1.0;
      ktree::MaintenanceProtocol protocol(engine, ring, degree, kInterval,
                                          ktree::unit_latency(ring));
      protocol.start();
      engine.run_until(4.0 * tree.height() + 20.0);
      const std::uint64_t messages_before_crash = protocol.messages();
      Rng crash_rng(seed + 2);
      const auto crash_count = static_cast<std::size_t>(
          crash_fraction * static_cast<double>(n));
      for (std::size_t c = 0; c < crash_count; ++c) {
        const auto live = ring.live_nodes();
        protocol.crash_node(live[crash_rng.below(live.size())]);
      }
      const sim::Time repair = measure_recovery(
          engine, protocol, kInterval, 6.0 * tree.height() + 60.0);

      t.add_row({std::to_string(n), std::to_string(k),
                 Table::num(up.completion_time, 1),
                 Table::num(down.completion_time, 1),
                 std::to_string(up.messages),
                 std::to_string(up.local_hops),
                 repair < 0 ? std::string("timeout") : Table::num(repair, 0),
                 std::to_string(protocol.messages() -
                                messages_before_crash)});
    }
  }
  bench::emit(t, csv);
  std::cout << "\n(All time columns must grow logarithmically with N and "
               "shrink as K grows.)\n";

  // --- end-to-end balancing rounds on a physical topology --------------
  // The whole four-phase protocol as events over ts5k-small shortest-path
  // latencies: where the simulated time of one round actually goes, and
  // where the host time of building and running it goes.
  obs::Tracer tracer;
  if (trace_sink) tracer.set_sink(trace_sink.get());
  const std::string metrics_path = cli.get_string("metrics");
  const std::string profile_path = cli.get_string("profile");
  std::optional<obs::Profiler> profiler;
  if (!profile_path.empty()) profiler.emplace();
  bool capture = true;  // trace, metrics and profile take the first size
  for (const auto n : cli.get_int_list("timed-sizes")) {
    const TimedRoundResult r = run_timed_round(
        static_cast<std::size_t>(n), servers, seed,
        capture && !trace_path.empty() ? &tracer : nullptr,
        capture && profiler ? &*profiler : nullptr,
        capture ? metrics_path : std::string());
    const lb::BalanceReport& report = r.report;
    capture = false;

    print_heading(std::cout,
                  "one event-driven balancing round, ts5k-small, N = " +
                      std::to_string(n) + " (wheel engine)");
    Table phases({"phase", "messages", "bytes", "start", "end", "duration"});
    for (std::size_t p = 0; p < lb::kPhaseCount; ++p) {
      const lb::PhaseMetrics& m = report.phases[p];
      phases.add_row({std::to_string(p + 1) + " " +
                          lb::phase_name(static_cast<lb::Phase>(p)),
                      m.messages, Table::num(m.bytes, 0),
                      Table::num(m.start, 1), Table::num(m.end, 1),
                      Table::num(m.duration(), 1)});
    }
    bench::emit(phases, csv);
    const double events_per_sec =
        r.loop_seconds > 0.0
            ? static_cast<double>(r.events) / r.loop_seconds
            : 0.0;
    const double row_mb =
        static_cast<double>(r.oracle_row_bytes) / (1024.0 * 1024.0);
    std::cout << "\nround completion time: "
              << Table::num(report.completion_time, 1)
              << " latency units  (heavy " << report.before.heavy_count
              << " -> " << report.after.heavy_count << ", "
              << report.transfers_applied << " transfers, mean hop latency "
              << Table::num(r.mean_latency, 2) << ")\n"
              << "wall clock: " << Table::num(r.loop_seconds, 3) << " s for "
              << r.events << " events ("
              << Table::num(events_per_sec / 1e6, 2) << " M events/s)\n"
              << "host time: deployment build "
              << Table::num(r.deployment_seconds, 3) << " s, oracle fill "
              << Table::num(r.oracle_fill_seconds, 3) << " s ("
              << Table::num(row_mb, 1)
              << " MB of rows), ProtocolRound constructor "
              << Table::num(r.constructor_seconds, 3) << " s, event loop "
              << Table::num(r.loop_seconds, 3) << " s\n"
              << "(phase 4 starts before phase 3 ends: transfers overlap "
                 "the sweep)\n";
  }
  if (trace_sink) {
    trace_sink->flush();
    std::cerr << "trace written to " << trace_path << " ("
              << tracer.event_count() << " events)\n";
  }
  if (profiler) {
    profiler->write_profile_file(profile_path);
    std::cerr << "host-time profile written to " << profile_path << "\n";
  }
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
