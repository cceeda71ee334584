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
//     message/byte/timing breakdown and end-to-end completion time.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <string_view>

#include "bench_util.h"
#include "ktree/protocol.h"
#include "ktree/tree.h"
#include "lb/protocol_round.h"
#include "obs/binary_trace.h"
#include "obs/format.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace {

using namespace p2plb;

/// One end-to-end timed round's measurements (simulated and wall-clock).
struct TimedRoundResult {
  std::size_t nodes = 0;
  std::string engine;
  /// Observability config of this row: "none" (plain timed round),
  /// "null" (no tracer, the overhead baseline), "binary"
  /// (p2plb-btrace-1 streaming sink), "jsonl" (JSONL streaming sink),
  /// "profile" (host-time profiler attached, no tracer -- report-only in
  /// the delta gate) or "windows" (WindowedAggregator fed from the send
  /// path, no tracer).
  std::string sink = "none";
  /// Wall time of the up-front Dijkstra row fill (outside wall_seconds).
  double oracle_fill_seconds = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t events = 0;
  double events_per_sec = 0.0;
  std::uint64_t messages = 0;
  double completion_time = 0.0;
  std::size_t transfers_applied = 0;
  std::uint64_t trace_bytes = 0;  ///< on-disk trace size (sink rows)
};

/// Build the deployment and run one event-driven balancing round over
/// ts5k-small latencies, timing the wall clock around the event loop.
/// The oracle's rows for every attachment are filled (and timed) first,
/// so no Dijkstra runs inside the timed loop.
/// `obs_sink` != "none" attaches a local tracer streaming to a
/// temporary file (removed afterwards) so the row measures tracing
/// overhead; "null" runs tracer-free as the overhead baseline and
/// "profile" attaches a local host-time profiler instead of a tracer.
/// A non-null `profiler` is attached to the engine and network so the
/// caller can export the round's profile.
TimedRoundResult run_timed_round(std::size_t nodes, std::size_t servers,
                                 std::uint64_t seed, sim::QueueKind kind,
                                 obs::Tracer* tracer,
                                 const std::string& metrics_path,
                                 lb::BalanceReport* report_out,
                                 double* mean_latency_out,
                                 const std::string& obs_sink = "none",
                                 obs::Profiler* profiler = nullptr) {
  TimedRoundResult r;
  r.nodes = nodes;
  r.engine = kind == sim::QueueKind::kTimerWheel ? "wheel" : "heap";
  r.sink = obs_sink;
  bench::ExperimentParams params;
  params.nodes = nodes;
  params.servers_per_node = servers;
  params.seed = seed;
  Rng round_rng(seed + 17);
  bench::Deployment d = bench::build_deployment(
      params, topo::TransitStubParams::ts5k_small(), "ts5k-small", round_rng);
  // Every send's source is a node attachment: fill those rows up front
  // so the event loop only reads them.  A vertex-count capacity keeps the
  // oracle in dense mode (no eviction, no per-query hashing).
  const topo::Graph& graph = d.topology.graph;
  topo::DistanceOracle oracle(graph, graph.vertex_count());
  std::vector<std::pair<topo::Vertex, topo::Vertex>> sources;
  for (chord::NodeIndex i = 0; i < d.ring.node_count(); ++i) {
    const sim::Endpoint a = lb::node_endpoint(d.ring, i);
    sources.emplace_back(a, a);
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  const auto fill0 = std::chrono::steady_clock::now();
  (void)oracle.distances(sources);
  r.oracle_fill_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - fill0)
                              .count();
  sim::Engine engine(kind);
  sim::Network net(engine, oracle.latency());
  if (tracer != nullptr) net.attach_tracer(tracer);
  obs::Tracer obs_tracer;
  std::optional<obs::BinaryTraceSink> binary_sink;
  std::optional<obs::JsonlTraceSink> jsonl_sink;
  std::string obs_tmp;
  if (obs_sink == "binary") {
    obs_tmp = "obs_overhead_tmp.btrace";
    obs_tracer.set_sink(&binary_sink.emplace(obs_tmp));
    net.attach_tracer(&obs_tracer);
  } else if (obs_sink == "jsonl") {
    obs_tmp = "obs_overhead_tmp.jsonl";
    obs_tracer.set_sink(&jsonl_sink.emplace(obs_tmp));
    net.attach_tracer(&obs_tracer);
  }
  std::optional<obs::Profiler> own_profiler;
  if (obs_sink == "profile") profiler = &own_profiler.emplace();
  std::optional<obs::WindowedAggregator> windows;
  if (obs_sink == "windows") {
    // The online metrics plane on the hot path: every send records into
    // two counter series.  Bucket width 5 closes ~10 buckets per round.
    windows.emplace(obs::WindowConfig{5.0, 64});
    net.attach_windows(&*windows);
  }
  if (profiler != nullptr) {
    engine.attach_profiler(profiler);
    net.attach_profiler(profiler);
  }
  lb::ProtocolRound round(net, d.ring, {}, round_rng);
  const auto t0 = std::chrono::steady_clock::now();
  round.start();
  engine.run();
  if (obs_tracer.sink() != nullptr) obs_tracer.sink()->flush();
  const auto t1 = std::chrono::steady_clock::now();
  if (!obs_tmp.empty()) {
    std::ifstream sz(obs_tmp, std::ios::binary | std::ios::ate);
    if (sz.good()) r.trace_bytes = static_cast<std::uint64_t>(sz.tellg());
    sz.close();
    std::remove(obs_tmp.c_str());
  }
  const lb::BalanceReport& report = round.report();
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.events = engine.events_executed();
  r.events_per_sec =
      r.wall_seconds > 0.0 ? static_cast<double>(r.events) / r.wall_seconds
                           : 0.0;
  r.messages = net.totals().messages;
  r.completion_time = report.completion_time;
  r.transfers_applied = report.transfers_applied;
  if (!metrics_path.empty()) {
    net.export_metrics(net.metrics());
    obs::write_metrics_file(net.metrics(), metrics_path);
    std::cerr << "metrics written to " << metrics_path << "\n";
  }
  if (report_out != nullptr) *report_out = report;
  if (mean_latency_out != nullptr)
    *mean_latency_out = net.totals().mean_latency();
  return r;
}

/// Write the timed-round results as the machine-readable bench JSON the
/// delta gate (tools/bench_delta.py) consumes.
void write_bench_json(const std::string& path,
                      const std::vector<TimedRoundResult>& rounds) {
  std::ofstream out(path);
  P2PLB_REQUIRE_MSG(out.good(), "cannot open bench JSON output file");
  out << "{\n  \"schema\": \"p2plb-bench-1\",\n  \"timed_rounds\": [\n";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const TimedRoundResult& r = rounds[i];
    out << "    {\"nodes\": " << r.nodes << ", \"engine\": \"" << r.engine
        << "\", \"sink\": \"" << r.sink
        << "\", \"oracle_fill_seconds\": " << r.oracle_fill_seconds
        << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"events\": " << r.events
        << ", \"events_per_sec\": " << r.events_per_sec
        << ", \"messages\": " << r.messages
        << ", \"completion_time\": " << r.completion_time
        << ", \"transfers_applied\": " << r.transfers_applied
        << ", \"trace_bytes\": " << r.trace_bytes << "}"
        << (i + 1 < rounds.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cerr << "bench JSON written to " << path << "\n";
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

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("sizes", "comma-separated node counts", "128,512,2048");
  cli.add_flag("degrees", "comma-separated K values", "2,8");
  cli.add_flag("servers", "virtual servers per node", "5");
  cli.add_flag("seed", "root RNG seed", "1");
  cli.add_flag("crash-fraction", "fraction of nodes to crash", "0.1");
  cli.add_flag("timed-nodes",
               "ring size for the end-to-end timed balancing round", "512");
  cli.add_flag("timed-sizes",
               "comma-separated ring sizes for timed rounds (overrides "
               "--timed-nodes)",
               "");
  cli.add_flag("obs-sizes",
               "comma-separated ring sizes for the observability-overhead "
               "sweep (one timed round per sink: null tracer, binary, "
               "jsonl, host-time profiler, windowed aggregator); given "
               "alone it replaces the default timed round",
               "");
  cli.add_flag("engine", "event queue for timed rounds: wheel or heap",
               "wheel");
  cli.add_flag("bench-json",
               "write timed-round measurements to this JSON file", "");
  cli.add_flag("trace", p2plb::obs::kTraceFlagHelp, "");
  cli.add_flag("metrics", p2plb::obs::kMetricsFlagHelp, "");
  cli.add_flag("profile",
               std::string(p2plb::obs::kProfileFlagHelp) +
                   "; captures the first timed round",
               "");
  cli.add_flag("csv", "emit CSV instead of aligned tables", "false");
  if (!cli.parse(argc, argv)) return 0;
  const bool csv = cli.get_bool("csv");
  const auto servers = static_cast<std::size_t>(cli.get_int("servers"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double crash_fraction = cli.get_double("crash-fraction");

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
      sim::Engine up_engine, down_engine;
      const auto up = ktree::simulate_aggregation(
          up_engine, tree, ktree::unit_latency(ring));
      const auto down = ktree::simulate_dissemination(
          down_engine, tree, ktree::unit_latency(ring));

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
  // how fast the engine chews through it (wall clock, events/sec).
  const std::string engine_name = cli.get_string("engine");
  P2PLB_REQUIRE_MSG(engine_name == "wheel" || engine_name == "heap",
                    "--engine must be wheel or heap");
  const sim::QueueKind kind = engine_name == "wheel"
                                  ? sim::QueueKind::kTimerWheel
                                  : sim::QueueKind::kBinaryHeap;
  std::vector<std::size_t> timed_sizes;
  for (const auto n : cli.get_int_list("timed-sizes"))
    timed_sizes.push_back(static_cast<std::size_t>(n));
  std::vector<std::size_t> obs_sizes;
  for (const auto n : cli.get_int_list("obs-sizes"))
    obs_sizes.push_back(static_cast<std::size_t>(n));
  if (timed_sizes.empty() && obs_sizes.empty())
    timed_sizes.push_back(static_cast<std::size_t>(cli.get_int("timed-nodes")));

  obs::Tracer tracer;
  const std::string trace_path = cli.get_string("trace");
  const std::string metrics_path = cli.get_string("metrics");
  const std::string profile_path = cli.get_string("profile");
  std::optional<obs::Profiler> profiler;
  if (!profile_path.empty()) profiler.emplace();
  std::vector<TimedRoundResult> results;
  for (std::size_t i = 0; i < timed_sizes.size(); ++i) {
    // Trace, metrics and profile capture the first size only; the rest
    // are timing sweeps.
    const bool capture = i == 0;
    lb::BalanceReport report;
    double mean_latency = 0.0;
    results.push_back(run_timed_round(
        timed_sizes[i], servers, seed, kind,
        capture && !trace_path.empty() ? &tracer : nullptr,
        capture ? metrics_path : std::string(), &report, &mean_latency,
        "none", capture && profiler ? &*profiler : nullptr));
    const TimedRoundResult& r = results.back();
    if (capture && profiler) {
      // Sim-time axis for the crosstab: phase windows named after the
      // network tags so they join the matching frames.
      constexpr std::array<std::string_view, lb::kPhaseCount> kPhaseTags = {
          lb::kTagAggregation, lb::kTagDissemination, lb::kTagVsa,
          lb::kTagTransfer};
      double round_end = report.phases[0].start;
      for (std::size_t p = 0; p < lb::kPhaseCount; ++p) {
        const lb::PhaseMetrics& m = report.phases[p];
        profiler->note_span(kPhaseTags[p], m.start, m.end);
        round_end = std::max(round_end, m.end);
      }
      profiler->note_span("round", report.phases[0].start, round_end);
    }

    print_heading(std::cout,
                  "one event-driven balancing round, ts5k-small, N = " +
                      std::to_string(r.nodes) + " (" + r.engine +
                      " engine)");
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
    std::cout << "\nround completion time: "
              << Table::num(report.completion_time, 1)
              << " latency units  (heavy " << report.before.heavy_count
              << " -> " << report.after.heavy_count << ", "
              << report.transfers_applied << " transfers, mean hop latency "
              << Table::num(mean_latency, 2) << ")\n"
              << "wall clock: " << Table::num(r.wall_seconds, 3) << " s for "
              << r.events << " events ("
              << Table::num(r.events_per_sec / 1e6, 2) << " M events/s)\n"
              << "(phase 4 starts before phase 3 ends: transfers overlap "
                 "the sweep)\n";
  }
  if (!trace_path.empty()) {
    obs::write_trace_file(tracer, trace_path);
    std::cerr << "trace written to " << trace_path << " ("
              << tracer.event_count() << " events)\n";
  }
  if (profiler) {
    profiler->write_profile_file(profile_path);
    std::cerr << "host-time profile written to " << profile_path << "\n";
  }

  // --- observability overhead -------------------------------------------
  // The same timed round, five ways: no tracer at all (the baseline),
  // the streaming binary sink, the streaming JSONL sink, the host-time
  // profiler, the windowed-metrics aggregator.  The wall-clock deltas
  // are the cost of each instrument; the byte columns show the on-disk
  // ratio between the trace formats.
  if (!obs_sizes.empty()) {
    print_heading(std::cout,
                  "observability overhead (one timed round per sink, " +
                      engine_name + " engine)");
    Table ot({"N", "sink", "wall s", "events", "M events/s", "trace MB",
              "overhead %"});
    for (const std::size_t n : obs_sizes) {
      double base_wall = 0.0;
      for (const std::string sink :
           {"null", "binary", "jsonl", "profile", "windows"}) {
        results.push_back(run_timed_round(n, servers, seed, kind, nullptr,
                                          "", nullptr, nullptr, sink));
        const TimedRoundResult& r = results.back();
        if (sink == "null") base_wall = r.wall_seconds;
        const double overhead =
            base_wall > 0.0
                ? 100.0 * (r.wall_seconds - base_wall) / base_wall
                : 0.0;
        ot.add_row({std::to_string(n), sink, Table::num(r.wall_seconds, 3),
                    std::to_string(r.events),
                    Table::num(r.events_per_sec / 1e6, 2),
                    Table::num(static_cast<double>(r.trace_bytes) / 1e6, 2),
                    sink == "null" ? std::string("-")
                                   : Table::num(overhead, 1)});
      }
    }
    bench::emit(ot, csv);
  }

  const std::string bench_json = cli.get_string("bench-json");
  if (!bench_json.empty()) write_bench_json(bench_json, results);
  return 0;
}
