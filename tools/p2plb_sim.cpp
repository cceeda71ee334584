// p2plb_sim -- the all-in-one experiment driver.
//
// Composes every knob of the library behind one command line: topology
// (none / ts5k-large / ts5k-small), workload (gaussian / pareto /
// zipf-objects), balancing mode (ignorant / aware), the epsilon /
// threshold / degree knobs, and multi-round control.  Prints the phase
// breakdown, balance outcome, and (with a topology) the transfer-cost
// profile.  `--csv` makes every table machine-readable.
//
// With `--timed`, rounds run as event-driven protocols (lb::ProtocolRound)
// over simulated message latencies -- shortest-path distances when a
// topology is given, unit latency otherwise -- and the round table gains
// a completion-time column plus a per-phase timing breakdown.
//
// `--trace FILE` / `--metrics FILE` (they imply `--timed`) export the
// run's structured trace (JSONL when FILE ends in .jsonl, compact binary
// p2plb-btrace-1 when it ends in .btrace; case-insensitive) and the
// unified metrics registry (CSV).  The trace streams to disk as the run
// goes; `p2plb_trace --out FILE.json` converts it to Chrome trace_event
// JSON for Perfetto.  `--trace-sample K/M` keeps a deterministic
// hash-selected subset of traces.
// `--flight-recorder FILE` dumps the engine's recent-event ring and
// queue introspection at exit and on anomalies (see also `--stall-ms`).
//
//   $ p2plb_sim --topology ts5k-large --workload gaussian --mode aware
//   $ p2plb_sim --nodes 1024 --workload zipf --zipf 1.1 --rounds 4
//   $ p2plb_sim --topology ts5k-small --timed
// `--windows W` attaches the online metrics plane (obs::WindowedAggregator,
// W-wide buckets over sim time) fed from the network and health hooks;
// `--alerts rules.conf` (implies `--windows`) evaluates declarative alert
// rules at every window boundary, prints the fired/resolved transitions,
// and exports them with `--alerts-out alerts.csv` (p2plb-alerts-1).
// `--series FILE` (implies `--windows`, default width 10) exports the
// closed window buckets -- the lb::HealthProbe gauges and the per-bucket
// `net.*` send counts -- as a time series for tools/p2plb_report.  It
// schedules nothing: the trace stays byte-identical.
//
//   $ p2plb_sim --timed --trace trace.jsonl --metrics metrics.csv
//   $ p2plb_sim --windows 5 --series series.csv
//   $ p2plb_sim --alerts examples/alerts.conf --alerts-out alerts.csv
#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>

#include "bench_util.h"
#include "common/stats.h"
#include "lb/controller.h"
#include "obs/alert.h"
#include "obs/window.h"
#include "lb/health.h"
#include "lb/protocol_round.h"
#include "lb/proximity.h"
#include "lb/vst.h"
#include "obs/binary_trace.h"
#include "obs/format.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "workload/objects.h"

namespace {

using namespace p2plb;

/// Parse --trace-sample "K/M" (e.g. "1/64") with 1 <= K <= M.  Returns
/// false on anything else.
bool parse_sample_ratio(std::string_view s, std::uint64_t* keep,
                        std::uint64_t* of) {
  const std::size_t slash = s.find('/');
  if (slash == std::string_view::npos) return false;
  return parse_decimal(s.substr(0, slash), keep) &&
         parse_decimal(s.substr(slash + 1), of) && *keep >= 1 &&
         *keep <= *of;
}

int run(const Cli& cli) {
  const bool csv = cli.get_bool("csv");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  const std::uint64_t nodes = cli.get_count("nodes");
  const std::uint64_t servers = cli.get_count("servers");
  const std::uint64_t objects = cli.get_count("objects");
  const std::uint64_t max_rounds = cli.get_count("rounds", kMax32);
  const std::uint64_t degree = cli.get_count("degree", kMax32);
  const std::uint64_t threshold = cli.get_count("threshold");
  const std::uint64_t landmarks = cli.get_count("landmarks");
  const std::uint64_t bits = cli.get_count("bits", kMax32);
  const std::string topology_name = cli.get_string("topology");
  const std::string workload_name = cli.get_string("workload");
  const std::string mode = cli.get_string("mode");

  // --- topology + ring ---------------------------------------------------
  Rng rng(seed);
  std::optional<topo::TransitStubTopology> topology;
  std::vector<std::uint32_t> attachments;
  if (topology_name != "none") {
    topo::TransitStubParams tparams;
    if (topology_name == "ts5k-large") {
      tparams = topo::TransitStubParams::ts5k_large();
    } else if (topology_name == "ts5k-small") {
      tparams = topo::TransitStubParams::ts5k_small();
    } else {
      std::cerr << "unknown --topology (none|ts5k-large|ts5k-small)\n";
      return 1;
    }
    topology = topo::generate_transit_stub(tparams, rng, topology_name);
    const auto stubs = topology->stub_vertices();
    attachments.resize(nodes);
    const auto picks =
        rng.sample_indices(stubs.size(), std::min(nodes, stubs.size()));
    for (std::size_t i = 0; i < nodes; ++i)
      attachments[i] = stubs[picks[i % picks.size()]];
  }
  auto ring = workload::build_ring(
      nodes, servers, workload::CapacityProfile::gnutella_like(), rng,
      attachments);

  // --- workload ------------------------------------------------------------
  const double utilization = cli.get_double("utilization");
  if (workload_name == "gaussian" || workload_name == "pareto") {
    const auto dist = workload_name == "gaussian"
                          ? workload::LoadDistribution::kGaussian
                          : workload::LoadDistribution::kPareto;
    workload::assign_loads(
        ring, workload::scaled_load_model(ring, dist, utilization), rng);
  } else if (workload_name == "zipf") {
    workload::ObjectWorkloadParams oparams;
    oparams.object_count = objects;
    oparams.zipf_exponent = cli.get_double("zipf");
    oparams.total_load = utilization * ring.total_capacity();
    workload::assign_object_loads(ring,
                                  workload::generate_objects(oparams, rng));
  } else {
    std::cerr << "unknown --workload (gaussian|pareto|zipf)\n";
    return 1;
  }

  // --- proximity keys --------------------------------------------------------
  std::vector<chord::Key> keys;
  lb::ControllerConfig config;
  config.max_rounds = static_cast<std::uint32_t>(max_rounds);
  config.balancer.epsilon = cli.get_double("epsilon");
  config.balancer.tree_degree = static_cast<std::uint32_t>(degree);
  config.balancer.rendezvous_threshold = threshold;
  if (mode == "aware") {
    if (!topology) {
      std::cerr << "--mode aware requires a --topology\n";
      return 1;
    }
    lb::ProximityConfig pconfig;
    pconfig.landmark_count = landmarks;
    pconfig.bits_per_dimension = static_cast<std::uint32_t>(bits);
    Rng prng(seed + 1);
    keys = lb::build_proximity_map(ring, *topology, pconfig, prng)
               .node_keys;
    config.balancer.mode = lb::BalanceMode::kProximityAware;
  } else if (mode != "ignorant") {
    std::cerr << "unknown --mode (ignorant|aware)\n";
    return 1;
  }

  // --- run ---------------------------------------------------------------------
  print_heading(std::cout, "configuration");
  Table cfg({"nodes", "servers/node", "topology", "workload", "mode",
             "epsilon", "K", "threshold", "rounds"});
  cfg.add_row({std::to_string(nodes), std::to_string(servers),
               topology_name, workload_name, mode,
               Table::num(config.balancer.epsilon, 2),
               std::to_string(config.balancer.tree_degree),
               std::to_string(config.balancer.rendezvous_threshold),
               std::to_string(config.max_rounds)});
  bench::emit(cfg, csv);

  const double fair_before = ring.total_load() / ring.total_capacity();
  std::vector<double> unit_before;
  for (const chord::NodeIndex i : ring.live_nodes())
    unit_before.push_back(ring.node_load(i) /
                          (fair_before * ring.node(i).capacity));

  // Keep pre-transfer assignments for cost accounting (first round).
  Rng brng(seed + 2);
  const std::string trace_path = cli.get_string("trace");
  const std::string metrics_path = cli.get_string("metrics");
  const std::string series_path = cli.get_string("series");
  const std::string trace_sample = cli.get_string("trace-sample");
  const std::string flight_path = cli.get_string("flight-recorder");
  const std::string profile_path = cli.get_string("profile");
  const double stall_ms = cli.get_double("stall-ms");
  std::uint64_t sample_keep = 1;
  std::uint64_t sample_of = 1;
  if (!trace_sample.empty() &&
      !parse_sample_ratio(trace_sample, &sample_keep, &sample_of)) {
    std::cerr << "--trace-sample must be K/M with 1 <= K <= M (e.g. 1/64)\n";
    return 1;
  }
  // Open the trace file before any work, so a bad name fails fast.
  std::unique_ptr<obs::TraceSink> trace_sink;
  if (!trace_path.empty()) trace_sink = obs::open_trace_sink(trace_path);
  double window_width = cli.get_double("windows");
  const std::string alerts_path = cli.get_string("alerts");
  const std::string alerts_out = cli.get_string("alerts-out");
  const bool windowing =
      window_width > 0.0 || !alerts_path.empty() || !series_path.empty();
  if (windowing && window_width <= 0.0) window_width = 10.0;
  bool timed = cli.get_bool("timed");
  if (!timed && (!trace_path.empty() || !metrics_path.empty() ||
                 !flight_path.empty() || !profile_path.empty() ||
                 windowing)) {
    std::cerr << "note: --trace/--metrics/--series/--flight-recorder/"
                 "--profile/--windows/--alerts imply --timed\n";
    timed = true;
  }
  lb::ControllerResult result;
  std::optional<topo::DistanceOracle> oracle;
  std::optional<obs::Profiler> profiler;
  std::vector<obs::AlertEvent> alert_events;
  bool alerting = false;
  if (timed) {
    // Event-driven rounds over real message latencies: shortest paths
    // between attachment vertices with a topology, unit latency without.
    sim::Engine engine;
    sim::Latency latency;
    if (topology) {
      oracle.emplace(topology->graph);
      // Every send leaves from an attachment vertex: fill those rows in
      // one batch, so no Dijkstra runs inside a traced or profiled round.
      std::vector<std::pair<topo::Vertex, topo::Vertex>> sources;
      for (const std::uint32_t a : attachments) sources.emplace_back(a, a);
      (void)oracle->distances(sources);
      latency = oracle->latency();
    } else {
      latency = sim::Latency{nullptr, [](void*, sim::Endpoint a,
                                         sim::Endpoint b) -> sim::Time {
        return a == b ? 0.0 : 1.0;
      }};
    }
    sim::Network net(engine, latency);
    obs::Tracer tracer;
    // The sink keeps trace memory O(1) in run length: events go straight
    // to disk instead of the tracer buffer.
    if (trace_sink) {
      tracer.set_sink(trace_sink.get());
      if (sample_of > 1)
        tracer.set_trace_sampling(sample_keep, sample_of, seed);
      net.attach_tracer(&tracer);
    }
    std::optional<sim::core::FlightRecorder> recorder;
    if (!flight_path.empty()) {
      engine.attach_flight_recorder(&recorder.emplace());
      // Self-describing dumps: a CI failure artifact names the run that
      // produced it, including the trace-sampling policy that decides
      // which trace file it can be matched against.
      recorder->set_note("nodes", std::to_string(nodes));
      recorder->set_note("seed", std::to_string(seed));
      recorder->set_note("trace_sample_keep",
                         std::to_string(tracer.sample_keep()));
      recorder->set_note("trace_sample_of",
                         std::to_string(tracer.sample_of()));
      recorder->set_note("trace_sample_seed",
                         std::to_string(tracer.sample_seed()));
      engine.set_anomaly_hook([&engine, &flight_path](const std::string& what) {
        std::cerr << "p2plb_sim: ANOMALY: " << what << "\n";
        std::ofstream os(flight_path);
        engine.write_flight_dump(os);
        std::cerr << "flight dump written to " << flight_path << "\n";
      });
    }
    if (stall_ms > 0.0) engine.enable_stall_detector(stall_ms);
    if (!profile_path.empty()) {
      // Host-time attribution: the engine stamps dispatch, the network
      // carries causal stacks through deliveries.  Observes the wall
      // clock only -- the schedule and every trace byte stay identical.
      profiler.emplace();
      net.attach_profiler(&*profiler);
    }
    lb::HealthProbe health(ring, config.balancer.epsilon);
    std::optional<obs::WindowedAggregator> windows;
    std::optional<obs::AlertEngine> alerts;
    std::vector<obs::Sample> series;
    if (windowing) {
      // The online metrics plane: passive (no events scheduled), fed
      // from the network's send path and the health probe's boundary
      // sampling; the alert engine evaluates at every bucket close, and
      // the series export appends each closed bucket.  The engine closes
      // each boundary on time, before the first event at or past it, so
      // every boundary reads the state at its own time -- a stretch with
      // no send longer than a bucket (a topology's long paths) included.
      windows.emplace(obs::WindowConfig{window_width, 64});
      net.attach_windows(&*windows);
      health.register_windows(*windows);
      if (!alerts_path.empty()) {
        alerts.emplace(*windows, obs::load_alert_rules_file(alerts_path));
        if (!trace_path.empty()) alerts->attach_tracer(&tracer);
        alerts->attach_metrics(&net.metrics());
        alerting = true;
      }
      if (!series_path.empty()) obs::record_series(*windows, series);
    }
    {
      // One top-level frame around the whole run: total measured wall
      // time is exactly this scope's elapsed time, and every causal
      // stack roots under it.  A disengaged profiler makes it a no-op.
      const obs::Profiler::Scope run_scope(
          profiler ? &*profiler : nullptr,
          profiler ? profiler->intern("run", "driver") : 0);
      result = lb::balance_until_stable(net, ring, config, brng, keys);
    }
    if (windows) {
      // The one end-of-run close: the engine closed every boundary up to
      // the last event, and this closes the bucket holding the end time
      // before anything reads the windows, so alerts, trace and series
      // cover the same boundaries with or without --series.
      windows->advance_to(engine.now() + window_width);
    }
    if (profiler) {
      // Each round noted its phase and round windows as it completed;
      // the whole-run window closes the crosstab's sim-time axis.
      profiler->note_span("run", 0.0, engine.now());
      profiler->write_profile_file(profile_path);
      std::cerr << "profile written to " << profile_path << " ("
                << Table::num(
                       static_cast<double>(profiler->total_ns()) / 1e6, 1)
                << " ms measured)\n";
    }
    if (trace_sink) {
      trace_sink->flush();
      std::cerr << "trace written to " << trace_path << " ("
                << tracer.event_count() << " events";
      if (sample_of > 1)
        std::cerr << ", sampled " << sample_keep << "/" << sample_of;
      std::cerr << ")\n";
    }
    if (alerts) {
      alert_events = alerts->events();
      if (!alerts_out.empty()) {
        obs::write_alerts_file(*alerts, alerts_out);
        std::cerr << "alerts written to " << alerts_out << " ("
                  << alert_events.size() << " transitions)\n";
      }
    }
    if (!metrics_path.empty()) {
      engine.export_metrics(net.metrics());
      net.export_metrics(net.metrics());
      obs::write_metrics_file(net.metrics(), metrics_path);
      std::cerr << "metrics written to " << metrics_path << "\n";
    }
    if (!series_path.empty()) {
      obs::write_series_file(series, series_path);
      std::cerr << "series written to " << series_path << " ("
                << series.size() << " samples)\n";
    }
    if (!flight_path.empty()) {
      std::ofstream os(flight_path);
      engine.write_flight_dump(os);
      std::cerr << "flight dump written to " << flight_path << "\n";
    }
  } else {
    result = lb::balance_until_stable(ring, config, brng, keys);
  }

  print_heading(std::cout, "balance rounds");
  Table rounds({"round", "heavy before", "heavy after", "transfers",
                "moved load", "unassigned", "messages", "completion time"});
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    const auto& s = result.rounds[r];
    rounds.add_row({std::to_string(r + 1), std::to_string(s.heavy_before),
                    std::to_string(s.heavy_after),
                    std::to_string(s.transfers),
                    Table::num(s.moved_load, 1),
                    std::to_string(s.unassigned),
                    std::to_string(s.messages),
                    timed ? Table::num(s.completion_time, 1)
                          : std::string("-")});
  }
  bench::emit(rounds, csv);

  if (timed && !result.rounds.empty()) {
    print_heading(std::cout, "per-phase breakdown (first round)");
    Table phases({"phase", "messages", "bytes", "start", "end", "duration"});
    for (std::size_t p = 0; p < lb::kPhaseCount; ++p) {
      const lb::PhaseMetrics& m = result.rounds.front().phases[p];
      phases.add_row({std::to_string(p + 1) + " " +
                          lb::phase_name(static_cast<lb::Phase>(p)),
                      m.messages, Table::num(m.bytes, 0),
                      Table::num(m.start, 1), Table::num(m.end, 1),
                      Table::num(m.duration(), 1)});
    }
    bench::emit(phases, csv);
  }

  if (profiler)
    std::cout << "\nhost-time profile: p2plb_prof --in " << profile_path
              << " --crosstab true\n";

  if (alerting) {
    print_heading(std::cout, "alert transitions");
    Table alerts_table({"time", "rule", "event", "value", "threshold"});
    for (const obs::AlertEvent& e : alert_events)
      alerts_table.add_row({Table::num(e.t, 1), e.rule,
                            e.fire ? "fire" : "resolve",
                            Table::num(e.value, 3),
                            Table::num(e.threshold, 3)});
    if (alert_events.empty())
      alerts_table.add_row({"-", "-", "-", "-", "-"});
    bench::emit(alerts_table, csv);
  }

  print_heading(std::cout, "balance quality (load / fair share)");
  std::vector<double> unit_after;
  for (const chord::NodeIndex i : ring.live_nodes())
    unit_after.push_back(ring.node_load(i) /
                         (fair_before * ring.node(i).capacity));
  const Summary b = summarize(unit_before);
  const Summary a = summarize(unit_after);
  Table quality({"phase", "median", "p95", "p99", "max", "gini"});
  quality.add_row({"before", Table::num(b.median, 3), Table::num(b.p95, 2),
                   Table::num(b.p99, 2), Table::num(b.max, 2),
                   Table::num(gini(unit_before), 3)});
  quality.add_row({"after", Table::num(a.median, 3), Table::num(a.p95, 2),
                   Table::num(a.p99, 2), Table::num(a.max, 2),
                   Table::num(gini(unit_after), 3)});
  bench::emit(quality, csv);

  std::cout << (result.converged
                    ? "\nconverged: no overloaded nodes remain\n"
                    : "\nstopped before full convergence (see unassigned "
                      "column; raise --epsilon or --rounds)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli;
  cli.add_flag("nodes", "number of DHT nodes", "4096");
  cli.add_flag("servers", "virtual servers per node", "5");
  cli.add_flag("seed", "root RNG seed", "1");
  cli.add_flag("topology", "none | ts5k-large | ts5k-small", "none");
  cli.add_flag("workload", "gaussian | pareto | zipf", "gaussian");
  cli.add_flag("utilization", "mean total load / total capacity", "0.25");
  cli.add_flag("objects", "catalog size for --workload zipf", "100000");
  cli.add_flag("zipf", "Zipf exponent for --workload zipf", "0.8");
  cli.add_flag("mode", "ignorant | aware (aware needs a topology)",
               "ignorant");
  cli.add_flag("epsilon", "target slack", "0.05");
  cli.add_flag("degree", "K-nary tree degree", "2");
  cli.add_flag("threshold", "rendezvous threshold", "30");
  cli.add_flag("rounds", "max balancing rounds", "3");
  cli.add_flag("landmarks", "landmark count (aware mode)", "15");
  cli.add_flag("bits", "Hilbert grid bits per dimension", "2");
  cli.add_flag("timed", "run rounds event-driven over simulated latencies",
               "false");
  cli.add_flag("trace",
               std::string(p2plb::obs::kTraceFlagHelp) + "; implies --timed",
               "");
  cli.add_flag("trace-sample",
               "deterministic per-trace sampling ratio K/M (e.g. 1/64): "
               "keep a trace iff hash(trace_id, --seed) mod M < K; empty "
               "keeps everything",
               "");
  cli.add_flag("flight-recorder",
               "dump the engine flight recorder (recent events + queue "
               "introspection) to this file at exit and on any anomaly; "
               "implies --timed",
               "");
  cli.add_flag("profile",
               std::string(p2plb::obs::kProfileFlagHelp) +
                   "; implies --timed (analyze with p2plb_prof)",
               "");
  cli.add_flag("stall-ms",
               "flag an anomaly when one event callback holds the engine "
               "longer than this many wall-clock ms (0 = off)",
               "0");
  cli.add_flag("metrics",
               std::string(p2plb::obs::kMetricsFlagHelp) + "; implies --timed",
               "");
  cli.add_flag("series",
               std::string(p2plb::obs::kSeriesFlagHelp) +
                   "; implies --windows, default width 10",
               "");
  cli.add_flag("windows",
               std::string(p2plb::obs::kWindowsFlagHelp) +
                   "; 0 = off; implies --timed",
               "0");
  cli.add_flag("alerts",
               std::string(p2plb::obs::kAlertsFlagHelp) +
                   ", default width 10; implies --timed",
               "");
  cli.add_flag("alerts-out", p2plb::obs::kAlertsOutFlagHelp, "");
  cli.add_flag("csv", "emit CSV tables", "false");
  if (!cli.parse(argc, argv)) return 0;
  return run(cli);
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
