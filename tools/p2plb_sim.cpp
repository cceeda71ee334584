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
// run's structured trace (Chrome trace_event JSON, JSONL when FILE ends
// in .jsonl, compact binary p2plb-btrace-1 when it ends in .btrace --
// override with `--trace-format`) and the unified metrics registry (CSV
// when FILE ends in .csv, aligned text otherwise; all suffix checks
// case-insensitive).  JSONL and binary traces stream to disk as the run
// goes; `--trace-sample K/M` keeps a deterministic hash-selected subset
// of traces.  `--flight-recorder FILE` dumps the engine's recent-event
// ring and queue introspection at exit and on anomalies (see also
// `--stall-ms`).
//
// `--sample-every T` / `--series FILE` (they also imply `--timed`)
// attach an obs::Sampler: every T units of simulated time it records the
// lb::HealthProbe gauges plus the network's `net.*` totals onto a time
// series, exported to FILE for tools/p2plb_report.
//
//   $ p2plb_sim --topology ts5k-large --workload gaussian --mode aware
//   $ p2plb_sim --nodes 1024 --workload zipf --zipf 1.1 --rounds 4
//   $ p2plb_sim --topology ts5k-small --timed
// `--windows W` attaches the online metrics plane (obs::WindowedAggregator,
// W-wide buckets over sim time) fed from the network and health hooks;
// `--alerts rules.conf` (implies `--windows`) evaluates declarative alert
// rules at every window boundary, prints the fired/resolved transitions,
// and exports them with `--alerts-out alerts.csv` (p2plb-alerts-1).
//
//   $ p2plb_sim --timed --trace trace.json --metrics metrics.csv
//   $ p2plb_sim --sample-every 5 --series series.csv
//   $ p2plb_sim --alerts examples/alerts.conf --alerts-out alerts.csv
#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>

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
#include "obs/sampler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "workload/objects.h"

namespace {

using namespace p2plb;

/// Resolve --trace-format: "auto" follows the path suffix (the
/// write_trace_file rule), anything else forces the format.
std::string resolve_trace_format(const std::string& format,
                                 const std::string& path) {
  if (format != "auto") return format;
  if (obs::path_has_extension(path, ".jsonl")) return "jsonl";
  if (obs::path_has_extension(path, obs::kBinaryTraceExtension))
    return "binary";
  return "chrome";
}

/// Parse --trace-sample "K/M" (e.g. "1/64").  Returns false on
/// malformed input.
bool parse_sample_ratio(const std::string& s, std::uint64_t* keep,
                        std::uint64_t* of) {
  unsigned long long k = 0;
  unsigned long long m = 0;
  char tail = '\0';
  if (std::sscanf(s.c_str(), "%llu/%llu%c", &k, &m, &tail) != 2) return false;
  if (m == 0 || k > m) return false;
  *keep = k;
  *of = m;
  return true;
}

int run(const Cli& cli) {
  const bool csv = cli.get_bool("csv");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto nodes = static_cast<std::size_t>(cli.get_int("nodes"));
  const auto servers = static_cast<std::size_t>(cli.get_int("servers"));
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
    oparams.object_count =
        static_cast<std::size_t>(cli.get_int("objects"));
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
  config.max_rounds = static_cast<std::uint32_t>(cli.get_int("rounds"));
  config.balancer.epsilon = cli.get_double("epsilon");
  config.balancer.tree_degree =
      static_cast<std::uint32_t>(cli.get_int("degree"));
  config.balancer.rendezvous_threshold =
      static_cast<std::size_t>(cli.get_int("threshold"));
  if (mode == "aware") {
    if (!topology) {
      std::cerr << "--mode aware requires a --topology\n";
      return 1;
    }
    lb::ProximityConfig pconfig;
    pconfig.landmark_count =
        static_cast<std::size_t>(cli.get_int("landmarks"));
    pconfig.bits_per_dimension =
        static_cast<std::uint32_t>(cli.get_int("bits"));
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
  const std::string trace_format =
      resolve_trace_format(cli.get_string("trace-format"), trace_path);
  if (trace_format != "jsonl" && trace_format != "binary" &&
      trace_format != "chrome") {
    std::cerr << "unknown --trace-format (auto|jsonl|binary|chrome)\n";
    return 1;
  }
  std::uint64_t sample_keep = 1;
  std::uint64_t sample_of = 1;
  if (!trace_sample.empty() &&
      !parse_sample_ratio(trace_sample, &sample_keep, &sample_of)) {
    std::cerr << "--trace-sample must be K/M with 1 <= K <= M (e.g. 1/64)\n";
    return 1;
  }
  double sample_every = cli.get_double("sample-every");
  const bool sampling = sample_every > 0.0 || !series_path.empty();
  if (sampling && sample_every <= 0.0) sample_every = 5.0;
  double window_width = cli.get_double("windows");
  const std::string alerts_path = cli.get_string("alerts");
  const std::string alerts_out = cli.get_string("alerts-out");
  const bool windowing = window_width > 0.0 || !alerts_path.empty();
  if (windowing && window_width <= 0.0) window_width = 10.0;
  bool timed = cli.get_bool("timed");
  if (!timed && (!trace_path.empty() || !metrics_path.empty() || sampling ||
                 !flight_path.empty() || !profile_path.empty() ||
                 windowing)) {
    std::cerr << "note: --trace/--metrics/--series/--sample-every/"
                 "--flight-recorder/--profile/--windows/--alerts imply "
                 "--timed\n";
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
      oracle.emplace(topology->graph, std::max<std::size_t>(nodes, 64));
      // Every send leaves from an attachment vertex: fill those rows in
      // one batch (they all fit the cache), so no Dijkstra runs inside a
      // traced or profiled round.
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
    // Streaming sinks (jsonl / binary) keep trace memory O(1) in run
    // length: events go straight to disk instead of the tracer buffer.
    // Chrome output needs the whole buffer (one JSON document).
    std::optional<obs::JsonlTraceSink> jsonl_sink;
    std::optional<obs::BinaryTraceSink> binary_sink;
    if (!trace_path.empty()) {
      if (trace_format == "jsonl") {
        tracer.set_sink(&jsonl_sink.emplace(trace_path));
      } else if (trace_format == "binary") {
        tracer.set_sink(&binary_sink.emplace(trace_path));
      }
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
      engine.attach_profiler(&*profiler);
      net.attach_profiler(&*profiler);
    }
    obs::TimeSeriesSink sink;
    std::optional<obs::Sampler> sampler;
    lb::HealthProbe health(ring, {config.balancer.epsilon, "health"});
    std::optional<obs::WindowedAggregator> windows;
    std::optional<obs::AlertEngine> alerts;
    if (windowing) {
      // The online metrics plane: passive (no events scheduled), fed
      // from the network's send path and the health probe's boundary
      // sampling; the alert engine evaluates at every bucket close.
      windows.emplace(obs::WindowConfig{window_width, 64});
      net.attach_windows(&*windows);
      health.register_windows(*windows);
      if (!alerts_path.empty()) {
        alerts.emplace(*windows, obs::load_alert_rules_file(alerts_path));
        if (!trace_path.empty()) alerts->attach_tracer(&tracer);
        alerts->attach_metrics(&net.metrics());
        alerting = true;
      }
    }
    if (sampling) {
      sampler.emplace(sink, sample_every);
      sampler->add_probe([&health](double t, obs::TimeSeriesSink& s) {
        health.sample_into(t, s);
      });
      // Probes run before registry snapshots, so each tick reads fresh
      // traffic tallies.
      sampler->add_probe([&net](double, obs::TimeSeriesSink&) {
        net.export_metrics(net.metrics());
      });
      sampler->add_registry(net.metrics(), {"net."});
      if (windows)
        // Let the sampler's existing cadence drive window boundaries
        // through quiet periods (no new events are added: the probe
        // rides the sampler's tick).
        sampler->add_probe([&windows](double t, obs::TimeSeriesSink&) {
          windows->advance_to(t);
        });
    }
    {
      // One top-level frame around the whole run: total measured wall
      // time is exactly this scope's elapsed time, and every causal
      // stack roots under it.  A disengaged profiler makes it a no-op.
      const obs::Profiler::Scope run_scope(
          profiler ? &*profiler : nullptr,
          profiler ? profiler->intern("run", "driver") : 0);
      result = lb::balance_until_stable(net, ring, config, brng, keys,
                                        sampler ? &*sampler : nullptr);
    }
    if (profiler) {
      // Sim-time axis for the crosstab: per-round phase windows (named
      // after the network tags so they join the matching frames) plus
      // the whole-run window.
      constexpr std::array<std::string_view, lb::kPhaseCount> kPhaseTags = {
          lb::kTagAggregation, lb::kTagDissemination, lb::kTagVsa,
          lb::kTagTransfer};
      for (const lb::RoundStats& s : result.rounds) {
        double round_end = s.phases[0].start;
        for (std::size_t p = 0; p < lb::kPhaseCount; ++p) {
          const lb::PhaseMetrics& m = s.phases[p];
          profiler->note_span(kPhaseTags[p], m.start, m.end);
          round_end = std::max(round_end, m.end);
        }
        profiler->note_span("round", s.phases[0].start, round_end);
      }
      profiler->note_span("run", 0.0, engine.now());
      profiler->write_profile_file(profile_path);
      std::cerr << "profile written to " << profile_path << " ("
                << Table::num(
                       static_cast<double>(profiler->total_ns()) / 1e6, 1)
                << " ms measured)\n";
    }
    if (!series_path.empty()) {
      obs::write_series_file(sink, series_path);
      std::cerr << "series written to " << series_path << " (" << sink.size()
                << " samples)\n";
    }
    if (!trace_path.empty()) {
      if (tracer.sink() != nullptr) {
        tracer.sink()->flush();
      } else {
        obs::write_trace_file(tracer, trace_path);
      }
      std::cerr << "trace written to " << trace_path << " ("
                << tracer.event_count() << " events";
      if (sample_of > 1)
        std::cerr << ", sampled " << sample_keep << "/" << sample_of;
      std::cerr << ")\n";
    }
    if (windows) {
      // Close every bucket the run's end time passed, so trailing
      // resolves (and the final windows) are evaluated.
      windows->advance_to(engine.now());
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

  if (profiler) {
    // Where the host's wall clock went, and the sim x host crosstab
    // (p2plb_prof renders the same reports from the profile file).
    print_heading(std::cout, "host-time hot frames");
    std::vector<obs::Profiler::FrameStat> stats = profiler->frame_table();
    std::sort(stats.begin(), stats.end(),
              [](const obs::Profiler::FrameStat& a,
                 const obs::Profiler::FrameStat& b) {
                if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
                return a.name < b.name;
              });
    const double total_ns = profiler->total_ns() == 0
                                ? 1.0
                                : static_cast<double>(profiler->total_ns());
    Table hot({"frame", "layer", "count", "self_ms", "total_ms", "self_pct"});
    for (const obs::Profiler::FrameStat& r : stats)
      hot.add_row({r.name, r.layer.empty() ? "-" : r.layer, r.count,
                   Table::num(static_cast<double>(r.self_ns) / 1e6, 3),
                   Table::num(static_cast<double>(r.total_ns) / 1e6, 3),
                   Table::num(
                       100.0 * static_cast<double>(r.self_ns) / total_ns, 2)});
    bench::emit(hot, csv);

    print_heading(std::cout, "sim-time x host-time crosstab");
    std::map<std::string, double> sim_axis;
    for (const obs::Profiler::SpanNote& n : profiler->notes())
      sim_axis[n.name] += n.sim_end - n.sim_start;
    Table cross({"span", "sim_time", "host_ms", "host_pct"});
    for (const auto& [name, sim_time] : sim_axis) {
      std::uint64_t host = 0;
      for (const obs::Profiler::FrameStat& r : stats)
        if (r.name == name) {
          host = r.total_ns;
          break;
        }
      cross.add_row(
          {name, Table::num(sim_time, 1),
           Table::num(static_cast<double>(host) / 1e6, 3),
           Table::num(100.0 * static_cast<double>(host) / total_ns, 2)});
    }
    bench::emit(cross, csv);
  }

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

int main(int argc, char** argv) {
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
  cli.add_flag("trace-format",
               "auto | jsonl | binary | chrome -- auto follows the --trace "
               "suffix; jsonl and binary stream to disk as the run goes",
               "auto");
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
  cli.add_flag("sample-every",
               "sampling period in simulated time (0 = no sampling); "
               "implies --timed",
               "0");
  cli.add_flag("series",
               std::string(p2plb::obs::kSeriesFlagHelp) +
                   "; implies --timed, default period 5",
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
}
