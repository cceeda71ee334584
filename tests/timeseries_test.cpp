// Tests for the time-series observability layer: the series CSV writer
// and loader, the closed-bucket series export (obs::record_series),
// re-convergence measurement, lb::HealthProbe gauges, and the report
// generator.
//
// Two properties are pinned hard:
//   * a deterministic churn scenario with a scripted crash burst yields a
//     byte-stable series from which measure_reconvergence computes one
//     exact, finite recovery time;
//   * exporting a series is schedule-invariant -- the timed controller
//     executes the identical event sequence, and writes the byte-identical
//     trace, with and without windows + series attached.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "lb/controller.h"
#include "lb/health.h"
#include "lb/protocol_round.h"
#include "obs/format.h"
#include "obs/alert.h"
#include "obs/binary_trace.h"
#include "obs/report.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace p2plb {
namespace {

// ---------------------------------------------------------------------------
// Format helpers
// ---------------------------------------------------------------------------

TEST(Format, PathHasExtensionIsCaseInsensitive) {
  EXPECT_TRUE(obs::path_has_extension("metrics.csv", ".csv"));
  EXPECT_TRUE(obs::path_has_extension("METRICS.CSV", ".csv"));
  EXPECT_TRUE(obs::path_has_extension("trace.JsOnL", ".jsonl"));
  EXPECT_FALSE(obs::path_has_extension("metrics.csv.txt", ".csv"));
  EXPECT_FALSE(obs::path_has_extension("metricscsv", ".csv"));
  EXPECT_FALSE(obs::path_has_extension("csv", ".csv"));  // shorter than ext
}

TEST(Format, ParseNumberAcceptsOnlyAWholeNumber) {
  EXPECT_EQ(obs::parse_number("2.5", "ctx"), 2.5);
  EXPECT_EQ(obs::parse_number("-1e3", "ctx"), -1000.0);
  EXPECT_THROW((void)obs::parse_number("", "ctx"), PreconditionError);
  EXPECT_THROW((void)obs::parse_number("abc", "ctx"), PreconditionError);
  EXPECT_THROW((void)obs::parse_number("1.5x", "ctx"), PreconditionError);
  EXPECT_THROW((void)obs::parse_number("1e999", "ctx"), PreconditionError);
  try {
    (void)obs::parse_number("7 ", "line 3: 7 ");
    FAIL() << "trailing space accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3: 7 "), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Series writer + loader
// ---------------------------------------------------------------------------

/// A series whose keys exercise the escaping paths: a label value with a
/// comma (canonical key contains one) and a quote in a plain key.
std::vector<obs::Sample> tricky_series() {
  return {{0.0, "health.nodes", 64.0},
          {2.5, "m{tag=a,b}", 0.125},
          {10.0, "quote\"y", 3.0}};
}

TEST(TimeSeries, CsvExportIsGolden) {
  std::ostringstream os;
  obs::write_series_csv(os, tricky_series());
  EXPECT_EQ(os.str(),
            "time,metric,value\n"
            "0,health.nodes,64\n"
            "2.5,\"m{tag=a,b}\",0.125\n"
            "10,\"quote\"\"y\",3\n");
}

TEST(TimeSeries, LoadersInvertTheWriters) {
  const std::vector<obs::Sample> series = tricky_series();
  std::ostringstream csv;
  obs::write_series_csv(csv, series);
  std::istringstream csv_in(csv.str());
  EXPECT_EQ(obs::load_series_csv(csv_in), series);
}

TEST(TimeSeries, FileRoundTripIsCsvWhateverTheSuffix) {
  const std::vector<obs::Sample> series = tricky_series();
  const std::string other_path = testing::TempDir() + "series.JSONL";
  const std::string csv_path = testing::TempDir() + "series.csv";
  obs::write_series_file(series, other_path);
  obs::write_series_file(series, csv_path);
  EXPECT_EQ(obs::load_series_file(other_path), series);
  EXPECT_EQ(obs::load_series_file(csv_path), series);
  // The suffix selects nothing: the .JSONL file is CSV too.
  std::ifstream is(other_path);
  std::string first;
  ASSERT_TRUE(std::getline(is, first));
  EXPECT_EQ(first, "time,metric,value");
  // ...and a stale JSON-lines series fails loudly instead of misparsing.
  const std::string stale_path = testing::TempDir() + "stale_series.jsonl";
  std::ofstream(stale_path) << "{\"t\":0,\"metric\":\"m\",\"value\":1}\n";
  try {
    (void)obs::load_series_file(stale_path);
    FAIL() << "a JSON-lines series was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "series CSV must start with a time,metric,value header"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(obs::write_series_file(series, "/nonexistent-dir/s.csv"),
               PreconditionError);
  EXPECT_THROW((void)obs::load_series_file("/nonexistent-dir/s.csv"),
               PreconditionError);
}

TEST(TimeSeries, LoadersRejectMalformedInput) {
  std::istringstream empty("");
  EXPECT_THROW((void)obs::load_series_csv(empty), PreconditionError);
  std::istringstream bad_header("a,b,c\n");
  EXPECT_THROW((void)obs::load_series_csv(bad_header), PreconditionError);
  std::istringstream short_row("time,metric,value\n1,x\n");
  EXPECT_THROW((void)obs::load_series_csv(short_row), PreconditionError);
  std::istringstream bad_number("time,metric,value\n1,x,abc\n");
  EXPECT_THROW((void)obs::load_series_csv(bad_number), PreconditionError);
}

TEST(TimeSeries, KeyAndSeriesExtraction) {
  const std::vector<obs::Sample> series = tricky_series();
  EXPECT_EQ(obs::series_keys(series),
            (std::vector<std::string>{"health.nodes", "m{tag=a,b}",
                                      "quote\"y"}));
  const auto points = obs::extract_series(series, "m{tag=a,b}");
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0], std::make_pair(2.5, 0.125));
  EXPECT_TRUE(obs::extract_series(series, "missing").empty());
}

// ---------------------------------------------------------------------------
// measure_reconvergence
// ---------------------------------------------------------------------------

TEST(Reconvergence, MeasuresRecoveryAgainstThePreEventBaseline) {
  const std::vector<std::pair<double, double>> points{
      {0.0, 0.10}, {10.0, 0.12}, {20.0, 0.50},
      {30.0, 0.30}, {40.0, 0.12}, {50.0, 0.05}};
  const obs::Reconvergence rc = obs::measure_reconvergence(points, 15.0);
  EXPECT_TRUE(rc.converged);
  EXPECT_DOUBLE_EQ(rc.baseline, 0.12);  // last sample strictly before 15
  EXPECT_DOUBLE_EQ(rc.peak, 0.50);
  EXPECT_DOUBLE_EQ(rc.time, 25.0);  // first <= baseline at t = 40
  EXPECT_DOUBLE_EQ(rc.event_time, 15.0);
}

TEST(Reconvergence, SampleAtTheEventInstantIsExcluded) {
  // A bucket closing at exactly the event time reads the state after a
  // scripted crash and carries the spike; it must poison neither
  // baseline nor peak-side bookkeeping.
  const std::vector<std::pair<double, double>> points{
      {10.0, 0.1}, {15.0, 0.9}, {20.0, 0.8}, {25.0, 0.1}};
  const obs::Reconvergence rc = obs::measure_reconvergence(points, 15.0);
  EXPECT_DOUBLE_EQ(rc.baseline, 0.1);
  EXPECT_DOUBLE_EQ(rc.peak, 0.8);  // the t = 15 spike itself is excluded
  EXPECT_TRUE(rc.converged);
  EXPECT_DOUBLE_EQ(rc.time, 10.0);
}

TEST(Reconvergence, HandlesDegenerateSeries) {
  EXPECT_FALSE(obs::measure_reconvergence({}, 5.0).converged);
  // No post-event samples: not converged, baseline = last value.
  const obs::Reconvergence tail =
      obs::measure_reconvergence({{0.0, 0.2}, {1.0, 0.3}}, 5.0);
  EXPECT_FALSE(tail.converged);
  EXPECT_DOUBLE_EQ(tail.baseline, 0.3);
  EXPECT_DOUBLE_EQ(tail.peak, 0.3);
  // Never returns to baseline: peak tracked to the end of the series.
  const obs::Reconvergence stuck = obs::measure_reconvergence(
      {{0.0, 0.1}, {10.0, 0.6}, {20.0, 0.4}}, 5.0);
  EXPECT_FALSE(stuck.converged);
  EXPECT_DOUBLE_EQ(stuck.peak, 0.6);
  // No pre-event sample (a disturbance before the first closed bucket):
  // there is no level to return to, so the first post-event sample must
  // not double as both baseline and recovery.
  const obs::Reconvergence early = obs::measure_reconvergence(
      {{10.0, 0.5}, {20.0, 0.1}}, 5.0);
  EXPECT_FALSE(early.converged);
  EXPECT_DOUBLE_EQ(early.baseline, 0.0);
}

// ---------------------------------------------------------------------------
// Series export: closed window buckets
// ---------------------------------------------------------------------------

TEST(SeriesExport, OneRowPerSeriesPerClosedBucket) {
  obs::WindowedAggregator w({10.0, 8});
  const obs::SeriesId c = w.counter_series("c");
  const obs::SeriesId g = w.gauge_series("g");
  const obs::SeriesId h = w.histogram_series("h");  // never exported
  std::vector<obs::Sample> rows;
  obs::record_series(w, rows);
  w.record(c, 1.0, 2.0);
  w.record(c, 5.0, 3.0);
  w.record(g, 6.0, 0.5);
  w.record(g, 7.0, 0.75);
  w.record(h, 8.0, 1.0);
  w.record(c, 12.0, 1.0);  // [10, 20) has no gauge reading
  w.advance_to(30.0);
  // Counters: the bucket sum (0 for a quiet bucket), not a running
  // total.  Gauges: the bucket's last reading, no row when it has none.
  const std::vector<obs::Sample> want{
      {10.0, "c", 5.0}, {10.0, "g", 0.75}, {20.0, "c", 1.0},
      {30.0, "c", 0.0}};
  EXPECT_EQ(rows, want);
  // A series registered later joins at the next boundary.
  const obs::SeriesId late = w.gauge_series("late");
  w.record(late, 31.0, 9.0);
  w.advance_to(40.0);
  ASSERT_EQ(rows.size(), want.size() + 2);
  EXPECT_EQ(rows[4], (obs::Sample{40.0, "c", 0.0}));
  EXPECT_EQ(rows[5], (obs::Sample{40.0, "late", 9.0}));
}

/// Deterministic mini churn run: 64 nodes balancing every 100 time units,
/// a burst of 8 crashes (plus a load redraw) at t = 350, with the health
/// gauges exported from 10-wide window buckets.  The engine closes each
/// boundary on time, through the quiet stretches between rounds too.
/// (Seed re-pinned when Node::servers became canonically sorted.)
std::vector<obs::Sample> run_crash_burst_scenario() {
  Rng rng(2025);
  auto ring = workload::build_ring(
      64, 3, workload::CapacityProfile::gnutella_like(), rng);
  workload::assign_loads(
      ring,
      workload::scaled_load_model(ring, workload::LoadDistribution::kGaussian),
      rng);
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint a, sim::Endpoint b) {
    return a == b ? 0.0 : 1.0;
  });
  obs::WindowedAggregator windows({10.0, 64});
  net.attach_windows(&windows);
  lb::HealthProbe health(ring, 0.1);
  health.register_windows(windows);
  std::vector<obs::Sample> series;
  obs::record_series(windows, series);

  int started = 0;
  std::vector<std::unique_ptr<lb::ProtocolRound>> rounds;
  lb::ProtocolRoundConfig rconfig;
  rconfig.balancer.epsilon = 0.1;
  engine.every(100.0, [&] {
    rounds.push_back(
        std::make_unique<lb::ProtocolRound>(net, ring, rconfig, rng));
    rounds.back()->start();
    return ++started < 8;
  });
  engine.schedule_after(350.0, [&] {
    Rng crng(7);
    for (int k = 0; k < 8; ++k) {
      const auto live = ring.live_nodes();
      ring.remove_node(live[crng.below(live.size())]);
    }
    workload::assign_loads(
        ring,
        workload::scaled_load_model(ring,
                                    workload::LoadDistribution::kGaussian),
        crng);
    series.push_back({engine.now(), "event.crash", 8.0});
  });
  engine.run_until(850.0);
  return series;
}

TEST(SeriesExport, RowsAreTimeOrderedAndRoundTrip) {
  const std::vector<obs::Sample> series = run_crash_burst_scenario();
  ASSERT_FALSE(series.empty());
  for (std::size_t i = 1; i < series.size(); ++i)
    ASSERT_LE(series[i - 1].t, series[i].t) << "row " << i;
  // No t = 0 row: the first row is the first closed boundary.
  EXPECT_DOUBLE_EQ(series.front().t, 10.0);
  // Values are written with 6 significant digits, so the round trip is
  // exact on the text: reload, rewrite, compare bytes.
  std::ostringstream csv;
  obs::write_series_csv(csv, series);
  std::istringstream csv_in(csv.str());
  const std::vector<obs::Sample> from_csv = obs::load_series_csv(csv_in);
  ASSERT_EQ(from_csv.size(), series.size());
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(from_csv[i].key, series[i].key);
    EXPECT_EQ(from_csv[i].t, series[i].t);
  }
  std::ostringstream csv2;
  obs::write_series_csv(csv2, from_csv);
  EXPECT_EQ(csv2.str(), csv.str());
}

TEST(SeriesExport, SharesBoundariesWithTheAlertEngine) {
  // Both hooks hang off one aggregator: the series sees every boundary
  // the alert engine evaluates, and adding it leaves the alert stream
  // unchanged.
  auto run = [](bool with_series, std::vector<obs::Sample>& rows) {
    obs::WindowedAggregator w({10.0, 8});
    const obs::SeriesId g = w.gauge_series("g");
    obs::AlertEngine alerts(w, obs::parse_alert_rules("hot g last > 1\n"));
    if (with_series) obs::record_series(w, rows);
    w.record(g, 5.0, 0.5);
    w.record(g, 15.0, 2.0);
    w.record(g, 25.0, 3.0);
    w.record(g, 35.0, 0.5);
    w.advance_to(40.0);
    std::vector<std::pair<double, bool>> transitions;
    for (const obs::AlertEvent& e : alerts.events())
      transitions.emplace_back(e.t, e.fire);
    return transitions;
  };
  std::vector<obs::Sample> no_rows;
  std::vector<obs::Sample> rows;
  const auto plain = run(false, no_rows);
  const auto with_series = run(true, rows);
  EXPECT_TRUE(no_rows.empty());
  EXPECT_EQ(with_series, plain);
  EXPECT_EQ(with_series, (std::vector<std::pair<double, bool>>{
                             {20.0, true}, {40.0, false}}));
  const std::vector<obs::Sample> want{
      {10.0, "g", 0.5}, {20.0, "g", 2.0}, {30.0, "g", 3.0}, {40.0, "g", 0.5}};
  EXPECT_EQ(rows, want);
}

// ---------------------------------------------------------------------------
// Schedule invariance of the timed controller under series export
// ---------------------------------------------------------------------------

struct TimedOutcome {
  std::uint64_t events_executed = 0;
  std::string trace_jsonl;
  std::vector<double> node_loads;
  std::vector<obs::Sample> series;
  double end_time = 0.0;
};

/// How much observation the timed controller run carries: none, windows
/// (with the health gauges registered) but no series export, or windows
/// plus the series export.
enum class SeriesMode { kNone, kWindowsOnly, kSeries };

TimedOutcome run_timed_controller(SeriesMode mode) {
  Rng rng(41);
  auto ring = workload::build_ring(
      32, 3, workload::CapacityProfile::gnutella_like(), rng);
  workload::assign_loads(
      ring,
      workload::scaled_load_model(ring, workload::LoadDistribution::kGaussian),
      rng);
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint a, sim::Endpoint b) {
    return a == b ? 0.0 : 1.0;
  });
  obs::Tracer tracer;
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  tracer.set_sink(&sink);
  net.attach_tracer(&tracer);
  constexpr double kWidth = 2.0;
  lb::HealthProbe health(ring, 0.1);
  std::optional<obs::WindowedAggregator> windows;
  TimedOutcome out;
  if (mode != SeriesMode::kNone) {
    windows.emplace(obs::WindowConfig{kWidth, 64});
    net.attach_windows(&*windows);
    health.register_windows(*windows);
    if (mode == SeriesMode::kSeries) obs::record_series(*windows, out.series);
  }

  lb::ControllerConfig config;
  config.max_rounds = 3;
  Rng brng(7);
  (void)lb::balance_until_stable(net, ring, config, brng);
  // The engine closed every boundary up to the last event; close the
  // bucket holding the end time, as p2plb_sim does.
  if (windows) windows->advance_to(engine.now() + kWidth);

  out.events_executed = engine.events_executed();
  out.end_time = engine.now();
  out.trace_jsonl = os.str();
  for (const chord::NodeIndex i : ring.live_nodes())
    out.node_loads.push_back(ring.node_load(i));
  return out;
}

// The suite name predates the series export: these two tests pinned the
// same invariance for the periodic sampler it replaced.
TEST(SamplerInvariance, DisabledSamplerIsScheduleInvariant) {
  const TimedOutcome none = run_timed_controller(SeriesMode::kNone);
  const TimedOutcome windowed = run_timed_controller(SeriesMode::kWindowsOnly);
  // Windows without a series export schedule nothing and record nothing.
  EXPECT_EQ(none.events_executed, windowed.events_executed);
  EXPECT_EQ(none.trace_jsonl, windowed.trace_jsonl);
  EXPECT_EQ(none.node_loads, windowed.node_loads);
  EXPECT_TRUE(windowed.series.empty());
}

TEST(SamplerInvariance, EnabledSamplerReadsButNeverSteers) {
  const TimedOutcome none = run_timed_controller(SeriesMode::kNone);
  const TimedOutcome observed = run_timed_controller(SeriesMode::kSeries);
  // Windows + series schedule nothing: the identical event count and the
  // byte-identical trace, timestamps included.
  EXPECT_EQ(none.events_executed, observed.events_executed);
  EXPECT_EQ(none.trace_jsonl, observed.trace_jsonl);
  EXPECT_EQ(none.node_loads, observed.node_loads);
  // The series has a heavy-fraction row for each boundary, through the
  // bucket holding the end time.
  const auto heavy =
      obs::extract_series(observed.series, "health.heavy_fraction");
  ASSERT_FALSE(heavy.empty());
  for (std::size_t i = 0; i < heavy.size(); ++i)
    EXPECT_DOUBLE_EQ(heavy[i].first, 2.0 * static_cast<double>(i + 1));
  EXPECT_GT(heavy.back().first, observed.end_time);
}

// ---------------------------------------------------------------------------
// HealthProbe
// ---------------------------------------------------------------------------

/// Every gauge the probe publishes, read back through the series export
/// of one closed bucket ending at `t` (> 0).
std::map<std::string, double> gauges_at(const lb::HealthProbe& probe,
                                        double t) {
  obs::WindowedAggregator windows({t, 2});
  probe.register_windows(windows);
  std::vector<obs::Sample> rows;
  obs::record_series(windows, rows);
  windows.advance_to(t);
  std::map<std::string, double> g;
  for (const obs::Sample& s : rows) {
    EXPECT_DOUBLE_EQ(s.t, t);
    g[s.key] = s.value;
  }
  return g;
}

TEST(HealthProbe, ComputesExactGaugesOnAHandBuiltRing) {
  chord::Ring ring;
  const auto a = ring.add_node(1.0);
  const auto b = ring.add_node(3.0);
  ring.add_virtual_server(a, 0x40000000u);
  ring.add_virtual_server(b, 0x80000000u);
  ring.add_virtual_server(b, 0xC0000000u);
  ring.set_load(0x40000000u, 2.0);
  ring.set_load(0x80000000u, 0.5);
  ring.set_load(0xC0000000u, 0.5);
  // L = 3, C = 4, fair = 0.75; unit_a = 2 / 0.75, unit_b = 1 / 2.25.
  lb::HealthProbe probe(ring, 0.1);
  const std::map<std::string, double> g = gauges_at(probe, 5.0);
  EXPECT_DOUBLE_EQ(g.at("health.nodes"), 2.0);
  EXPECT_DOUBLE_EQ(g.at("health.heavy_fraction"), 0.5);  // only node a
  EXPECT_DOUBLE_EQ(g.at("health.max_unit_load"), 2.0 / 0.75);
  EXPECT_DOUBLE_EQ(g.at("health.mean_unit_load"),
                   (2.0 / 0.75 + 1.0 / 2.25) / 2.0);
  EXPECT_DOUBLE_EQ(g.at("health.vs_per_node{q=max}"), 2.0);
  EXPECT_DOUBLE_EQ(g.at("health.vs_per_node{q=p50}"), 1.5);
  EXPECT_GT(g.at("health.imbalance"), 1.0);
  EXPECT_GT(g.at("health.gini_unit_load"), 0.0);
  // No tree attached: no ktree gauges.
  EXPECT_EQ(g.count("health.ktree_instances"), 0u);
}

TEST(HealthProbe, ReportsAttachedAggregatorAndTree) {
  sim::Engine engine;
  Rng rng(909);
  auto ring = workload::build_ring(
      32, 3, workload::CapacityProfile::gnutella_like(), rng);
  workload::assign_loads(
      ring,
      workload::scaled_load_model(ring, workload::LoadDistribution::kGaussian),
      rng);
  ktree::MaintenanceProtocol tree(engine, ring, 2, 1.0,
                                  ktree::unit_latency(ring));
  lb::HealthProbe probe(ring);
  probe.attach_tree(&tree);

  // Before anything runs: no instances yet.
  EXPECT_DOUBLE_EQ(gauges_at(probe, 0.5).at("health.ktree_instances"), 0.0);

  tree.start();
  engine.run_until(80.0);
  ASSERT_TRUE(tree.converged());
  const std::map<std::string, double> g = gauges_at(probe, engine.now());
  EXPECT_DOUBLE_EQ(g.at("health.ktree_instances"),
                   static_cast<double>(tree.instance_count()));
  EXPECT_GE(g.at("health.ktree_depth"), 1.0);
}

TEST(HealthProbe, AttachAfterRegistrationIsNotExported) {
  sim::Engine engine;
  Rng rng(909);
  auto ring = workload::build_ring(
      32, 3, workload::CapacityProfile::gnutella_like(), rng);
  ktree::MaintenanceProtocol tree(engine, ring, 2, 1.0,
                                  ktree::unit_latency(ring));
  lb::HealthProbe probe(ring);
  obs::WindowedAggregator windows({1.0, 4});
  probe.register_windows(windows);
  probe.attach_tree(&tree);
  std::vector<obs::Sample> rows;
  obs::record_series(windows, rows);
  windows.advance_to(2.0);
  ASSERT_FALSE(rows.empty());
  for (const obs::Sample& s : rows) {
    EXPECT_EQ(s.key.find("ktree"), std::string::npos) << s.key;
  }
}

TEST(HealthProbe, LaterBoundariesMatchAFreshProbe) {
  // The probe keeps its sort buffers between boundaries; once the ring
  // shrinks, its readings must still equal a fresh registration's.
  Rng rng(77);
  auto ring = workload::build_ring(
      32, 3, workload::CapacityProfile::gnutella_like(), rng);
  workload::assign_loads(
      ring,
      workload::scaled_load_model(ring, workload::LoadDistribution::kGaussian),
      rng);
  lb::HealthProbe probe(ring);
  obs::WindowedAggregator windows({5.0, 4});
  probe.register_windows(windows);
  std::vector<obs::Sample> rows;
  obs::record_series(windows, rows);
  windows.advance_to(5.0);
  const auto live = ring.live_nodes();
  for (std::size_t k = 0; k < 8; ++k) ring.remove_node(live[k]);
  rows.clear();
  windows.advance_to(10.0);
  std::map<std::string, double> later;
  for (const obs::Sample& s : rows) later[s.key] = s.value;
  EXPECT_DOUBLE_EQ(later.at("health.nodes"), 24.0);
  EXPECT_EQ(later, gauges_at(probe, 10.0));
}

// ---------------------------------------------------------------------------
// The acceptance scenario: crash burst -> spike -> pinned re-convergence
// ---------------------------------------------------------------------------

TEST(CrashBurstGolden, ReconvergenceTimeIsFiniteAndPinned) {
  const std::vector<obs::Sample> series = run_crash_burst_scenario();
  const auto heavy = obs::extract_series(series, "health.heavy_fraction");
  ASSERT_GT(heavy.size(), 50u);
  const obs::Reconvergence rc = obs::measure_reconvergence(heavy, 350.0);
  // The burst must be visible and the system must demonstrably recover.
  EXPECT_TRUE(rc.converged);
  EXPECT_GT(rc.peak, rc.baseline);
  // Pinned: the scenario is deterministic, so these are exact.  The
  // rounds before the crash fully balance the system (baseline 0); the
  // burst plus load redraw leaves 23 of the 56 survivors heavy, and the
  // round at t = 400 works it back to zero by t = 440.
  EXPECT_DOUBLE_EQ(rc.baseline, 0.0);
  EXPECT_DOUBLE_EQ(rc.peak, 23.0 / 56.0);
  EXPECT_DOUBLE_EQ(rc.time, 90.0);
}

TEST(CrashBurstGolden, ScenarioIsByteDeterministic) {
  std::ostringstream a, b;
  obs::write_series_csv(a, run_crash_burst_scenario());
  obs::write_series_csv(b, run_crash_burst_scenario());
  EXPECT_EQ(a.str(), b.str());
}

TEST(CrashBurstGolden, ReportPipelineComputesTheSameRecovery) {
  // End-to-end through the file formats: export, reload, analyze -- the
  // exact path tools/p2plb_report takes.
  const std::vector<obs::Sample> series = run_crash_burst_scenario();
  const std::string path = testing::TempDir() + "burst_series.csv";
  obs::write_series_file(series, path);
  const std::vector<obs::Sample> samples = obs::load_series_file(path);
  const obs::ExperimentReport report = obs::analyze(samples, {});
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_DOUBLE_EQ(report.events[0].magnitude, 8.0);
  const obs::Reconvergence direct = obs::measure_reconvergence(
      obs::extract_series(series, "health.heavy_fraction"), 350.0);
  EXPECT_EQ(report.events[0].reconvergence.converged, direct.converged);
  EXPECT_DOUBLE_EQ(report.events[0].reconvergence.time, direct.time);

  std::ostringstream md;
  obs::write_markdown_report(md, samples, {}, {});
  EXPECT_NE(md.str().find("## Convergence under churn"), std::string::npos);
  EXPECT_NE(md.str().find("| yes |"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Report generator on synthetic input
// ---------------------------------------------------------------------------

TEST(Report, AnalyzeFoldsSeriesAndEvents) {
  std::vector<obs::Sample> samples{
      {0.0, "health.heavy_fraction", 0.1},
      {10.0, "health.heavy_fraction", 0.1},
      {15.0, "event.crash", 4.0},
      {20.0, "health.heavy_fraction", 0.6},
      {30.0, "health.heavy_fraction", 0.05},
  };
  const obs::ExperimentReport report = obs::analyze(samples, {});
  ASSERT_EQ(report.series.size(), 2u);
  EXPECT_EQ(report.series[0].key, "event.crash");
  EXPECT_EQ(report.series[1].key, "health.heavy_fraction");
  EXPECT_EQ(report.series[1].count, 4u);
  EXPECT_DOUBLE_EQ(report.series[1].first, 0.1);
  EXPECT_DOUBLE_EQ(report.series[1].last, 0.05);
  EXPECT_DOUBLE_EQ(report.series[1].max, 0.6);
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_DOUBLE_EQ(report.events[0].magnitude, 4.0);
  EXPECT_TRUE(report.events[0].reconvergence.converged);
  EXPECT_DOUBLE_EQ(report.events[0].reconvergence.time, 15.0);
  EXPECT_THROW((void)obs::analyze({}, {}), PreconditionError);
}

TEST(Report, MarkdownContainsAllSections) {
  std::vector<obs::Sample> samples{
      {0.0, "health.heavy_fraction", 0.1},
      {15.0, "event.crash", 4.0},
      {20.0, "health.heavy_fraction", 0.6},
      {30.0, "health.heavy_fraction", 0.05},
  };
  // End-of-run rows as a --metrics file holds them; the traffic table
  // lists the net.* keys, sorted, each at its last row.
  const std::vector<obs::Sample> totals{
      {10.0, "net.messages", 5.0},
      {10.0, "sim.engine.executed", 9.0},
      {30.0, "net.messages", 123.0},
      {30.0, "net.bytes", 7.0},
  };
  std::ostringstream os;
  obs::write_markdown_report(os, samples, totals, {});
  const std::string md = os.str();
  EXPECT_NE(md.find("# Experiment report"), std::string::npos);
  EXPECT_NE(md.find("## Convergence under churn"), std::string::npos);
  EXPECT_NE(md.find("## Series overview"), std::string::npos);
  EXPECT_NE(md.find("## Health before / after"), std::string::npos);
  EXPECT_NE(md.find("## Traffic totals"), std::string::npos);
  EXPECT_NE(md.find("| net.messages | 123 |"), std::string::npos);
  EXPECT_LT(md.find("| net.bytes | 7 |"), md.find("| net.messages | 123 |"));
  EXPECT_EQ(md.find("| net.messages | 5 |"), std::string::npos);
  EXPECT_EQ(md.find("sim.engine.executed"), std::string::npos);
  // Markdown tables, not CSV: header separators present.
  EXPECT_NE(md.find("|---|"), std::string::npos);
}

}  // namespace
}  // namespace p2plb
