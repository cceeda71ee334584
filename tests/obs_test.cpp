// Tests for the observability layer (obs::MetricsRegistry, obs::Tracer).
//
// Three groups:
//   * unit tests for the registry primitives (canonical keys, counters,
//     gauges, histograms, snapshots, exports);
//   * golden-file tests pinning the exact JSONL and Chrome trace_event
//     output of one small deterministic balancing round -- any change to
//     event ordering, field order or number formatting shows up as a
//     byte-level diff here;
//   * null-tracer / registry-vs-legacy tests: tracing must not perturb
//     the simulation, and the registry must agree exactly with the
//     network's legacy TrafficCounters.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "lb/protocol_round.h"
#include "obs/binary_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace p2plb {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry primitives
// ---------------------------------------------------------------------------

TEST(MetricsKey, CanonicalizesLabels) {
  EXPECT_EQ(obs::MetricsRegistry::key_of("net.messages", {}), "net.messages");
  EXPECT_EQ(obs::MetricsRegistry::key_of("m", {{"tag", "lb.vsa"}}),
            "m{tag=lb.vsa}");
  // Label order at the call site never matters: keys are sorted.
  EXPECT_EQ(obs::MetricsRegistry::key_of("m", {{"b", "2"}, {"a", "1"}}),
            obs::MetricsRegistry::key_of("m", {{"a", "1"}, {"b", "2"}}));
  EXPECT_EQ(obs::MetricsRegistry::key_of("m", {{"b", "2"}, {"a", "1"}}),
            "m{a=1,b=2}");
}

TEST(MetricsKey, RejectsMalformedNamesAndLabels) {
  EXPECT_THROW((void)obs::MetricsRegistry::key_of("", {}), PreconditionError);
  EXPECT_THROW((void)obs::MetricsRegistry::key_of("m", {{"", "v"}}),
               PreconditionError);
  EXPECT_THROW(
      (void)obs::MetricsRegistry::key_of("m", {{"k", "1"}, {"k", "2"}}),
      PreconditionError);
}

TEST(Metrics, CounterMovesForwardOnly) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0.0);
  c.increment();
  c.add(2.5);
  c.add(0.0);
  EXPECT_EQ(c.value(), 3.5);
  EXPECT_THROW(c.add(-1.0), PreconditionError);
  EXPECT_EQ(c.value(), 3.5);  // failed add leaves the value untouched
}

TEST(Metrics, GaugeMovesBothWays) {
  obs::Gauge g;
  g.set(4.0);
  g.add(-1.5);
  EXPECT_EQ(g.value(), 2.5);
}

TEST(Metrics, HistogramQuantiles) {
  obs::HistogramMetric h({0.0, 10.0, 20.0});
  EXPECT_EQ(h.quantile(0.5), 0.0);  // empty -> 0
  h.observe(5.0);        // bin [0, 10), weight 1
  h.observe(15.0, 3.0);  // bin [10, 20), weight 3
  EXPECT_EQ(h.samples(), 2u);
  EXPECT_EQ(h.total_weight(), 4.0);
  // p50 target = 2: one unit through bin 0, a third into bin 1.
  EXPECT_NEAR(h.quantile(0.50), 10.0 + 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(h.quantile(0.90), 10.0 + 10.0 * (2.6 / 3.0), 1e-12);
  EXPECT_NEAR(h.quantile(1.00), 20.0, 1e-12);
}

TEST(Metrics, HistogramQuantileEdgeCases) {
  // Empty histogram: every quantile reads 0 (the "no data" convention).
  obs::HistogramMetric empty({0.0, 1.0});
  EXPECT_EQ(empty.quantile(0.0), 0.0);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.quantile(1.0), 0.0);

  // Single bucket: q interpolates linearly across the one bin, pinned to
  // its edges at q = 0 and q = 1.
  obs::HistogramMetric one({0.0, 10.0});
  one.observe(4.0, 2.0);
  EXPECT_EQ(one.quantile(0.0), 0.0);
  EXPECT_NEAR(one.quantile(0.25), 2.5, 1e-12);
  EXPECT_NEAR(one.quantile(0.5), 5.0, 1e-12);
  EXPECT_EQ(one.quantile(1.0), 10.0);

  // Exact boundary: with equal weight in [0,10) and [10,20), the median
  // target lands exactly on the shared edge and must return it (the
  // crossing bin interpolates to its full width, not past it).
  obs::HistogramMetric h({0.0, 10.0, 20.0});
  h.observe(5.0);
  h.observe(15.0);
  EXPECT_NEAR(h.quantile(0.5), 10.0, 1e-12);

  // Underflow mass is attributed to the first edge, overflow to the
  // last, so the estimate never leaves [edges.front(), edges.back()].
  obs::HistogramMetric uo({0.0, 10.0});
  uo.observe(-5.0);
  uo.observe(100.0);
  EXPECT_EQ(uo.quantile(0.25), 0.0);
  EXPECT_EQ(uo.quantile(1.0), 10.0);

  // q outside [0, 1] is a caller bug, not a clamp.
  EXPECT_THROW((void)one.quantile(-0.1), PreconditionError);
  EXPECT_THROW((void)one.quantile(1.1), PreconditionError);
}

TEST(Metrics, RegistryHandlesAreStableAndFindable) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x", {{"tag", "t"}});
  obs::Counter& b = reg.counter("x", {{"tag", "t"}});
  EXPECT_EQ(&a, &b);  // find-or-create returns the same object
  a.increment();
  const obs::Counter* found = reg.find_counter("x", {{"tag", "t"}});
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->value(), 1.0);
  EXPECT_EQ(reg.find_counter("x"), nullptr);  // different identity
  EXPECT_EQ(reg.size(), 1u);
  reg.gauge("g").set(2.0);
  reg.histogram("h", {0.0, 1.0});
  EXPECT_EQ(reg.size(), 3u);
}

TEST(Metrics, SnapshotAndDiff) {
  obs::MetricsRegistry reg;
  reg.counter("c").add(3.0);
  reg.histogram("h", {0.0, 1.0, 2.0}).observe(0.5, 2.0);
  const obs::MetricsSnapshot before = reg.snapshot();
  EXPECT_EQ(before.value("c"), 3.0);
  EXPECT_EQ(before.value("h/count"), 1.0);
  EXPECT_EQ(before.value("h/weight"), 2.0);
  EXPECT_EQ(before.value("missing"), 0.0);

  reg.counter("c").add(4.0);
  reg.counter("late").increment();  // born between the snapshots
  reg.histogram("h", {}).observe(1.5);
  const obs::MetricsSnapshot d = reg.snapshot().diff(before);
  EXPECT_EQ(d.value("c"), 4.0);
  EXPECT_EQ(d.value("late"), 1.0);
  EXPECT_EQ(d.value("h/count"), 1.0);
  EXPECT_EQ(d.value("h/weight"), 1.0);
}

TEST(Metrics, RemoveDropsTheIdentityAndSnapshotsOmitIt) {
  obs::MetricsRegistry reg;
  reg.counter("keep").add(1.0);
  reg.counter("gone", {{"tag", "x"}}).add(2.0);
  reg.gauge("g").set(3.0);
  reg.histogram("h", {0.0, 1.0}).observe(0.5);
  EXPECT_EQ(reg.size(), 4u);
  const obs::MetricsSnapshot before = reg.snapshot();
  EXPECT_EQ(before.value("gone{tag=x}"), 2.0);

  // remove() works across all three metric types, by canonical identity.
  EXPECT_TRUE(reg.remove("gone", {{"tag", "x"}}));
  EXPECT_FALSE(reg.remove("gone", {{"tag", "x"}}));  // already gone
  EXPECT_FALSE(reg.remove("never-existed"));
  EXPECT_TRUE(reg.remove("g"));
  EXPECT_TRUE(reg.remove("h"));
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.find_counter("gone", {{"tag", "x"}}), nullptr);

  // Later snapshots simply omit the removed keys...
  reg.counter("keep").add(4.0);
  const obs::MetricsSnapshot after = reg.snapshot();
  EXPECT_EQ(after.values.count("gone{tag=x}"), 0u);
  EXPECT_EQ(after.values.count("g"), 0u);
  EXPECT_EQ(after.values.count("h/count"), 0u);

  // ...so a diff spanning the removal never sees them (diff iterates the
  // newer snapshot's keys) and surviving metrics delta normally.
  const obs::MetricsSnapshot d = after.diff(before);
  EXPECT_EQ(d.value("keep"), 4.0);
  EXPECT_EQ(d.values.count("gone{tag=x}"), 0u);

  // Re-creating the identity after removal starts a fresh metric.
  EXPECT_EQ(reg.counter("gone", {{"tag", "x"}}).value(), 0.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Metrics, CsvExportIsCanonical) {
  obs::MetricsRegistry reg;
  reg.counter("msgs").add(3.0);
  reg.counter("msgs", {{"tag", "lb"}}).add(2.0);
  reg.gauge("queue.depth").set(1.5);
  obs::HistogramMetric& h = reg.histogram("dist", {0.0, 10.0, 20.0});
  h.observe(5.0);
  h.observe(15.0, 3.0);
  std::ostringstream os;
  reg.write_csv(os);
  EXPECT_EQ(os.str(),
            "metric,value\n"
            "msgs,3\n"
            "msgs{tag=lb},2\n"
            "queue.depth,1.5\n"
            "dist/count,2\n"
            "dist/weight,4\n"
            "dist/p50,13.333333\n"
            "dist/p90,18.666667\n"
            "dist/p99,19.866667\n");
}

TEST(Metrics, FileWriterWritesCsvWhateverTheSuffix) {
  obs::MetricsRegistry reg;
  reg.counter("c").increment();
  const std::string csv_path = testing::TempDir() + "obs_metrics.csv";
  const std::string txt_path = testing::TempDir() + "obs_metrics.txt";
  obs::write_metrics_file(reg, csv_path);
  obs::write_metrics_file(reg, txt_path);
  std::ifstream csv(csv_path), txt(txt_path);
  std::string csv_line, txt_line;
  ASSERT_TRUE(std::getline(csv, csv_line));
  ASSERT_TRUE(std::getline(txt, txt_line));
  EXPECT_EQ(csv_line, "metric,value");
  EXPECT_EQ(txt_line, "metric,value");  // the suffix selects nothing
  EXPECT_THROW(obs::write_metrics_file(reg, "/nonexistent-dir/m.csv"),
               PreconditionError);
}

TEST(Metrics, FileSuffixMatchIsCaseInsensitive) {
  obs::MetricsRegistry reg;
  reg.counter("c").increment();
  const std::string upper_path = testing::TempDir() + "obs_metrics_up.CSV";
  obs::write_metrics_file(reg, upper_path);
  std::ifstream csv(upper_path);
  std::string line;
  ASSERT_TRUE(std::getline(csv, line));
  EXPECT_EQ(line, "metric,value");  // CSV despite the upper-case suffix
}

TEST(Metrics, CsvQuotesLabelValuesPerRfc4180) {
  obs::MetricsRegistry reg;
  reg.counter("msgs", {{"tag", "a,b"}}).add(2.0);
  reg.gauge("g", {{"q", "\"p99\""}}).set(1.5);
  std::ostringstream os;
  reg.write_csv(os);
  // Counters export before gauges (see to_table).
  EXPECT_EQ(os.str(),
            "metric,value\n"
            "\"msgs{tag=a,b}\",2\n"
            "\"g{q=\"\"p99\"\"}\",1.5\n");
}

// ---------------------------------------------------------------------------
// Tracer primitives
// ---------------------------------------------------------------------------

TEST(Trace, JsonScalars) {
  EXPECT_EQ(obs::json_number(2.0), "2");
  EXPECT_EQ(obs::json_number(-3.0), "-3");
  EXPECT_EQ(obs::json_number(1.5), "1.5");
  EXPECT_EQ(obs::json_number(0.1234567), "0.123457");  // 6 digits, trimmed
  EXPECT_EQ(obs::json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(obs::json_string(std::string(1, '\x01')), "\"\\u0001\"");
}

TEST(Trace, JsonlFieldOrderAndLanes) {
  obs::Tracer tr;
  tr.begin(0.0, "lane", "span", {obs::arg("k", 1)});
  tr.async_begin(0.5, "lane", "job", 7, {obs::arg("s", "a\"b")});
  tr.instant(1.0, "other", "mark");
  tr.async_end(1.5, "lane", "job", 7);
  tr.end(2.0, "lane", "span");
  std::ostringstream os;
  tr.write_jsonl(os);
  EXPECT_EQ(
      os.str(),
      "{\"t\":0,\"ph\":\"B\",\"lane\":\"lane\",\"name\":\"span\","
      "\"args\":{\"k\":1}}\n"
      "{\"t\":0.5,\"ph\":\"b\",\"lane\":\"lane\",\"name\":\"job\",\"id\":7,"
      "\"args\":{\"s\":\"a\\\"b\"}}\n"
      "{\"t\":1,\"ph\":\"i\",\"lane\":\"other\",\"name\":\"mark\"}\n"
      "{\"t\":1.5,\"ph\":\"e\",\"lane\":\"lane\",\"name\":\"job\",\"id\":7}\n"
      "{\"t\":2,\"ph\":\"E\",\"lane\":\"lane\",\"name\":\"span\"}\n");
  EXPECT_EQ(tr.event_count(), 5u);
  EXPECT_EQ(tr.lanes(), (std::vector<std::string>{"lane", "other"}));
  tr.clear();
  EXPECT_EQ(tr.event_count(), 0u);
}

// ---------------------------------------------------------------------------
// Golden round: two physical nodes, three virtual servers, one transfer.
// ---------------------------------------------------------------------------

/// Node A (capacity 1) is overloaded by its 2.0-load server; node B
/// (capacity 10) has room for exactly that one.  Deterministic: fixed
/// keys, fixed seed, unit latency.
chord::Ring golden_ring() {
  chord::Ring ring;
  const auto a = ring.add_node(1.0);
  const auto b = ring.add_node(10.0);
  ring.add_virtual_server(a, 0x40000000u);
  ring.add_virtual_server(a, 0x80000000u);
  ring.add_virtual_server(b, 0xC0000000u);
  ring.set_load(0x40000000u, 2.0);
  ring.set_load(0x80000000u, 0.4);
  ring.set_load(0xC0000000u, 0.5);
  return ring;
}

struct GoldenRun {
  std::uint64_t events_executed = 0;
  std::size_t transfers_applied = 0;
  double completion_time = 0.0;
};

/// One timed round over the golden ring; `tracer` may be nullptr.
GoldenRun run_golden_round(obs::Tracer* tracer) {
  auto ring = golden_ring();
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint x, sim::Endpoint y) {
    return x == y ? 0.0 : 1.0;
  });
  if (tracer != nullptr) net.attach_tracer(tracer);
  Rng rng(7);
  lb::ProtocolRound round(net, ring, {}, rng);
  round.start();
  engine.run();
  EXPECT_TRUE(round.done());
  return GoldenRun{engine.events_executed(),
                   round.report().transfers_applied,
                   round.report().completion_time};
}

// The pinned exports.  Regenerate by running the scenario above and
// dumping write_jsonl / write_chrome_trace -- but treat any diff as a
// breaking change to the trace format first.
constexpr const char* kGoldenJsonl = R"gold({"t":0,"ph":"B","lane":"lb.round","name":"round","trace":1,"span":1,"args":{"nodes":2,"planned_transfers":1}}
{"t":0,"ph":"B","lane":"lb.aggregation","name":"aggregation","trace":1,"span":2,"parent":1}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"sweep.fold","trace":1,"parent":1,"args":{"node":1,"parent":0,"latency":0}}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"msg.send","trace":1,"span":3,"parent":1,"args":{"from":0,"to":0,"bytes":24,"latency":0}}
{"t":0,"ph":"s","lane":"lb.aggregation","name":"msg","id":3}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"sweep.fold","trace":1,"parent":1,"args":{"node":4,"parent":2,"latency":1}}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"msg.send","trace":1,"span":4,"parent":1,"args":{"from":0,"to":1,"bytes":24,"latency":1}}
{"t":0,"ph":"s","lane":"lb.aggregation","name":"msg","id":4}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"msg.send","trace":1,"span":5,"parent":1,"args":{"from":0,"to":1,"bytes":24,"latency":1}}
{"t":0,"ph":"s","lane":"lb.aggregation","name":"msg","id":5}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"msg.send","trace":1,"span":6,"parent":1,"args":{"from":1,"to":1,"bytes":24,"latency":0}}
{"t":0,"ph":"s","lane":"lb.aggregation","name":"msg","id":6}
{"t":0,"ph":"f","lane":"lb.aggregation","name":"msg","id":3}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"msg.deliver","trace":1,"span":3,"parent":1,"args":{"from":0,"to":0}}
{"t":0,"ph":"f","lane":"lb.aggregation","name":"msg","id":6}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"msg.deliver","trace":1,"span":6,"parent":1,"args":{"from":1,"to":1}}
{"t":1,"ph":"f","lane":"lb.aggregation","name":"msg","id":4}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"msg.deliver","trace":1,"span":4,"parent":1,"args":{"from":0,"to":1}}
{"t":1,"ph":"f","lane":"lb.aggregation","name":"msg","id":5}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"msg.deliver","trace":1,"span":5,"parent":1,"args":{"from":0,"to":1}}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"sweep.fold","trace":1,"parent":5,"args":{"node":3,"parent":2,"latency":0}}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"msg.send","trace":1,"span":7,"parent":5,"args":{"from":1,"to":1,"bytes":24,"latency":0}}
{"t":1,"ph":"s","lane":"lb.aggregation","name":"msg","id":7}
{"t":1,"ph":"f","lane":"lb.aggregation","name":"msg","id":7}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"msg.deliver","trace":1,"span":7,"parent":5,"args":{"from":1,"to":1}}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"sweep.fold","trace":1,"parent":7,"args":{"node":2,"parent":0,"latency":1}}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"msg.send","trace":1,"span":8,"parent":7,"args":{"from":1,"to":0,"bytes":24,"latency":1}}
{"t":1,"ph":"s","lane":"lb.aggregation","name":"msg","id":8}
{"t":2,"ph":"f","lane":"lb.aggregation","name":"msg","id":8}
{"t":2,"ph":"i","lane":"lb.aggregation","name":"msg.deliver","trace":1,"span":8,"parent":7,"args":{"from":1,"to":0}}
{"t":2,"ph":"i","lane":"lb.aggregation","name":"sweep.root_folded","trace":1,"parent":8,"args":{"messages":2,"local_hops":2}}
{"t":2,"ph":"E","lane":"lb.aggregation","name":"aggregation","trace":1,"span":2,"parent":1,"args":{"messages":6,"bytes":144}}
{"t":2,"ph":"B","lane":"lb.dissemination","name":"dissemination","trace":1,"span":9,"parent":8}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"sweep.deliver","trace":1,"parent":8,"args":{"node":0,"child":1,"latency":0}}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":10,"parent":8,"args":{"from":0,"to":0,"bytes":24,"latency":0}}
{"t":2,"ph":"s","lane":"lb.dissemination","name":"msg","id":10}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"sweep.deliver","trace":1,"parent":8,"args":{"node":0,"child":2,"latency":1}}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":11,"parent":8,"args":{"from":0,"to":1,"bytes":24,"latency":1}}
{"t":2,"ph":"s","lane":"lb.dissemination","name":"msg","id":11}
{"t":2,"ph":"f","lane":"lb.dissemination","name":"msg","id":10}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":10,"parent":8,"args":{"from":0,"to":0}}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"sweep.leaf_reached","trace":1,"parent":10,"args":{"leaf":1,"leaves_left":2}}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":12,"parent":10,"args":{"from":0,"to":0,"bytes":24,"latency":0}}
{"t":2,"ph":"s","lane":"lb.dissemination","name":"msg","id":12}
{"t":2,"ph":"f","lane":"lb.dissemination","name":"msg","id":12}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":12,"parent":10,"args":{"from":0,"to":0}}
{"t":3,"ph":"f","lane":"lb.dissemination","name":"msg","id":11}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":11,"parent":8,"args":{"from":0,"to":1}}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"sweep.deliver","trace":1,"parent":11,"args":{"node":2,"child":3,"latency":0}}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":13,"parent":11,"args":{"from":1,"to":1,"bytes":24,"latency":0}}
{"t":3,"ph":"s","lane":"lb.dissemination","name":"msg","id":13}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"sweep.deliver","trace":1,"parent":11,"args":{"node":2,"child":4,"latency":1}}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":14,"parent":11,"args":{"from":1,"to":0,"bytes":24,"latency":1}}
{"t":3,"ph":"s","lane":"lb.dissemination","name":"msg","id":14}
{"t":3,"ph":"f","lane":"lb.dissemination","name":"msg","id":13}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":13,"parent":11,"args":{"from":1,"to":1}}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"sweep.leaf_reached","trace":1,"parent":13,"args":{"leaf":3,"leaves_left":1}}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":15,"parent":13,"args":{"from":1,"to":1,"bytes":24,"latency":0}}
{"t":3,"ph":"s","lane":"lb.dissemination","name":"msg","id":15}
{"t":3,"ph":"f","lane":"lb.dissemination","name":"msg","id":15}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":15,"parent":13,"args":{"from":1,"to":1}}
{"t":4,"ph":"f","lane":"lb.dissemination","name":"msg","id":14}
{"t":4,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":14,"parent":11,"args":{"from":1,"to":0}}
{"t":4,"ph":"i","lane":"lb.dissemination","name":"sweep.leaf_reached","trace":1,"parent":14,"args":{"leaf":4,"leaves_left":0}}
{"t":4,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":16,"parent":14,"args":{"from":0,"to":0,"bytes":24,"latency":0}}
{"t":4,"ph":"s","lane":"lb.dissemination","name":"msg","id":16}
{"t":4,"ph":"f","lane":"lb.dissemination","name":"msg","id":16}
{"t":4,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":16,"parent":14,"args":{"from":0,"to":0}}
{"t":4,"ph":"E","lane":"lb.dissemination","name":"dissemination","trace":1,"span":9,"parent":8,"args":{"messages":7,"bytes":168}}
{"t":4,"ph":"B","lane":"lb.vsa","name":"vsa","trace":1,"span":17,"parent":16}
{"t":4,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":18,"parent":16,"args":{"from":0,"to":1,"bytes":32,"latency":1}}
{"t":4,"ph":"s","lane":"lb.vsa","name":"msg","id":18}
{"t":4,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":19,"parent":16,"args":{"from":0,"to":1,"bytes":32,"latency":1}}
{"t":4,"ph":"s","lane":"lb.vsa","name":"msg","id":19}
{"t":4,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":20,"parent":16,"args":{"from":1,"to":1,"bytes":32,"latency":0}}
{"t":4,"ph":"s","lane":"lb.vsa","name":"msg","id":20}
{"t":4,"ph":"f","lane":"lb.vsa","name":"msg","id":20}
{"t":4,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":20,"parent":16,"args":{"from":1,"to":1}}
{"t":5,"ph":"f","lane":"lb.vsa","name":"msg","id":18}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":18,"parent":16,"args":{"from":0,"to":1}}
{"t":5,"ph":"f","lane":"lb.vsa","name":"msg","id":19}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":19,"parent":16,"args":{"from":0,"to":1}}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":21,"parent":19,"args":{"from":1,"to":1,"bytes":32,"latency":0}}
{"t":5,"ph":"s","lane":"lb.vsa","name":"msg","id":21}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":22,"parent":19,"args":{"from":1,"to":1,"bytes":32,"latency":0}}
{"t":5,"ph":"s","lane":"lb.vsa","name":"msg","id":22}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":23,"parent":19,"args":{"from":1,"to":1,"bytes":32,"latency":0}}
{"t":5,"ph":"s","lane":"lb.vsa","name":"msg","id":23}
{"t":5,"ph":"f","lane":"lb.vsa","name":"msg","id":21}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":21,"parent":19,"args":{"from":1,"to":1}}
{"t":5,"ph":"f","lane":"lb.vsa","name":"msg","id":22}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":22,"parent":19,"args":{"from":1,"to":1}}
{"t":5,"ph":"f","lane":"lb.vsa","name":"msg","id":23}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":23,"parent":19,"args":{"from":1,"to":1}}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":24,"parent":23,"args":{"from":1,"to":0,"bytes":32,"latency":1}}
{"t":5,"ph":"s","lane":"lb.vsa","name":"msg","id":24}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":25,"parent":23,"args":{"from":1,"to":0,"bytes":32,"latency":1}}
{"t":5,"ph":"s","lane":"lb.vsa","name":"msg","id":25}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":26,"parent":23,"args":{"from":1,"to":0,"bytes":32,"latency":1}}
{"t":5,"ph":"s","lane":"lb.vsa","name":"msg","id":26}
{"t":6,"ph":"f","lane":"lb.vsa","name":"msg","id":24}
{"t":6,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":24,"parent":23,"args":{"from":1,"to":0}}
{"t":6,"ph":"f","lane":"lb.vsa","name":"msg","id":25}
{"t":6,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":25,"parent":23,"args":{"from":1,"to":0}}
{"t":6,"ph":"f","lane":"lb.vsa","name":"msg","id":26}
{"t":6,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":26,"parent":23,"args":{"from":1,"to":0}}
{"t":6,"ph":"i","lane":"lb.vsa","name":"vsa.match","trace":1,"span":27,"parent":26,"args":{"vs":1073741824,"from":0,"to":1,"load":2,"depth":0}}
{"t":6,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":28,"parent":27,"args":{"from":0,"to":0,"bytes":16,"latency":0}}
{"t":6,"ph":"s","lane":"lb.vsa","name":"msg","id":28}
{"t":6,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":29,"parent":27,"args":{"from":0,"to":1,"bytes":16,"latency":1}}
{"t":6,"ph":"s","lane":"lb.vsa","name":"msg","id":29}
{"t":6,"ph":"f","lane":"lb.vsa","name":"msg","id":28}
{"t":6,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":28,"parent":27,"args":{"from":0,"to":0}}
{"t":6,"ph":"B","lane":"lb.transfer","name":"transfer","trace":1,"span":30,"parent":28}
{"t":6,"ph":"b","lane":"lb.transfer","name":"transfer","id":1,"trace":1,"span":31,"parent":28,"args":{"vs":1073741824,"from":0,"to":1,"load":2}}
{"t":6,"ph":"i","lane":"lb.transfer","name":"msg.send","trace":1,"span":32,"parent":31,"args":{"from":0,"to":1,"bytes":2,"latency":1}}
{"t":6,"ph":"s","lane":"lb.transfer","name":"msg","id":32}
{"t":7,"ph":"f","lane":"lb.vsa","name":"msg","id":29}
{"t":7,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":29,"parent":27,"args":{"from":0,"to":1}}
{"t":7,"ph":"E","lane":"lb.vsa","name":"vsa","trace":1,"span":17,"parent":16,"args":{"messages":11,"bytes":320}}
{"t":7,"ph":"f","lane":"lb.transfer","name":"msg","id":32}
{"t":7,"ph":"i","lane":"lb.transfer","name":"msg.deliver","trace":1,"span":32,"parent":31,"args":{"from":0,"to":1}}
{"t":7,"ph":"e","lane":"lb.transfer","name":"transfer","id":1,"trace":1,"span":31,"parent":28,"args":{"applied":1}}
{"t":7,"ph":"E","lane":"lb.transfer","name":"transfer","trace":1,"span":30,"parent":28,"args":{"messages":1,"applied":1}}
{"t":7,"ph":"E","lane":"lb.round","name":"round","trace":1,"span":1,"args":{"transfers_applied":1,"completion_time":7}}
)gold";

constexpr const char* kGoldenChrome = R"gold({"traceEvents":[
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"p2plb"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"lb.round"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":0,"args":{"sort_index":0}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"lb.aggregation"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":1,"args":{"sort_index":1}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"lb.dissemination"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":2,"args":{"sort_index":2}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"lb.vsa"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":3,"args":{"sort_index":3}},
{"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"lb.transfer"}},
{"name":"thread_sort_index","ph":"M","pid":1,"tid":4,"args":{"sort_index":4}},
{"name":"round","cat":"lb.round","ph":"B","ts":0,"pid":1,"tid":0,"args":{"nodes":2,"planned_transfers":1,"trace":1,"span":1}},
{"name":"aggregation","cat":"lb.aggregation","ph":"B","ts":0,"pid":1,"tid":1,"args":{"trace":1,"span":2,"parent":1}},
{"name":"sweep.fold","cat":"lb.aggregation","ph":"i","ts":0,"pid":1,"tid":1,"s":"t","args":{"node":1,"parent":0,"latency":0,"trace":1,"parent":1}},
{"name":"msg.send","cat":"lb.aggregation","ph":"i","ts":0,"pid":1,"tid":1,"s":"t","args":{"from":0,"to":0,"bytes":24,"latency":0,"trace":1,"span":3,"parent":1}},
{"name":"msg","cat":"lb.aggregation","ph":"s","ts":0,"pid":1,"tid":1,"id":3},
{"name":"sweep.fold","cat":"lb.aggregation","ph":"i","ts":0,"pid":1,"tid":1,"s":"t","args":{"node":4,"parent":2,"latency":1,"trace":1,"parent":1}},
{"name":"msg.send","cat":"lb.aggregation","ph":"i","ts":0,"pid":1,"tid":1,"s":"t","args":{"from":0,"to":1,"bytes":24,"latency":1,"trace":1,"span":4,"parent":1}},
{"name":"msg","cat":"lb.aggregation","ph":"s","ts":0,"pid":1,"tid":1,"id":4},
{"name":"msg.send","cat":"lb.aggregation","ph":"i","ts":0,"pid":1,"tid":1,"s":"t","args":{"from":0,"to":1,"bytes":24,"latency":1,"trace":1,"span":5,"parent":1}},
{"name":"msg","cat":"lb.aggregation","ph":"s","ts":0,"pid":1,"tid":1,"id":5},
{"name":"msg.send","cat":"lb.aggregation","ph":"i","ts":0,"pid":1,"tid":1,"s":"t","args":{"from":1,"to":1,"bytes":24,"latency":0,"trace":1,"span":6,"parent":1}},
{"name":"msg","cat":"lb.aggregation","ph":"s","ts":0,"pid":1,"tid":1,"id":6},
{"name":"msg","cat":"lb.aggregation","ph":"f","ts":0,"pid":1,"tid":1,"id":3,"bp":"e"},
{"name":"msg.deliver","cat":"lb.aggregation","ph":"i","ts":0,"pid":1,"tid":1,"s":"t","args":{"from":0,"to":0,"trace":1,"span":3,"parent":1}},
{"name":"msg","cat":"lb.aggregation","ph":"f","ts":0,"pid":1,"tid":1,"id":6,"bp":"e"},
{"name":"msg.deliver","cat":"lb.aggregation","ph":"i","ts":0,"pid":1,"tid":1,"s":"t","args":{"from":1,"to":1,"trace":1,"span":6,"parent":1}},
{"name":"msg","cat":"lb.aggregation","ph":"f","ts":1000,"pid":1,"tid":1,"id":4,"bp":"e"},
{"name":"msg.deliver","cat":"lb.aggregation","ph":"i","ts":1000,"pid":1,"tid":1,"s":"t","args":{"from":0,"to":1,"trace":1,"span":4,"parent":1}},
{"name":"msg","cat":"lb.aggregation","ph":"f","ts":1000,"pid":1,"tid":1,"id":5,"bp":"e"},
{"name":"msg.deliver","cat":"lb.aggregation","ph":"i","ts":1000,"pid":1,"tid":1,"s":"t","args":{"from":0,"to":1,"trace":1,"span":5,"parent":1}},
{"name":"sweep.fold","cat":"lb.aggregation","ph":"i","ts":1000,"pid":1,"tid":1,"s":"t","args":{"node":3,"parent":2,"latency":0,"trace":1,"parent":5}},
{"name":"msg.send","cat":"lb.aggregation","ph":"i","ts":1000,"pid":1,"tid":1,"s":"t","args":{"from":1,"to":1,"bytes":24,"latency":0,"trace":1,"span":7,"parent":5}},
{"name":"msg","cat":"lb.aggregation","ph":"s","ts":1000,"pid":1,"tid":1,"id":7},
{"name":"msg","cat":"lb.aggregation","ph":"f","ts":1000,"pid":1,"tid":1,"id":7,"bp":"e"},
{"name":"msg.deliver","cat":"lb.aggregation","ph":"i","ts":1000,"pid":1,"tid":1,"s":"t","args":{"from":1,"to":1,"trace":1,"span":7,"parent":5}},
{"name":"sweep.fold","cat":"lb.aggregation","ph":"i","ts":1000,"pid":1,"tid":1,"s":"t","args":{"node":2,"parent":0,"latency":1,"trace":1,"parent":7}},
{"name":"msg.send","cat":"lb.aggregation","ph":"i","ts":1000,"pid":1,"tid":1,"s":"t","args":{"from":1,"to":0,"bytes":24,"latency":1,"trace":1,"span":8,"parent":7}},
{"name":"msg","cat":"lb.aggregation","ph":"s","ts":1000,"pid":1,"tid":1,"id":8},
{"name":"msg","cat":"lb.aggregation","ph":"f","ts":2000,"pid":1,"tid":1,"id":8,"bp":"e"},
{"name":"msg.deliver","cat":"lb.aggregation","ph":"i","ts":2000,"pid":1,"tid":1,"s":"t","args":{"from":1,"to":0,"trace":1,"span":8,"parent":7}},
{"name":"sweep.root_folded","cat":"lb.aggregation","ph":"i","ts":2000,"pid":1,"tid":1,"s":"t","args":{"messages":2,"local_hops":2,"trace":1,"parent":8}},
{"name":"aggregation","cat":"lb.aggregation","ph":"E","ts":2000,"pid":1,"tid":1,"args":{"messages":6,"bytes":144,"trace":1,"span":2,"parent":1}},
{"name":"dissemination","cat":"lb.dissemination","ph":"B","ts":2000,"pid":1,"tid":2,"args":{"trace":1,"span":9,"parent":8}},
{"name":"sweep.deliver","cat":"lb.dissemination","ph":"i","ts":2000,"pid":1,"tid":2,"s":"t","args":{"node":0,"child":1,"latency":0,"trace":1,"parent":8}},
{"name":"msg.send","cat":"lb.dissemination","ph":"i","ts":2000,"pid":1,"tid":2,"s":"t","args":{"from":0,"to":0,"bytes":24,"latency":0,"trace":1,"span":10,"parent":8}},
{"name":"msg","cat":"lb.dissemination","ph":"s","ts":2000,"pid":1,"tid":2,"id":10},
{"name":"sweep.deliver","cat":"lb.dissemination","ph":"i","ts":2000,"pid":1,"tid":2,"s":"t","args":{"node":0,"child":2,"latency":1,"trace":1,"parent":8}},
{"name":"msg.send","cat":"lb.dissemination","ph":"i","ts":2000,"pid":1,"tid":2,"s":"t","args":{"from":0,"to":1,"bytes":24,"latency":1,"trace":1,"span":11,"parent":8}},
{"name":"msg","cat":"lb.dissemination","ph":"s","ts":2000,"pid":1,"tid":2,"id":11},
{"name":"msg","cat":"lb.dissemination","ph":"f","ts":2000,"pid":1,"tid":2,"id":10,"bp":"e"},
{"name":"msg.deliver","cat":"lb.dissemination","ph":"i","ts":2000,"pid":1,"tid":2,"s":"t","args":{"from":0,"to":0,"trace":1,"span":10,"parent":8}},
{"name":"sweep.leaf_reached","cat":"lb.dissemination","ph":"i","ts":2000,"pid":1,"tid":2,"s":"t","args":{"leaf":1,"leaves_left":2,"trace":1,"parent":10}},
{"name":"msg.send","cat":"lb.dissemination","ph":"i","ts":2000,"pid":1,"tid":2,"s":"t","args":{"from":0,"to":0,"bytes":24,"latency":0,"trace":1,"span":12,"parent":10}},
{"name":"msg","cat":"lb.dissemination","ph":"s","ts":2000,"pid":1,"tid":2,"id":12},
{"name":"msg","cat":"lb.dissemination","ph":"f","ts":2000,"pid":1,"tid":2,"id":12,"bp":"e"},
{"name":"msg.deliver","cat":"lb.dissemination","ph":"i","ts":2000,"pid":1,"tid":2,"s":"t","args":{"from":0,"to":0,"trace":1,"span":12,"parent":10}},
{"name":"msg","cat":"lb.dissemination","ph":"f","ts":3000,"pid":1,"tid":2,"id":11,"bp":"e"},
{"name":"msg.deliver","cat":"lb.dissemination","ph":"i","ts":3000,"pid":1,"tid":2,"s":"t","args":{"from":0,"to":1,"trace":1,"span":11,"parent":8}},
{"name":"sweep.deliver","cat":"lb.dissemination","ph":"i","ts":3000,"pid":1,"tid":2,"s":"t","args":{"node":2,"child":3,"latency":0,"trace":1,"parent":11}},
{"name":"msg.send","cat":"lb.dissemination","ph":"i","ts":3000,"pid":1,"tid":2,"s":"t","args":{"from":1,"to":1,"bytes":24,"latency":0,"trace":1,"span":13,"parent":11}},
{"name":"msg","cat":"lb.dissemination","ph":"s","ts":3000,"pid":1,"tid":2,"id":13},
{"name":"sweep.deliver","cat":"lb.dissemination","ph":"i","ts":3000,"pid":1,"tid":2,"s":"t","args":{"node":2,"child":4,"latency":1,"trace":1,"parent":11}},
{"name":"msg.send","cat":"lb.dissemination","ph":"i","ts":3000,"pid":1,"tid":2,"s":"t","args":{"from":1,"to":0,"bytes":24,"latency":1,"trace":1,"span":14,"parent":11}},
{"name":"msg","cat":"lb.dissemination","ph":"s","ts":3000,"pid":1,"tid":2,"id":14},
{"name":"msg","cat":"lb.dissemination","ph":"f","ts":3000,"pid":1,"tid":2,"id":13,"bp":"e"},
{"name":"msg.deliver","cat":"lb.dissemination","ph":"i","ts":3000,"pid":1,"tid":2,"s":"t","args":{"from":1,"to":1,"trace":1,"span":13,"parent":11}},
{"name":"sweep.leaf_reached","cat":"lb.dissemination","ph":"i","ts":3000,"pid":1,"tid":2,"s":"t","args":{"leaf":3,"leaves_left":1,"trace":1,"parent":13}},
{"name":"msg.send","cat":"lb.dissemination","ph":"i","ts":3000,"pid":1,"tid":2,"s":"t","args":{"from":1,"to":1,"bytes":24,"latency":0,"trace":1,"span":15,"parent":13}},
{"name":"msg","cat":"lb.dissemination","ph":"s","ts":3000,"pid":1,"tid":2,"id":15},
{"name":"msg","cat":"lb.dissemination","ph":"f","ts":3000,"pid":1,"tid":2,"id":15,"bp":"e"},
{"name":"msg.deliver","cat":"lb.dissemination","ph":"i","ts":3000,"pid":1,"tid":2,"s":"t","args":{"from":1,"to":1,"trace":1,"span":15,"parent":13}},
{"name":"msg","cat":"lb.dissemination","ph":"f","ts":4000,"pid":1,"tid":2,"id":14,"bp":"e"},
{"name":"msg.deliver","cat":"lb.dissemination","ph":"i","ts":4000,"pid":1,"tid":2,"s":"t","args":{"from":1,"to":0,"trace":1,"span":14,"parent":11}},
{"name":"sweep.leaf_reached","cat":"lb.dissemination","ph":"i","ts":4000,"pid":1,"tid":2,"s":"t","args":{"leaf":4,"leaves_left":0,"trace":1,"parent":14}},
{"name":"msg.send","cat":"lb.dissemination","ph":"i","ts":4000,"pid":1,"tid":2,"s":"t","args":{"from":0,"to":0,"bytes":24,"latency":0,"trace":1,"span":16,"parent":14}},
{"name":"msg","cat":"lb.dissemination","ph":"s","ts":4000,"pid":1,"tid":2,"id":16},
{"name":"msg","cat":"lb.dissemination","ph":"f","ts":4000,"pid":1,"tid":2,"id":16,"bp":"e"},
{"name":"msg.deliver","cat":"lb.dissemination","ph":"i","ts":4000,"pid":1,"tid":2,"s":"t","args":{"from":0,"to":0,"trace":1,"span":16,"parent":14}},
{"name":"dissemination","cat":"lb.dissemination","ph":"E","ts":4000,"pid":1,"tid":2,"args":{"messages":7,"bytes":168,"trace":1,"span":9,"parent":8}},
{"name":"vsa","cat":"lb.vsa","ph":"B","ts":4000,"pid":1,"tid":3,"args":{"trace":1,"span":17,"parent":16}},
{"name":"msg.send","cat":"lb.vsa","ph":"i","ts":4000,"pid":1,"tid":3,"s":"t","args":{"from":0,"to":1,"bytes":32,"latency":1,"trace":1,"span":18,"parent":16}},
{"name":"msg","cat":"lb.vsa","ph":"s","ts":4000,"pid":1,"tid":3,"id":18},
{"name":"msg.send","cat":"lb.vsa","ph":"i","ts":4000,"pid":1,"tid":3,"s":"t","args":{"from":0,"to":1,"bytes":32,"latency":1,"trace":1,"span":19,"parent":16}},
{"name":"msg","cat":"lb.vsa","ph":"s","ts":4000,"pid":1,"tid":3,"id":19},
{"name":"msg.send","cat":"lb.vsa","ph":"i","ts":4000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":1,"bytes":32,"latency":0,"trace":1,"span":20,"parent":16}},
{"name":"msg","cat":"lb.vsa","ph":"s","ts":4000,"pid":1,"tid":3,"id":20},
{"name":"msg","cat":"lb.vsa","ph":"f","ts":4000,"pid":1,"tid":3,"id":20,"bp":"e"},
{"name":"msg.deliver","cat":"lb.vsa","ph":"i","ts":4000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":1,"trace":1,"span":20,"parent":16}},
{"name":"msg","cat":"lb.vsa","ph":"f","ts":5000,"pid":1,"tid":3,"id":18,"bp":"e"},
{"name":"msg.deliver","cat":"lb.vsa","ph":"i","ts":5000,"pid":1,"tid":3,"s":"t","args":{"from":0,"to":1,"trace":1,"span":18,"parent":16}},
{"name":"msg","cat":"lb.vsa","ph":"f","ts":5000,"pid":1,"tid":3,"id":19,"bp":"e"},
{"name":"msg.deliver","cat":"lb.vsa","ph":"i","ts":5000,"pid":1,"tid":3,"s":"t","args":{"from":0,"to":1,"trace":1,"span":19,"parent":16}},
{"name":"msg.send","cat":"lb.vsa","ph":"i","ts":5000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":1,"bytes":32,"latency":0,"trace":1,"span":21,"parent":19}},
{"name":"msg","cat":"lb.vsa","ph":"s","ts":5000,"pid":1,"tid":3,"id":21},
{"name":"msg.send","cat":"lb.vsa","ph":"i","ts":5000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":1,"bytes":32,"latency":0,"trace":1,"span":22,"parent":19}},
{"name":"msg","cat":"lb.vsa","ph":"s","ts":5000,"pid":1,"tid":3,"id":22},
{"name":"msg.send","cat":"lb.vsa","ph":"i","ts":5000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":1,"bytes":32,"latency":0,"trace":1,"span":23,"parent":19}},
{"name":"msg","cat":"lb.vsa","ph":"s","ts":5000,"pid":1,"tid":3,"id":23},
{"name":"msg","cat":"lb.vsa","ph":"f","ts":5000,"pid":1,"tid":3,"id":21,"bp":"e"},
{"name":"msg.deliver","cat":"lb.vsa","ph":"i","ts":5000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":1,"trace":1,"span":21,"parent":19}},
{"name":"msg","cat":"lb.vsa","ph":"f","ts":5000,"pid":1,"tid":3,"id":22,"bp":"e"},
{"name":"msg.deliver","cat":"lb.vsa","ph":"i","ts":5000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":1,"trace":1,"span":22,"parent":19}},
{"name":"msg","cat":"lb.vsa","ph":"f","ts":5000,"pid":1,"tid":3,"id":23,"bp":"e"},
{"name":"msg.deliver","cat":"lb.vsa","ph":"i","ts":5000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":1,"trace":1,"span":23,"parent":19}},
{"name":"msg.send","cat":"lb.vsa","ph":"i","ts":5000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":0,"bytes":32,"latency":1,"trace":1,"span":24,"parent":23}},
{"name":"msg","cat":"lb.vsa","ph":"s","ts":5000,"pid":1,"tid":3,"id":24},
{"name":"msg.send","cat":"lb.vsa","ph":"i","ts":5000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":0,"bytes":32,"latency":1,"trace":1,"span":25,"parent":23}},
{"name":"msg","cat":"lb.vsa","ph":"s","ts":5000,"pid":1,"tid":3,"id":25},
{"name":"msg.send","cat":"lb.vsa","ph":"i","ts":5000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":0,"bytes":32,"latency":1,"trace":1,"span":26,"parent":23}},
{"name":"msg","cat":"lb.vsa","ph":"s","ts":5000,"pid":1,"tid":3,"id":26},
{"name":"msg","cat":"lb.vsa","ph":"f","ts":6000,"pid":1,"tid":3,"id":24,"bp":"e"},
{"name":"msg.deliver","cat":"lb.vsa","ph":"i","ts":6000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":0,"trace":1,"span":24,"parent":23}},
{"name":"msg","cat":"lb.vsa","ph":"f","ts":6000,"pid":1,"tid":3,"id":25,"bp":"e"},
{"name":"msg.deliver","cat":"lb.vsa","ph":"i","ts":6000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":0,"trace":1,"span":25,"parent":23}},
{"name":"msg","cat":"lb.vsa","ph":"f","ts":6000,"pid":1,"tid":3,"id":26,"bp":"e"},
{"name":"msg.deliver","cat":"lb.vsa","ph":"i","ts":6000,"pid":1,"tid":3,"s":"t","args":{"from":1,"to":0,"trace":1,"span":26,"parent":23}},
{"name":"vsa.match","cat":"lb.vsa","ph":"i","ts":6000,"pid":1,"tid":3,"s":"t","args":{"vs":1073741824,"from":0,"to":1,"load":2,"depth":0,"trace":1,"span":27,"parent":26}},
{"name":"msg.send","cat":"lb.vsa","ph":"i","ts":6000,"pid":1,"tid":3,"s":"t","args":{"from":0,"to":0,"bytes":16,"latency":0,"trace":1,"span":28,"parent":27}},
{"name":"msg","cat":"lb.vsa","ph":"s","ts":6000,"pid":1,"tid":3,"id":28},
{"name":"msg.send","cat":"lb.vsa","ph":"i","ts":6000,"pid":1,"tid":3,"s":"t","args":{"from":0,"to":1,"bytes":16,"latency":1,"trace":1,"span":29,"parent":27}},
{"name":"msg","cat":"lb.vsa","ph":"s","ts":6000,"pid":1,"tid":3,"id":29},
{"name":"msg","cat":"lb.vsa","ph":"f","ts":6000,"pid":1,"tid":3,"id":28,"bp":"e"},
{"name":"msg.deliver","cat":"lb.vsa","ph":"i","ts":6000,"pid":1,"tid":3,"s":"t","args":{"from":0,"to":0,"trace":1,"span":28,"parent":27}},
{"name":"transfer","cat":"lb.transfer","ph":"B","ts":6000,"pid":1,"tid":4,"args":{"trace":1,"span":30,"parent":28}},
{"name":"transfer","cat":"lb.transfer","ph":"b","ts":6000,"pid":1,"tid":4,"id":1,"args":{"vs":1073741824,"from":0,"to":1,"load":2,"trace":1,"span":31,"parent":28}},
{"name":"msg.send","cat":"lb.transfer","ph":"i","ts":6000,"pid":1,"tid":4,"s":"t","args":{"from":0,"to":1,"bytes":2,"latency":1,"trace":1,"span":32,"parent":31}},
{"name":"msg","cat":"lb.transfer","ph":"s","ts":6000,"pid":1,"tid":4,"id":32},
{"name":"msg","cat":"lb.vsa","ph":"f","ts":7000,"pid":1,"tid":3,"id":29,"bp":"e"},
{"name":"msg.deliver","cat":"lb.vsa","ph":"i","ts":7000,"pid":1,"tid":3,"s":"t","args":{"from":0,"to":1,"trace":1,"span":29,"parent":27}},
{"name":"vsa","cat":"lb.vsa","ph":"E","ts":7000,"pid":1,"tid":3,"args":{"messages":11,"bytes":320,"trace":1,"span":17,"parent":16}},
{"name":"msg","cat":"lb.transfer","ph":"f","ts":7000,"pid":1,"tid":4,"id":32,"bp":"e"},
{"name":"msg.deliver","cat":"lb.transfer","ph":"i","ts":7000,"pid":1,"tid":4,"s":"t","args":{"from":0,"to":1,"trace":1,"span":32,"parent":31}},
{"name":"transfer","cat":"lb.transfer","ph":"e","ts":7000,"pid":1,"tid":4,"id":1,"args":{"applied":1,"trace":1,"span":31,"parent":28}},
{"name":"transfer","cat":"lb.transfer","ph":"E","ts":7000,"pid":1,"tid":4,"args":{"messages":1,"applied":1,"trace":1,"span":30,"parent":28}},
{"name":"round","cat":"lb.round","ph":"E","ts":7000,"pid":1,"tid":0,"args":{"transfers_applied":1,"completion_time":7,"trace":1,"span":1}}
],"displayTimeUnit":"ms"}
)gold";

TEST(TraceGolden, JsonlMatchesPinnedOutput) {
  obs::Tracer tracer;
  const GoldenRun run = run_golden_round(&tracer);
  EXPECT_EQ(run.transfers_applied, 1u);
  EXPECT_EQ(run.completion_time, 7.0);
  std::ostringstream os;
  tracer.write_jsonl(os);
  EXPECT_EQ(os.str(), kGoldenJsonl);
}

TEST(TraceGolden, BinaryRoundTripReproducesPinnedJsonlExactly) {
  obs::Tracer tracer;
  run_golden_round(&tracer);

  std::ostringstream encoded;
  {
    obs::BinaryTraceSink sink(encoded);
    for (const obs::TraceEvent& e : tracer.events()) sink.on_event(e);
    sink.flush();
    EXPECT_EQ(sink.events_encoded(), tracer.events().size());
    EXPECT_EQ(sink.bytes_framed(), encoded.str().size());
  }

  std::istringstream is(encoded.str());
  EXPECT_TRUE(obs::sniff_binary_trace(is));
  std::ostringstream decoded;
  const std::uint64_t n = obs::read_binary_trace(
      is, [&decoded](const obs::TraceEvent& e) {
        obs::write_jsonl_event(decoded, e);
      });
  EXPECT_EQ(n, tracer.events().size());
  EXPECT_EQ(decoded.str(), kGoldenJsonl);
  // Even this tiny trace compresses: the binary form must beat JSONL.
  EXPECT_LT(encoded.str().size(), decoded.str().size() / 2);
}

TEST(TraceGolden, StreamingJsonlSinkMatchesBufferedWriter) {
  // A sink attached before the round sees the identical byte stream the
  // buffered exporter produces, while the tracer itself retains nothing.
  obs::Tracer tracer;
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  tracer.set_sink(&sink);
  run_golden_round(&tracer);
  sink.flush();
  EXPECT_EQ(os.str(), kGoldenJsonl);
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.event_count(), sink.events_written());
  EXPECT_GT(sink.events_written(), 0u);
}

TEST(TraceBinary, DecoderRejectsBadMagicAndBadFrames) {
  std::istringstream not_binary("{\"t\":0}\n");
  EXPECT_FALSE(obs::sniff_binary_trace(not_binary));
  // The sniff seeks back: the stream is still readable from the start.
  std::string first;
  EXPECT_TRUE(static_cast<bool>(std::getline(not_binary, first)));
  EXPECT_EQ(first, "{\"t\":0}");
  std::istringstream bad_magic("notatrace");
  EXPECT_THROW(obs::read_binary_trace(bad_magic, [](const obs::TraceEvent&) {}),
               PreconditionError);
  std::istringstream bad_frame(std::string(obs::kBinaryTraceMagic) + "\x01");
  EXPECT_THROW(obs::read_binary_trace(bad_frame, [](const obs::TraceEvent&) {}),
               PreconditionError);
}

TEST(TraceGolden, ChromeTraceMatchesPinnedOutput) {
  obs::Tracer tracer;
  run_golden_round(&tracer);
  EXPECT_EQ(tracer.lanes(),
            (std::vector<std::string>{"lb.round", "lb.aggregation",
                                      "lb.dissemination", "lb.vsa",
                                      "lb.transfer"}));
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  EXPECT_EQ(os.str(), kGoldenChrome);
}

TEST(TraceGolden, TransferPhaseOverlapsVsaSweep) {
  // The paper's Section 3.5 pipelining claim, read off the trace itself:
  // the first transfer span opens before the vsa span closes.
  obs::Tracer tracer;
  run_golden_round(&tracer);
  double transfer_begin = -1.0, vsa_end = -1.0;
  for (const obs::TraceEvent& e : tracer.events()) {
    if (e.lane == "lb.transfer" && e.kind == obs::EventKind::kAsyncBegin &&
        transfer_begin < 0.0)
      transfer_begin = e.time;
    if (e.lane == "lb.vsa" && e.kind == obs::EventKind::kEnd) vsa_end = e.time;
  }
  ASSERT_GE(transfer_begin, 0.0);
  ASSERT_GE(vsa_end, 0.0);
  EXPECT_LT(transfer_begin, vsa_end);
}

TEST(TraceGolden, NullTracerDoesNotPerturbTheRound) {
  obs::Tracer tracer;
  const GoldenRun traced = run_golden_round(&tracer);
  const GoldenRun untraced = run_golden_round(nullptr);
  // The deliver hook wraps callbacks inside existing engine events, so an
  // untraced run executes the identical schedule and reaches the identical
  // outcome.
  EXPECT_EQ(traced.events_executed, untraced.events_executed);
  EXPECT_EQ(traced.transfers_applied, untraced.transfers_applied);
  EXPECT_EQ(traced.completion_time, untraced.completion_time);
  EXPECT_GT(tracer.event_count(), 0u);
  EXPECT_GT(tracer.ids_allocated(), 0u);
  tracer.clear();
  EXPECT_EQ(tracer.ids_allocated(), 0u);

  // Zero-cost when off: a tracer detached before the round runs is never
  // consulted -- no events recorded and no trace/span ids allocated, and
  // the engine executes the untraced schedule exactly.
  auto ring = golden_ring();
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint x, sim::Endpoint y) {
    return x == y ? 0.0 : 1.0;
  });
  obs::Tracer detached;
  net.attach_tracer(&detached);
  net.attach_tracer(nullptr);
  Rng rng(7);
  lb::ProtocolRound round(net, ring, {}, rng);
  round.start();
  engine.run();
  EXPECT_EQ(engine.events_executed(), untraced.events_executed);
  EXPECT_EQ(detached.event_count(), 0u);
  EXPECT_EQ(detached.ids_allocated(), 0u);
}

TEST(TraceGolden, FileWriterPicksFormatBySuffix) {
  obs::Tracer tracer;
  run_golden_round(&tracer);
  const std::string jsonl_path = testing::TempDir() + "obs_trace.jsonl";
  const std::string chrome_path = testing::TempDir() + "obs_trace.json";
  obs::write_trace_file(tracer, jsonl_path);
  obs::write_trace_file(tracer, chrome_path);
  std::ifstream jsonl(jsonl_path), chrome(chrome_path);
  std::string jsonl_line, chrome_line;
  ASSERT_TRUE(std::getline(jsonl, jsonl_line));
  ASSERT_TRUE(std::getline(chrome, chrome_line));
  EXPECT_EQ(jsonl_line.substr(0, 6), "{\"t\":0");
  EXPECT_EQ(chrome_line, "{\"traceEvents\":[");
  EXPECT_THROW(obs::write_trace_file(tracer, "/nonexistent-dir/t.json"),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Network tally export
// ---------------------------------------------------------------------------

void expect_exported(const obs::MetricsSnapshot& snap,
                     const sim::TrafficCounters& tally,
                     const obs::Labels& labels) {
  const auto key = [&labels](std::string_view name) {
    return obs::MetricsRegistry::key_of(name, labels);
  };
  ASSERT_EQ(snap.values.count(key("net.messages")), 1u) << key("net.messages");
  EXPECT_EQ(snap.value(key("net.messages")),
            static_cast<double>(tally.messages));
  EXPECT_EQ(snap.value(key("net.bytes")), tally.bytes);
  EXPECT_EQ(snap.value(key("net.latency_sum")), tally.latency_sum);
}

sim::LatencyFn self_free_latency() {
  return [](sim::Endpoint a, sim::Endpoint b) { return a == b ? 0.0 : 1.0; };
}

// The exported registry rows equal the network's own per-tag tallies.
TEST(NetworkMetrics, RegistryMatchesLegacyCounters) {
  sim::Engine engine;
  sim::Network net(engine, self_free_latency());
  net.send(0, 1, [] {}, 100.0, 0.0, "lb.vsa");
  net.send(1, 1, [] {}, 50.0, 0.0, "lb.vsa");
  net.send(0, 2, [] {}, 10.0, 0.0, "ktree.maintenance");
  net.send(2, 0, [] {}, 8.0);  // untagged: totals only
  engine.run();

  obs::MetricsRegistry reg;
  net.export_metrics(reg);
  const obs::MetricsSnapshot snap = reg.snapshot();
  expect_exported(snap, net.totals(), {});
  expect_exported(snap, net.counters("lb.vsa"), {{"tag", "lb.vsa"}});
  expect_exported(snap, net.counters("ktree.maintenance"),
                  {{"tag", "ktree.maintenance"}});
  // Three totals plus three per tag: the untagged send created no tag
  // series.
  EXPECT_EQ(snap.values.size(), 9u);
}

// A registry exported into after traffic starts equal to the tallies, not
// at zero, and a later export overwrites it (gauges are set, not added to).
TEST(NetworkMetrics, AttachAfterTrafficSeedsTheRegistry) {
  sim::Engine engine;
  sim::Network net(engine, self_free_latency());
  net.send(0, 1, [] {}, 100.0, 0.0, "lb.vsa");
  net.send(1, 1, [] {}, 50.0, 0.0, "lb.vsa");
  net.send(0, 2, [] {}, 10.0, 0.0, "ktree.maintenance");
  net.send(2, 0, [] {}, 8.0);
  engine.run();

  obs::MetricsRegistry reg;
  net.export_metrics(reg);
  obs::MetricsSnapshot snap = reg.snapshot();
  expect_exported(snap, net.totals(), {});
  expect_exported(snap, net.counters("lb.vsa"), {{"tag", "lb.vsa"}});
  EXPECT_EQ(snap.value("net.messages"), 4.0);

  net.send(0, 1, [] {}, 5.0, 0.0, "lb.vsa");
  engine.run();
  net.export_metrics(reg);
  snap = reg.snapshot();
  expect_exported(snap, net.totals(), {});
  expect_exported(snap, net.counters("lb.vsa"), {{"tag", "lb.vsa"}});
  expect_exported(snap, net.counters("ktree.maintenance"),
                  {{"tag", "ktree.maintenance"}});
  EXPECT_EQ(snap.value("net.messages"), 5.0);
  EXPECT_EQ(snap.value("net.messages{tag=lb.vsa}"), 3.0);
}

}  // namespace
}  // namespace p2plb
