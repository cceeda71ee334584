// Tests for the observability layer (obs::MetricsRegistry, obs::Tracer).
//
// Three groups:
//   * unit tests for the registry primitives (canonical keys, counters,
//     gauges, histograms, snapshots, exports);
//   * golden-file tests pinning the exact JSONL output of one small
//     deterministic balancing round (tests/golden_trace.h) -- any change
//     to event ordering, field order or number formatting shows up as a
//     byte-level diff here (the Chrome trace_event view derived from it
//     is pinned in trace_analysis_test);
//   * null-tracer / registry-vs-legacy tests: tracing must not perturb
//     the simulation, and the registry must agree exactly with the
//     network's legacy TrafficCounters.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "lb/protocol_round.h"
#include "obs/binary_trace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "golden_trace.h"
#include "trace_capture.h"
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
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  tr.set_sink(&sink);
  tr.begin(0.0, "lane", "span", {}, {obs::arg("k", 1)});
  tr.async_begin(0.5, "lane", "job", 7, {}, {obs::arg("s", "a\"b")});
  tr.instant(1.0, "other", "mark", {});
  tr.async_end(1.5, "lane", "job", 7, {});
  tr.end(2.0, "lane", "span", {});
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
  EXPECT_EQ(sink.events_written(), 5u);

  // With no sink, events are counted and dropped: nothing more reaches
  // the detached sink.
  tr.set_sink(nullptr);
  tr.instant(3.0, "other", "dropped", {});
  EXPECT_EQ(tr.event_count(), 6u);
  EXPECT_EQ(sink.events_written(), 5u);
}

// ---------------------------------------------------------------------------
// Golden round (tests/golden_trace.h): the pinned JSONL export.
// ---------------------------------------------------------------------------

using golden::kGoldenJsonl;
using golden::run_golden_round;
using golden::golden_ring;
using golden::GoldenRun;

TEST(TraceGolden, JsonlMatchesPinnedOutput) {
  obs::Tracer tracer;
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  tracer.set_sink(&sink);
  const GoldenRun run = run_golden_round(&tracer);
  EXPECT_EQ(run.transfers_applied, 1u);
  EXPECT_EQ(run.completion_time, 7.0);
  EXPECT_EQ(os.str(), kGoldenJsonl);
}

TEST(TraceGolden, BinaryRoundTripReproducesPinnedJsonlExactly) {
  obs::Tracer tracer;
  test::CaptureSink captured;
  tracer.set_sink(&captured);
  run_golden_round(&tracer);

  std::ostringstream encoded;
  {
    obs::BinaryTraceSink sink(encoded);
    for (const obs::TraceEvent& e : captured.events) sink.on_event(e);
    sink.flush();
    EXPECT_EQ(sink.events_encoded(), captured.events.size());
    EXPECT_EQ(sink.bytes_framed(), encoded.str().size());
  }

  std::istringstream is(encoded.str());
  EXPECT_TRUE(obs::sniff_binary_trace(is));
  std::ostringstream decoded;
  const std::uint64_t n = obs::read_binary_trace(
      is, [&decoded](const obs::TraceEvent& e) {
        obs::write_jsonl_event(decoded, e);
      });
  EXPECT_EQ(n, captured.events.size());
  EXPECT_EQ(decoded.str(), kGoldenJsonl);
  // Even this tiny trace compresses: the binary form must beat JSONL.
  EXPECT_LT(encoded.str().size(), decoded.str().size() / 2);
}

TEST(TraceGolden, StreamingJsonlSinkMatchesBufferedWriter) {
  // Streaming each event as JSONL while the round runs gives the bytes
  // of capturing the events and writing them afterwards.
  obs::Tracer captured_tracer;
  test::CaptureSink captured;
  captured_tracer.set_sink(&captured);
  run_golden_round(&captured_tracer);

  obs::Tracer tracer;
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  tracer.set_sink(&sink);
  run_golden_round(&tracer);
  sink.flush();
  EXPECT_EQ(os.str(), captured.jsonl());
  EXPECT_EQ(os.str(), kGoldenJsonl);
  EXPECT_EQ(tracer.event_count(), sink.events_written());
  EXPECT_EQ(captured.events.size(), sink.events_written());
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

  // Corrupt lengths and counts fail before anything is allocated for
  // them: a frame claiming 2^50 bytes, and (after defining string "l")
  // an integral-time instant on lane/name 0 claiming 2^60 args.
  const auto varint = [](std::uint64_t v) {
    std::string out;
    for (; v >= 0x80; v >>= 7) out.push_back(static_cast<char>(v | 0x80));
    out.push_back(static_cast<char>(v));
    return out;
  };
  const std::string head = std::string(obs::kBinaryTraceMagic) + "\xF5";
  const std::string record = std::string("\x07\x01l\x2C\x00\x00\x00", 7) +
                             varint(std::uint64_t{1} << 60) + "xy";
  const auto rejects = [](const std::string& bytes) {
    std::istringstream is(bytes);
    EXPECT_THROW(obs::read_binary_trace(is, [](const obs::TraceEvent&) {}),
                 PreconditionError);
  };
  rejects(head + varint(std::uint64_t{1} << 50) + "abc");
  rejects(head + varint(record.size()) + record);
}

TEST(TraceGolden, TransferPhaseOverlapsVsaSweep) {
  // The paper's Section 3.5 pipelining claim, read off the trace itself:
  // the first transfer span opens before the vsa span closes.
  obs::Tracer tracer;
  test::CaptureSink captured;
  tracer.set_sink(&captured);
  run_golden_round(&tracer);
  double transfer_begin = -1.0, vsa_end = -1.0;
  for (const obs::TraceEvent& e : captured.events) {
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

TEST(TraceGolden, SinkOpenerPicksFormatBySuffix) {
  const std::string jsonl_path = testing::TempDir() + "obs_trace.JSONL";
  const std::string binary_path = testing::TempDir() + "obs_trace.btrace";
  for (const std::string& path : {jsonl_path, binary_path}) {
    obs::Tracer tracer;
    const std::unique_ptr<obs::TraceSink> sink = obs::open_trace_sink(path);
    tracer.set_sink(sink.get());
    run_golden_round(&tracer);
    sink->flush();
  }
  std::ifstream jsonl(jsonl_path);
  const std::string jsonl_text((std::istreambuf_iterator<char>(jsonl)),
                               std::istreambuf_iterator<char>());
  EXPECT_EQ(jsonl_text, kGoldenJsonl);
  std::ifstream binary(binary_path, std::ios::binary);
  EXPECT_TRUE(obs::sniff_binary_trace(binary));

  // Chrome trace_event is a p2plb_trace view, not a sink: the message
  // says which suffixes work and where Chrome output comes from.
  try {
    (void)obs::open_trace_sink(testing::TempDir() + "trace.json");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(".jsonl"), std::string::npos) << what;
    EXPECT_NE(what.find(".btrace"), std::string::npos) << what;
    EXPECT_NE(what.find("p2plb_trace --in FILE.jsonl --out FILE.json"),
              std::string::npos)
        << what;
  }
  EXPECT_THROW((void)obs::open_trace_sink("/nonexistent-dir/t.jsonl"),
               PreconditionError);
  EXPECT_THROW((void)obs::open_trace_sink("/nonexistent-dir/t.btrace"),
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
