// Tests for the observability layer (obs::Tracer, the end-of-run totals).
//
// Three groups:
//   * unit tests for the tracer primitives and sinks;
//   * golden-file tests pinning the exact JSONL output of one small
//     deterministic balancing round (tests/golden_trace.h) -- any change
//     to event ordering, field order or number formatting shows up as a
//     byte-level diff here (the Chrome trace_event view derived from it
//     is pinned in trace_analysis_test);
//   * null-tracer / tally-export tests: tracing must not perturb the
//     simulation, and the exported net.* rows must agree exactly with
//     the network's TrafficCounters.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "lb/protocol_round.h"
#include "obs/binary_trace.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "golden_trace.h"
#include "trace_capture.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace p2plb {
namespace {

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

/// The exported rows of one export, keyed (each key appears once).
std::map<std::string, double> by_key(const std::vector<obs::Sample>& rows) {
  std::map<std::string, double> out;
  for (const obs::Sample& r : rows)
    EXPECT_TRUE(out.emplace(r.key, r.value).second) << r.key;
  return out;
}

void expect_exported(const std::map<std::string, double>& rows,
                     const sim::TrafficCounters& tally,
                     const std::string& labels) {
  ASSERT_EQ(rows.count("net.messages" + labels), 1u) << labels;
  EXPECT_EQ(rows.at("net.messages" + labels),
            static_cast<double>(tally.messages));
  EXPECT_EQ(rows.at("net.bytes" + labels), tally.bytes);
  EXPECT_EQ(rows.at("net.latency_sum" + labels), tally.latency_sum);
}

sim::LatencyFn self_free_latency() {
  return [](sim::Endpoint a, sim::Endpoint b) { return a == b ? 0.0 : 1.0; };
}

/// Four sends: two under lb.vsa (one of them host-local), one under
/// ktree.maintenance, one untagged.
void send_mixed_traffic(sim::Network& net) {
  net.send(0, 1, [] {}, 100.0, 0.0, "lb.vsa");
  net.send(1, 1, [] {}, 50.0, 0.0, "lb.vsa");
  net.send(0, 2, [] {}, 10.0, 0.0, "ktree.maintenance");
  net.send(2, 0, [] {}, 8.0);  // untagged: totals only
}

// The exported rows equal the network's own per-tag tallies, each
// stamped with the engine's clock.
TEST(NetworkMetrics, RegistryMatchesLegacyCounters) {
  sim::Engine engine;
  sim::Network net(engine, self_free_latency());
  send_mixed_traffic(net);
  engine.run();

  std::vector<obs::Sample> rows;
  net.export_metrics(rows);
  for (const obs::Sample& r : rows) EXPECT_EQ(r.t, engine.now()) << r.key;
  const auto exported = by_key(rows);
  expect_exported(exported, net.totals(), "");
  expect_exported(exported, net.counters("lb.vsa"), "{tag=lb.vsa}");
  expect_exported(exported, net.counters("ktree.maintenance"),
                  "{tag=ktree.maintenance}");
  // Three totals plus three per tag: the untagged send created no tag
  // series.
  EXPECT_EQ(rows.size(), 9u);
}

// An export after more traffic appends a fresh set of rows stamped at the
// later time; the earlier rows stay as they were, so the last row of each
// key is the final tally (what the report's traffic table reads).
TEST(NetworkMetrics, AttachAfterTrafficSeedsTheRegistry) {
  sim::Engine engine;
  sim::Network net(engine, self_free_latency());
  send_mixed_traffic(net);
  engine.run();

  std::vector<obs::Sample> rows;
  net.export_metrics(rows);
  ASSERT_EQ(rows.size(), 9u);
  EXPECT_EQ(by_key(rows).at("net.messages"), 4.0);
  const double first_stamp = engine.now();

  engine.schedule_after(5.0, [] {});
  engine.run();
  net.send(0, 1, [] {}, 5.0, 0.0, "lb.vsa");
  engine.run();
  net.export_metrics(rows);
  ASSERT_EQ(rows.size(), 18u);
  const std::vector<obs::Sample> first(rows.begin(), rows.begin() + 9);
  const std::vector<obs::Sample> second(rows.begin() + 9, rows.end());
  EXPECT_EQ(first.front().t, first_stamp);
  EXPECT_GT(second.front().t, first_stamp);
  EXPECT_EQ(by_key(first).at("net.messages"), 4.0);
  const auto latest = by_key(second);
  expect_exported(latest, net.totals(), "");
  expect_exported(latest, net.counters("lb.vsa"), "{tag=lb.vsa}");
  expect_exported(latest, net.counters("ktree.maintenance"),
                  "{tag=ktree.maintenance}");
  EXPECT_EQ(latest.at("net.messages"), 5.0);
  EXPECT_EQ(latest.at("net.messages{tag=lb.vsa}"), 3.0);
}

// The --metrics file is the exported rows through the series writer:
// totals first, then each tag in first-use order, all at the end time.
TEST(Metrics, CsvExportIsCanonical) {
  sim::Engine engine;
  sim::Network net(engine, self_free_latency());
  send_mixed_traffic(net);
  engine.run();
  std::vector<obs::Sample> rows;
  net.export_metrics(rows);
  std::ostringstream os;
  obs::write_series_csv(os, rows);
  EXPECT_EQ(os.str(),
            "time,metric,value\n"
            "1,net.messages,4\n"
            "1,net.bytes,168\n"
            "1,net.latency_sum,3\n"
            "1,net.messages{tag=lb.vsa},2\n"
            "1,net.bytes{tag=lb.vsa},150\n"
            "1,net.latency_sum{tag=lb.vsa},1\n"
            "1,net.messages{tag=ktree.maintenance},1\n"
            "1,net.bytes{tag=ktree.maintenance},10\n"
            "1,net.latency_sum{tag=ktree.maintenance},1\n");
}

}  // namespace
}  // namespace p2plb
