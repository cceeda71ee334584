// Tests for the causal-trace analyzer (tools/trace).
//
// The golden half pins the full analysis of the deterministic 2-node
// round also pinned by obs_test (tests/golden_trace.h): exact critical
// path, exact per-phase hop-depth histograms, perfect connectivity, the
// reader's byte-exact JSONL round trip and the Chrome trace_event view.
// The property half runs timed rounds over seeded random rings and
// checks the invariants the analyzer is supposed to certify: the
// reconstructed critical path ends exactly BalanceReport::completion_time
// after the round begins, and every span connects to the round root.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "golden_trace.h"
#include "lb/protocol_round.h"
#include "obs/binary_trace.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "trace_analysis.h"
#include "trace_capture.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace p2plb {
namespace {

using golden::golden_ring;

/// Every event of the trace in `is`, through the one reader.
std::vector<obs::TraceEvent> read_all(std::istream& is) {
  std::vector<obs::TraceEvent> events;
  tracetool::read_trace(
      is, [&events](const obs::TraceEvent& e) { events.push_back(e); });
  return events;
}

/// Run one traced timed round over `ring`; returns the analyzer's view
/// of the JSONL the tracer wrote, plus the round's own report.
struct TracedRound {
  tracetool::TraceAnalysis analysis;
  lb::BalanceReport report;
};

TracedRound run_traced_round(chord::Ring& ring, std::uint64_t rng_seed) {
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint x, sim::Endpoint y) {
    return x == y ? 0.0 : 1.0;
  });
  obs::Tracer tracer;
  std::stringstream jsonl;
  obs::JsonlTraceSink sink(jsonl);
  tracer.set_sink(&sink);
  net.attach_tracer(&tracer);
  Rng rng(rng_seed);
  lb::ProtocolRound round(net, ring, {}, rng);
  round.start();
  engine.run();
  EXPECT_TRUE(round.done());
  return TracedRound{tracetool::analyze(read_all(jsonl)), round.report()};
}

chord::Ring make_ring(std::size_t nodes, std::uint64_t seed) {
  Rng rng(seed);
  auto ring = workload::build_ring(
      nodes, 5, workload::CapacityProfile::gnutella_like(), rng);
  const auto model = workload::scaled_load_model(
      ring, workload::LoadDistribution::kGaussian, 0.25, 1.0);
  workload::assign_loads(ring, model, rng);
  return ring;
}

// ---------------------------------------------------------------------------
// Golden: the 2-node round, fully pinned.
// ---------------------------------------------------------------------------

TEST(TraceAnalysisGolden, CriticalPathIsPinned) {
  auto ring = golden_ring();
  const TracedRound run = run_traced_round(ring, 7);
  ASSERT_EQ(run.analysis.rounds.size(), 1u);
  const tracetool::RoundAnalysis& round = run.analysis.rounds[0];

  EXPECT_EQ(round.trace, 1u);
  EXPECT_EQ(round.start, 0.0);
  EXPECT_EQ(round.end, 7.0);
  EXPECT_EQ(round.completion_time, 7.0);
  EXPECT_EQ(round.critical_path_end, 7.0);
  EXPECT_EQ(round.span_count, 32u);
  EXPECT_EQ(round.message_count, 25u);
  EXPECT_EQ(round.connectivity(), 1.0);

  // Root -> LBI fold -> dissemination -> VSA records -> rendezvous match
  // -> notify -> transfer -> payload: one connected chain, and the span
  // ids pin the exact allocation (parent id < child id throughout).
  EXPECT_EQ(round.critical_path,
            (std::vector<std::uint64_t>{1, 5, 7, 8, 11, 14, 16, 19, 23, 26,
                                        27, 28, 31, 32}));
  for (std::size_t i = 1; i < round.critical_path.size(); ++i)
    EXPECT_LT(round.critical_path[i - 1], round.critical_path[i]);

  // Every critical-path span has zero slack; the round root does too.
  for (const std::uint64_t id : round.critical_path)
    EXPECT_EQ(run.analysis.spans.at(id).slack, 0.0);
}

TEST(TraceAnalysisGolden, HopDepthAndFanOutHistogramsArePinned) {
  auto ring = golden_ring();
  const TracedRound run = run_traced_round(ring, 7);
  ASSERT_EQ(run.analysis.rounds.size(), 1u);
  const tracetool::RoundAnalysis& round = run.analysis.rounds[0];

  using H = tracetool::Histogram;
  ASSERT_EQ(round.hop_depth_by_lane.size(), 4u);
  EXPECT_EQ(round.hop_depth_by_lane.at("lb.aggregation"),
            (H{{1, 4}, {2, 1}, {3, 1}}));
  EXPECT_EQ(round.hop_depth_by_lane.at("lb.dissemination"),
            (H{{4, 2}, {5, 3}, {6, 2}}));
  EXPECT_EQ(round.hop_depth_by_lane.at("lb.vsa"),
            (H{{7, 3}, {8, 3}, {9, 3}, {10, 2}}));
  EXPECT_EQ(round.hop_depth_by_lane.at("lb.transfer"), (H{{11, 1}}));

  EXPECT_EQ(round.fan_out_by_lane.at("lb.round"), (H{{4, 1}}));
  EXPECT_EQ(round.fan_out_by_lane.at("lb.aggregation"), (H{{1, 2}, {2, 1}}));
  EXPECT_EQ(round.fan_out_by_lane.at("lb.vsa"), (H{{2, 1}, {3, 2}}));
}

TEST(TraceAnalysisGolden, ReportsAreWellFormed) {
  auto ring = golden_ring();
  const TracedRound run = run_traced_round(ring, 7);
  EXPECT_TRUE(tracetool::validate(run.analysis).empty());

  std::ostringstream md;
  tracetool::write_markdown(run.analysis, md);
  EXPECT_NE(md.str().find("## Round 1 (trace 1)"), std::string::npos);
  EXPECT_NE(md.str().find("| completion_time | 7 |"), std::string::npos);

  std::ostringstream csv;
  tracetool::write_csv(run.analysis, csv);
  std::size_t lines = 0;
  for (const char c : csv.str()) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 1u + run.analysis.rounds[0].span_count);
  EXPECT_EQ(csv.str().substr(0, 6), "round,");
}

// ---------------------------------------------------------------------------
// Properties over sampled seeds.
// ---------------------------------------------------------------------------

class TraceAnalysisSeeds : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceAnalysisSeeds, CriticalPathMatchesReportedCompletion) {
  auto ring = make_ring(48, GetParam());
  const TracedRound run = run_traced_round(ring, GetParam() + 2);
  ASSERT_EQ(run.analysis.rounds.size(), 1u);
  const tracetool::RoundAnalysis& round = run.analysis.rounds[0];

  // The DAG's longest chain can never outlast the round, and for a
  // healthy trace it ends exactly when the round said it completed.
  EXPECT_LE(round.critical_path_end - round.start,
            run.report.completion_time + 1e-9);
  EXPECT_DOUBLE_EQ(round.critical_path_end - round.start,
                   run.report.completion_time);
  EXPECT_GE(round.connectivity(), 0.99);
  EXPECT_TRUE(tracetool::validate(run.analysis).empty())
      << tracetool::validate(run.analysis).front();
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceAnalysisSeeds,
                         testing::Values(1u, 2u, 7u, 21u, 42u));

// ---------------------------------------------------------------------------
// Parser behaviour.
// ---------------------------------------------------------------------------

TEST(TraceJsonlParser, SkipsBlankLinesAndUnknownFields) {
  std::stringstream is(
      "{\"t\":1,\"ph\":\"i\",\"lane\":\"l\",\"name\":\"n\",\"future\":"
      "[1,{\"x\":true}],\"trace\":3,\"span\":4,\"parent\":2}\n"
      "\n"
      "{\"t\":2.5,\"ph\":\"s\",\"lane\":\"l\",\"name\":\"msg\",\"id\":9}\n");
  const std::vector<obs::TraceEvent> events = read_all(is);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ctx.trace, 3u);
  EXPECT_EQ(events[0].ctx.span, 4u);
  EXPECT_EQ(events[0].ctx.parent, 2u);
  EXPECT_EQ(events[1].time, 2.5);
  EXPECT_EQ(events[1].kind, obs::EventKind::kFlowStart);
  EXPECT_EQ(events[1].id, 9u);
}

TEST(TraceJsonlParser, RejectsMalformedLinesWithLineNumbers) {
  const char* const good = "{\"t\":1,\"ph\":\"i\"}\n";
  // Each bad line is line 2; numbers must be whole tokens, ids unsigned
  // integers, and "ph" one of the seven phase letters.
  for (const char* bad :
       {"{\"t\":nope}", "{\"t\":1-2,\"ph\":\"i\"}",
        "{\"t\":1,\"ph\":\"i\",\"span\":-3}",
        "{\"t\":1,\"ph\":\"i\",\"trace\":1.5}",
        "{\"t\":1,\"ph\":\"b\",\"id\":+7}",
        "{\"t\":1,\"ph\":\"i\",\"parent\":18446744073709551616}",
        "{\"t\":1,\"lane\":\"l\"}", "{\"t\":1,\"ph\":\"x\"}",
        "{\"t\":1,\"ph\":\"BE\"}"}) {
    std::stringstream is;
    is << good << bad << '\n';
    try {
      (void)read_all(is);
      FAIL() << "expected PreconditionError for " << bad;
    } catch (const PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << bad << ": " << e.what();
    }
  }
}

TEST(TraceJsonlParser, RewritingThePinnedJsonlIsByteIdentical) {
  // The golden round plus one event whose string arg holds control
  // characters (json_string writes them as \u00XX): reading and
  // re-writing every line reproduces the input byte for byte.
  obs::TraceEvent extra;
  extra.time = 8.25;
  extra.lane = "lane\twith\x01tab";
  extra.name = "n";
  extra.args = {obs::arg("note", std::string_view("bell\x07 esc\x1b")),
                obs::arg("k", 0.5)};
  std::ostringstream extra_line;
  obs::write_jsonl_event(extra_line, extra);
  ASSERT_NE(extra_line.str().find("\\u0007"), std::string::npos);
  const std::string input = golden::kGoldenJsonl + extra_line.str();

  std::stringstream is(input);
  std::ostringstream rewritten;
  std::vector<obs::TraceEvent> events;
  tracetool::read_trace(is, [&](const obs::TraceEvent& e) {
    obs::write_jsonl_event(rewritten, e);
    events.push_back(e);
  });
  EXPECT_EQ(rewritten.str(), input);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().lane, extra.lane);
  EXPECT_EQ(events.back().args[0].json, extra.args[0].json);
}

// ---------------------------------------------------------------------------
// Chrome trace_event: a view derived from either trace format.
// ---------------------------------------------------------------------------

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

TEST(TraceGolden, ChromeTraceMatchesPinnedOutput) {
  obs::Tracer tracer;
  test::CaptureSink captured;
  tracer.set_sink(&captured);
  golden::run_golden_round(&tracer);
  std::stringstream jsonl(captured.jsonl());
  EXPECT_EQ(tracetool::read_lanes(jsonl),
            (std::vector<std::string>{"lb.round", "lb.aggregation",
                                      "lb.dissemination", "lb.vsa",
                                      "lb.transfer"}));
  jsonl.clear();
  jsonl.seekg(0);
  std::ostringstream os;
  EXPECT_EQ(tracetool::write_chrome_json(jsonl, os), captured.events.size());
  EXPECT_EQ(os.str(), kGoldenChrome);

  // The binary encoding of the same round gives the identical view.
  std::stringstream bin(std::ios::in | std::ios::out | std::ios::binary);
  {
    obs::BinaryTraceSink sink(bin);
    for (const obs::TraceEvent& e : captured.events) sink.on_event(e);
  }
  std::ostringstream from_binary;
  tracetool::write_chrome_json(bin, from_binary);
  EXPECT_EQ(from_binary.str(), kGoldenChrome);
}

// ---------------------------------------------------------------------------
// Streaming analysis: incremental folding with per-round retirement.
// ---------------------------------------------------------------------------

/// Two golden rounds traced into ONE tracer: a stream holding two
/// complete causal traces back to back, ids continuing across them.
std::vector<obs::TraceEvent> two_golden_rounds() {
  obs::Tracer tracer;
  test::CaptureSink captured;
  tracer.set_sink(&captured);
  for (int i = 0; i < 2; ++i) golden::run_golden_round(&tracer);
  std::stringstream jsonl(captured.jsonl());
  return read_all(jsonl);
}

void expect_rounds_equal(const tracetool::RoundAnalysis& a,
                         const tracetool::RoundAnalysis& b) {
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.critical_path_end, b.critical_path_end);
  EXPECT_EQ(a.span_count, b.span_count);
  EXPECT_EQ(a.message_count, b.message_count);
  EXPECT_EQ(a.critical_path, b.critical_path);
  EXPECT_EQ(a.hop_depth_by_lane, b.hop_depth_by_lane);
  EXPECT_EQ(a.fan_out_by_lane, b.fan_out_by_lane);
}

TEST(StreamingAnalyzer, RetireModeMatchesBatchAnalysis) {
  const std::vector<obs::TraceEvent> events = two_golden_rounds();
  const tracetool::TraceAnalysis batch = tracetool::analyze(events);
  ASSERT_EQ(batch.rounds.size(), 2u);

  tracetool::StreamingAnalyzer streaming;  // retire_completed = true
  std::size_t sink_calls = 0;
  streaming.set_round_sink(
      [&sink_calls](const tracetool::RoundAnalysis&) { ++sink_calls; });
  for (const obs::TraceEvent& e : events) streaming.feed(e);

  // Both root spans closed inside the stream, so both rounds were
  // retired -- and their spans released -- before finish().
  EXPECT_EQ(streaming.rounds().size(), 2u);
  EXPECT_EQ(sink_calls, 2u);
  EXPECT_EQ(streaming.retained_spans(), 0u);
  EXPECT_EQ(streaming.active_traces(), 0u);
  streaming.finish();

  ASSERT_EQ(streaming.rounds().size(), 2u);
  expect_rounds_equal(streaming.rounds()[0], batch.rounds[0]);
  expect_rounds_equal(streaming.rounds()[1], batch.rounds[1]);
  EXPECT_EQ(streaming.total_events(), events.size());
}

TEST(StreamingAnalyzer, PeakMemoryIsOneRoundNotTheWholeStream) {
  const std::vector<obs::TraceEvent> events = two_golden_rounds();
  tracetool::StreamingAnalyzer streaming;
  for (const obs::TraceEvent& e : events) streaming.feed(e);
  streaming.finish();

  // 32 spans per golden round, 64 total -- but with retirement at most
  // one round's spans (and one trace's id list) were ever resident.
  EXPECT_EQ(streaming.total_spans(), 64u);
  EXPECT_EQ(streaming.peak_retained_spans(), 32u);
  EXPECT_EQ(streaming.peak_active_traces(), 1u);
}

TEST(StreamingAnalyzer, RetainModeFinalizesOnlyAtFinish) {
  const std::vector<obs::TraceEvent> events = two_golden_rounds();
  tracetool::StreamingAnalyzer retain(/*retire_completed=*/false);
  for (const obs::TraceEvent& e : events) retain.feed(e);
  // Nothing finalizes early in retain mode (this is what makes the
  // batch analyze() wrapper byte-equivalent to the old 3-pass code).
  EXPECT_TRUE(retain.rounds().empty());
  EXPECT_EQ(retain.retained_spans(), 64u);
  retain.finish();
  ASSERT_EQ(retain.rounds().size(), 2u);
  EXPECT_EQ(retain.rounds()[0].trace, 1u);
  EXPECT_EQ(retain.rounds()[1].trace, 2u);
  // finish() is idempotent.
  retain.finish();
  EXPECT_EQ(retain.rounds().size(), 2u);
}

// ---------------------------------------------------------------------------
// Streaming analysis over a *sampled* binary trace: the rounds the
// sampler keeps must analyze identically to the same rounds of an
// unsampled run -- sampling drops whole traces, never corrupts them.
// ---------------------------------------------------------------------------

/// Four golden rounds streamed through a BinaryTraceSink under the given
/// sampling policy, decoded back and folded by the streaming analyzer.
std::vector<tracetool::RoundAnalysis> analyze_sampled_binary(
    std::uint64_t keep, std::uint64_t of, std::uint64_t seed) {
  std::stringstream bin(std::ios::in | std::ios::out | std::ios::binary);
  obs::Tracer tracer;
  tracer.set_trace_sampling(keep, of, seed);
  {
    obs::BinaryTraceSink sink(bin);
    tracer.set_sink(&sink);
    for (int i = 0; i < 4; ++i) golden::run_golden_round(&tracer);
  }  // sink destructor frames out the tail
  tracetool::StreamingAnalyzer streaming;
  tracetool::read_trace(
      bin, [&](const obs::TraceEvent& e) { streaming.feed(e); });
  streaming.finish();
  return streaming.rounds();
}

TEST(StreamingAnalyzer, SampledBinaryTraceKeepsRoundsIntact) {
  // Pick a sampling seed (deterministically) under which keep-1-of-2
  // drops some of traces 1..4 and keeps others.
  obs::Tracer policy;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 0; s < 64; ++s) {
    policy.set_trace_sampling(1, 2, s);
    std::size_t kept = 0;
    for (std::uint64_t t = 1; t <= 4; ++t) kept += policy.keeps(t) ? 1u : 0u;
    if (kept > 0 && kept < 4) {
      seed = s;
      break;
    }
  }
  policy.set_trace_sampling(1, 2, seed);

  const std::vector<tracetool::RoundAnalysis> all =
      analyze_sampled_binary(1, 1, 0);
  ASSERT_EQ(all.size(), 4u);
  const std::vector<tracetool::RoundAnalysis> sampled =
      analyze_sampled_binary(1, 2, seed);

  // Exactly the kept traces survive, in order...
  std::vector<std::uint64_t> kept_ids;
  for (std::uint64_t t = 1; t <= 4; ++t)
    if (policy.keeps(t)) kept_ids.push_back(t);
  ASSERT_EQ(sampled.size(), kept_ids.size());
  ASSERT_GT(sampled.size(), 0u);
  ASSERT_LT(sampled.size(), 4u);

  // ...and each analyzes identically to the unsampled run's same round:
  // same critical path, same histograms, same span/message counts.
  for (std::size_t i = 0; i < sampled.size(); ++i) {
    EXPECT_EQ(sampled[i].trace, kept_ids[i]);
    expect_rounds_equal(sampled[i], all[kept_ids[i] - 1]);
  }
}

TEST(StreamingAnalyzer, RejectsASpanClaimedByTwoTraces) {
  tracetool::StreamingAnalyzer streaming;
  obs::TraceEvent first;
  first.kind = obs::EventKind::kBegin;
  first.lane = "lb.round";
  first.name = "round";
  first.ctx = obs::SpanContext{1, 5, 0};
  streaming.feed(first);
  obs::TraceEvent second = first;
  second.ctx.trace = 2;
  EXPECT_THROW(streaming.feed(second), PreconditionError);
}

}  // namespace
}  // namespace p2plb
