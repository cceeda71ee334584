// Tests for the deterministic alert engine (obs/alert.h): the rule
// grammar (every agg, both window spellings, sustained-for, and the
// rejection of malformed lines), the fire/resolve state machine at
// bucket boundaries (including sustained-for straddling a batch of
// boundaries closed in one advance, the shape a crash burst's quiet
// period produces), the emission fan-out (trace instants with no span
// ids, registry counters/gauge, subscriber callback), the p2plb-alerts-1
// CSV/JSONL round-trip, and the byte-identity of the exported stream
// across identical runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "obs/alert.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"

namespace p2plb {
namespace {

using obs::AlertAgg;
using obs::AlertEngine;
using obs::AlertEvent;
using obs::AlertOp;
using obs::AlertRule;
using obs::SeriesId;
using obs::WindowedAggregator;

TEST(AlertRules, GrammarParsesEveryAggAndWindowSpelling) {
  const std::vector<AlertRule> rules = obs::parse_alert_rules(
      "# comment line\n"
      "\n"
      "a m1 last > 1.5\n"
      "b m2 sum:3 >= 2\n"
      "c m3 mean:4 < 0.5 for 30\n"
      "d m4 rate:2 <= 10\n"
      "e m5 p99:2 > 3\n"
      "f m6 burn:1,8 > 3.0\n"
      "g m7 min > 0  # trailing comment\n"
      "h m8 max:5 > 7\n");
  ASSERT_EQ(rules.size(), 8u);
  EXPECT_EQ(rules[0].name, "a");
  EXPECT_EQ(rules[0].metric, "m1");
  EXPECT_EQ(rules[0].agg, AlertAgg::kLast);
  EXPECT_EQ(rules[0].k, 1u);
  EXPECT_EQ(rules[0].op, AlertOp::kGt);
  EXPECT_DOUBLE_EQ(rules[0].threshold, 1.5);
  EXPECT_DOUBLE_EQ(rules[0].for_duration, 0.0);
  EXPECT_EQ(rules[1].agg, AlertAgg::kSum);
  EXPECT_EQ(rules[1].k, 3u);
  EXPECT_EQ(rules[1].op, AlertOp::kGe);
  EXPECT_EQ(rules[2].agg, AlertAgg::kMean);
  EXPECT_EQ(rules[2].op, AlertOp::kLt);
  EXPECT_DOUBLE_EQ(rules[2].for_duration, 30.0);
  EXPECT_EQ(rules[3].agg, AlertAgg::kRate);
  EXPECT_EQ(rules[3].op, AlertOp::kLe);
  EXPECT_EQ(rules[4].agg, AlertAgg::kQuantile);
  EXPECT_DOUBLE_EQ(rules[4].quantile, 0.99);
  EXPECT_EQ(rules[4].k, 2u);
  EXPECT_EQ(rules[5].agg, AlertAgg::kBurn);
  EXPECT_EQ(rules[5].k, 1u);
  EXPECT_EQ(rules[5].k2, 8u);
  EXPECT_EQ(rules[6].agg, AlertAgg::kMin);
  EXPECT_EQ(rules[7].agg, AlertAgg::kMax);
}

TEST(AlertRules, MalformedLinesAreRejectedWithTheLine) {
  // Wrong token count, unknown agg/op, unparseable numbers, duplicate
  // names, inverted burn windows, non-positive sustained durations.
  EXPECT_THROW(obs::parse_alert_rules("a m sum >\n"), PreconditionError);
  EXPECT_THROW(obs::parse_alert_rules("a m sum > 1 extra\n"),
               PreconditionError);
  EXPECT_THROW(obs::parse_alert_rules("a m median > 1\n"), PreconditionError);
  EXPECT_THROW(obs::parse_alert_rules("a m sum != 1\n"), PreconditionError);
  EXPECT_THROW(obs::parse_alert_rules("a m sum > high\n"), PreconditionError);
  EXPECT_THROW(obs::parse_alert_rules("a m sum:0 > 1\n"), PreconditionError);
  EXPECT_THROW(obs::parse_alert_rules("a m1 sum > 1\na m2 sum > 1\n"),
               PreconditionError);
  EXPECT_THROW(obs::parse_alert_rules("a m burn:8,2 > 1\n"),
               PreconditionError);
  EXPECT_THROW(obs::parse_alert_rules("a m burn:2 > 1\n"), PreconditionError);
  EXPECT_THROW(obs::parse_alert_rules("a m sum > 1 for 0\n"),
               PreconditionError);
  EXPECT_THROW(obs::parse_alert_rules("a m sum > 1 at 5\n"),
               PreconditionError);
}

TEST(AlertEngine, FiresAndResolvesAtBucketBoundaries) {
  WindowedAggregator w({10.0, 8});
  const SeriesId x = w.counter_series("x");
  AlertEngine alerts(w, obs::parse_alert_rules("hot x sum > 5\n"));
  w.record(x, 1.0, 6.0);
  w.advance_to(10.0);
  ASSERT_EQ(alerts.events().size(), 1u);
  EXPECT_DOUBLE_EQ(alerts.events()[0].t, 10.0);
  EXPECT_EQ(alerts.events()[0].rule, "hot");
  EXPECT_TRUE(alerts.events()[0].fire);
  EXPECT_DOUBLE_EQ(alerts.events()[0].value, 6.0);
  EXPECT_DOUBLE_EQ(alerts.events()[0].threshold, 5.0);
  EXPECT_EQ(alerts.active(), 1u);
  EXPECT_TRUE(alerts.firing("hot"));
  // Still firing while the condition holds: no duplicate transitions.
  w.record(x, 11.0, 9.0);
  w.advance_to(20.0);
  EXPECT_EQ(alerts.events().size(), 1u);
  // The quiet bucket resolves it.
  w.advance_to(30.0);
  ASSERT_EQ(alerts.events().size(), 2u);
  EXPECT_DOUBLE_EQ(alerts.events()[1].t, 30.0);
  EXPECT_FALSE(alerts.events()[1].fire);
  EXPECT_EQ(alerts.active(), 0u);
  EXPECT_FALSE(alerts.firing("hot"));
}

TEST(AlertEngine, SustainedForRequiresTheFullDuration) {
  WindowedAggregator w({10.0, 8});
  const SeriesId x = w.counter_series("x");
  AlertEngine alerts(w, obs::parse_alert_rules("sus x sum > 5 for 20\n"));
  // Condition true at boundaries 10 and 20, false at 30: pending state
  // never reaches the 20-time-unit hold, so nothing fires.
  w.record(x, 1.0, 6.0);
  w.record(x, 11.0, 6.0);
  w.advance_to(30.0);
  EXPECT_TRUE(alerts.events().empty());
  // True again at 40, 50 and 60: pending since 40, fires at 60.
  w.record(x, 31.0, 6.0);
  w.record(x, 41.0, 6.0);
  w.record(x, 51.0, 6.0);
  w.advance_to(60.0);
  ASSERT_EQ(alerts.events().size(), 1u);
  EXPECT_DOUBLE_EQ(alerts.events()[0].t, 60.0);
  EXPECT_TRUE(alerts.events()[0].fire);
}

TEST(AlertEngine, SustainedForStraddlesABatchOfBoundaries) {
  // A crash burst's shape: sustained pressure, then a long quiet gap
  // whose boundaries all close inside one advance_to call.  The fire
  // must land on the exact intermediate boundary that completed the
  // hold, and the resolve on the first boundary after the pressure
  // stopped summing into the window.
  WindowedAggregator w({10.0, 16});
  const SeriesId x = w.counter_series("x");
  AlertEngine alerts(w, obs::parse_alert_rules("sus x sum:2 > 5 for 20\n"));
  for (double t = 1.0; t < 50.0; t += 10.0) w.record(x, t, 6.0);
  w.advance_to(100.0);  // closes [50,60) ... [90,100) in one batch
  ASSERT_EQ(alerts.events().size(), 2u);
  EXPECT_DOUBLE_EQ(alerts.events()[0].t, 30.0);  // held since 10
  EXPECT_TRUE(alerts.events()[0].fire);
  // sum:2 keeps the window >5 through boundary 50 (bucket [40,50) got
  // the last 6); the first all-quiet window is [50,70) at boundary 70.
  EXPECT_DOUBLE_EQ(alerts.events()[1].t, 70.0);
  EXPECT_FALSE(alerts.events()[1].fire);
}

TEST(AlertEngine, MissingMetricNeverFiresAndResolvesLazily) {
  WindowedAggregator w({10.0, 8});
  AlertEngine alerts(w, obs::parse_alert_rules("ghost nope sum > 0\n"));
  w.advance_to(30.0);
  EXPECT_TRUE(alerts.events().empty());
  // The series registers late (attach order is not fixed): the rule
  // resolves it at the next boundary and evaluates normally from there.
  const SeriesId x = w.counter_series("nope");
  w.record(x, 31.0, 2.0);
  w.advance_to(40.0);
  ASSERT_EQ(alerts.events().size(), 1u);
  EXPECT_TRUE(alerts.events()[0].fire);
}

TEST(AlertEngine, BurnRateComparesShortToLongWindow) {
  WindowedAggregator w({10.0, 16});
  const SeriesId x = w.counter_series("x");
  AlertEngine alerts(w, obs::parse_alert_rules("burny x burn:1,4 > 3\n"));
  // Four quiet-ish buckets then a hot one: rate(1) = 40/10 = 4,
  // rate(4) = (1+1+1+40)/40 = 1.075 -> burn ~3.7 fires.
  for (double t = 1.0; t < 31.0; t += 10.0) w.record(x, t, 1.0);
  w.record(x, 31.0, 40.0);
  w.advance_to(40.0);
  ASSERT_EQ(alerts.events().size(), 1u);
  EXPECT_TRUE(alerts.events()[0].fire);
  EXPECT_NEAR(alerts.events()[0].value, 4.0 / 1.075, 1e-9);
}

TEST(AlertEngine, QuantileRulesReadTheMergedHistogram) {
  WindowedAggregator w({10.0, 8});
  const SeriesId h = w.histogram_series("h");
  AlertEngine alerts(w, obs::parse_alert_rules("tail h p99:2 > 100\n"));
  for (int i = 0; i < 8; ++i) w.record(h, 1.0, 1.0);
  w.record(h, 11.0, 1.0);
  w.record(h, 12.0, 700.0);  // the 10th sample across both buckets
  w.advance_to(20.0);
  ASSERT_EQ(alerts.events().size(), 1u);
  EXPECT_TRUE(alerts.events()[0].fire);
  EXPECT_DOUBLE_EQ(alerts.events()[0].value, 512.0 * 1.4142135623730951);
}

TEST(AlertEngine, EmitsToTracerMetricsAndCallbackInOrder) {
  WindowedAggregator w({10.0, 8});
  const SeriesId x = w.counter_series("x");
  AlertEngine alerts(w, obs::parse_alert_rules("hot x sum > 5\n"));
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  alerts.attach_tracer(&tracer);
  alerts.attach_metrics(&registry);
  std::vector<AlertEvent> seen;
  alerts.set_callback([&seen](const AlertEvent& e) { seen.push_back(e); });
  EXPECT_THROW(alerts.set_callback([](const AlertEvent&) {}),
               PreconditionError);

  w.record(x, 1.0, 6.0);
  w.advance_to(30.0);  // fire at 10, resolve at 20 (30 adds nothing)
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_TRUE(seen[0].fire);
  EXPECT_FALSE(seen[1].fire);

  ASSERT_EQ(tracer.events().size(), 2u);
  const obs::TraceEvent& fire = tracer.events()[0];
  EXPECT_EQ(fire.kind, obs::EventKind::kInstant);
  EXPECT_EQ(fire.lane, "alert");
  EXPECT_EQ(fire.name, "hot");
  EXPECT_DOUBLE_EQ(fire.time, 10.0);
  // Instants carry no SpanContext: the id allocator never moves, so a
  // traced run with alerts keeps every other event's ids unchanged.
  EXPECT_FALSE(fire.ctx.in_trace());
  EXPECT_EQ(tracer.ids_allocated(), 0u);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.value("alert.fired{rule=hot}"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("alert.resolved{rule=hot}"), 1.0);
  EXPECT_DOUBLE_EQ(snap.value("alert.active"), 0.0);
}

TEST(AlertEngine, AlertsFileRoundTripsInBothFormats) {
  WindowedAggregator w({10.0, 8});
  const SeriesId x = w.counter_series("x");
  AlertEngine alerts(w, obs::parse_alert_rules("hot x sum > 5\n"));
  w.record(x, 1.0, 6.5);
  w.advance_to(20.0);
  ASSERT_EQ(alerts.events().size(), 2u);

  for (const char* name : {"alerts_rt.csv", "alerts_rt.jsonl"}) {
    const std::string path =
        testing::TempDir() + "/" + name;
    obs::write_alerts_file(alerts, path);
    const std::vector<AlertEvent> loaded = obs::load_alerts_file(path);
    ASSERT_EQ(loaded.size(), alerts.events().size()) << path;
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      EXPECT_DOUBLE_EQ(loaded[i].t, alerts.events()[i].t);
      EXPECT_EQ(loaded[i].rule, alerts.events()[i].rule);
      EXPECT_EQ(loaded[i].fire, alerts.events()[i].fire);
      EXPECT_DOUBLE_EQ(loaded[i].value, alerts.events()[i].value);
      EXPECT_DOUBLE_EQ(loaded[i].threshold, alerts.events()[i].threshold);
    }
    std::remove(path.c_str());
  }
}

TEST(AlertEngine, ExportedStreamIsByteIdenticalAcrossRuns) {
  // The determinism contract the CI alert-smoke leg cmp-gates: the same
  // record sequence must serialize to the same bytes, run to run.
  const auto run = [] {
    WindowedAggregator w({10.0, 8});
    const SeriesId x = w.counter_series("x");
    const SeriesId h = w.histogram_series("h");
    AlertEngine alerts(
        w, obs::parse_alert_rules("hot x sum > 5\ntail h p90:2 > 2\n"));
    for (double t = 1.0; t < 45.0; t += 3.0) {
      w.record(x, t, t < 20.0 ? 4.0 : 1.0);
      w.record(h, t, t);
    }
    w.advance_to(50.0);
    std::ostringstream csv;
    alerts.write_csv(csv);
    std::ostringstream jsonl;
    alerts.write_jsonl(jsonl);
    return csv.str() + "\x1f" + jsonl.str();
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

}  // namespace
}  // namespace p2plb
