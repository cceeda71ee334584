// Tests for the event-driven balancing round (lb::ProtocolRound).
//
// The central property: the timed round and the synchronous wrapper make
// IDENTICAL transfer decisions for the same (seed, ring, config) -- the
// event layer changes when things happen, never what happens.  On top of
// that: per-phase metrics behave, the analytic message counters agree
// with the network accounting, and a node crash mid-round neither
// deadlocks the round nor corrupts its bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "lb/controller.h"
#include "lb/protocol_round.h"
#include "lb/reporting.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace p2plb {
namespace {

/// A reproducible imbalanced ring: same seed -> same ring, every time.
chord::Ring make_ring(std::size_t nodes, std::uint64_t seed) {
  Rng rng(seed);
  auto ring = workload::build_ring(
      nodes, 5, workload::CapacityProfile::gnutella_like(), rng);
  const auto model = workload::scaled_load_model(
      ring, workload::LoadDistribution::kGaussian, 0.25, 1.0);
  workload::assign_loads(ring, model, rng);
  return ring;
}

sim::LatencyFn unit_latency() {
  return [](sim::Endpoint a, sim::Endpoint b) { return a == b ? 0.0 : 1.0; };
}

/// Run one timed round to completion over unit latency.
lb::BalanceReport run_timed(chord::Ring& ring,
                            const lb::BalancerConfig& config,
                            std::uint64_t rng_seed,
                            std::span<const chord::Key> node_keys = {}) {
  sim::Engine engine;
  sim::Network net(engine, unit_latency());
  Rng rng(rng_seed);
  lb::ProtocolRound round(net, ring, {config}, rng,
                          node_keys);
  round.start();
  engine.run();
  EXPECT_TRUE(round.done());
  return round.report();
}

void expect_same_decisions(const lb::BalanceReport& a,
                           const lb::BalanceReport& b) {
  ASSERT_EQ(a.vsa.assignments.size(), b.vsa.assignments.size());
  for (std::size_t i = 0; i < a.vsa.assignments.size(); ++i) {
    const lb::Assignment& x = a.vsa.assignments[i];
    const lb::Assignment& y = b.vsa.assignments[i];
    EXPECT_EQ(x.vs, y.vs);
    EXPECT_EQ(x.from, y.from);
    EXPECT_EQ(x.to, y.to);
    EXPECT_DOUBLE_EQ(x.load, y.load);
    EXPECT_EQ(x.rendezvous_depth, y.rendezvous_depth);
  }
  EXPECT_EQ(a.transfers_applied, b.transfers_applied);
  EXPECT_EQ(a.before.heavy_count, b.before.heavy_count);
  EXPECT_EQ(a.after.heavy_count, b.after.heavy_count);
  EXPECT_EQ(a.after.light_count, b.after.light_count);
  EXPECT_EQ(a.after.neutral_count, b.after.neutral_count);
}

TEST(ProtocolRound, TimedAndSyncMakeIdenticalDecisions) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    chord::Ring sync_ring = make_ring(192, seed);
    chord::Ring timed_ring = make_ring(192, seed);

    lb::BalancerConfig config;
    Rng sync_rng(seed + 100);
    const lb::BalanceReport sync =
        lb::run_balance_round(sync_ring, config, sync_rng);
    const lb::BalanceReport timed =
        run_timed(timed_ring, config, seed + 100);

    expect_same_decisions(sync, timed);
    // Identical decisions produce identical rings.  Transfers land in
    // delivery order, which latency reshuffles -- so compare the hosted
    // sets, not the vectors.
    for (const chord::NodeIndex i : sync_ring.live_nodes()) {
      auto a = sync_ring.node(i).servers;
      auto b = timed_ring.node(i).servers;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b);
    }
    // The only difference: the timed path took simulated time.
    EXPECT_DOUBLE_EQ(sync.completion_time, 0.0);
    EXPECT_GT(timed.completion_time, 0.0);
  }
}

TEST(ProtocolRound, TimedAndSyncAgreeInProximityAwareMode) {
  const std::uint64_t seed = 47;
  chord::Ring sync_ring = make_ring(128, seed);
  chord::Ring timed_ring = make_ring(128, seed);
  // Synthetic Hilbert keys: the pairing logic only needs *some* key per
  // node; real keys come from the landmark pipeline.
  std::vector<chord::Key> keys(sync_ring.node_count());
  Rng key_rng(seed + 5);
  for (auto& k : keys)
    k = static_cast<chord::Key>(key_rng.below(1u << 8)) << 24;

  lb::BalancerConfig config;
  config.mode = lb::BalanceMode::kProximityAware;
  Rng sync_rng(seed + 100);
  const lb::BalanceReport sync =
      lb::run_balance_round(sync_ring, config, sync_rng, keys);
  const lb::BalanceReport timed =
      run_timed(timed_ring, config, seed + 100, keys);
  expect_same_decisions(sync, timed);
}

TEST(ProtocolRound, AnalyticCountersMatchNetworkAccounting) {
  chord::Ring ring = make_ring(160, 21);
  chord::Ring clone = make_ring(160, 21);

  // Timed path: report counters are derived from per-tag network totals.
  sim::Engine engine;
  sim::Network net(engine, unit_latency());
  Rng rng(77);
  lb::ProtocolRound round(net, ring, {}, rng);
  round.start();
  engine.run();
  const lb::BalanceReport& report = round.report();
  const ktree::KTree& tree = round.tree();
  const std::uint64_t agg = report.phase(lb::Phase::kAggregation).messages;
  const std::uint64_t dis = report.phase(lb::Phase::kDissemination).messages;
  const std::uint64_t vsa = report.phase(lb::Phase::kVsa).messages;
  const std::uint64_t vst = report.phase(lb::Phase::kTransfer).messages;

  // Closed-form analytic counts for aggregation and dissemination
  // (Section 3.2): every node reports once and every tree edge carries
  // one fold message up / one triple down; each leaf hands off once.
  const auto edges = static_cast<std::uint64_t>(tree.size()) - 1;
  EXPECT_EQ(agg, clone.live_node_count() + edges);
  EXPECT_EQ(dis, edges + tree.leaf_count());

  // VSA: one message per record entering its leaf, one per leftover a
  // KT node forwards up, and two notifications per pairing -- counted
  // from an independent synchronous sweep over the same snapshot.
  {
    const ktree::KTree oracle_tree(clone, lb::BalancerConfig{}.tree_degree);
    Rng oracle_rng(77);
    const lb::LbiAggregation lbi = lb::aggregate_lbi(oracle_tree, oracle_rng);
    const lb::Classification classes =
        lb::classify_all(clone, lbi.system, lb::BalancerConfig{}.epsilon);
    const lb::VsaEntries entries =
        lb::build_entries_ignorant(oracle_tree, classes, lbi.reporter_vs);
    lb::VsaTrace trace;
    lb::VsaParams params;
    params.min_load = lbi.system.min_load;
    params.trace = &trace;
    const lb::VsaResult sweep = lb::run_vsa(oracle_tree, entries, params);
    std::uint64_t forwarded = 0;
    for (const std::uint32_t n : trace.forwarded_up) forwarded += n;
    EXPECT_EQ(vsa, entries.heavy_count() + entries.light_count() +
                       forwarded + 2 * sweep.assignments.size());
  }
  EXPECT_EQ(vst, report.vsa.assignments.size());

  // The network's own tag counters are the single source of truth.
  EXPECT_EQ(net.counters(lb::kTagAggregation).messages, agg);
  EXPECT_EQ(net.counters(lb::kTagVsa).messages, vsa);
  EXPECT_EQ(net.totals().messages, agg + dis + vsa + vst);

  // The synchronous wrapper reports the same counts (same decisions).
  Rng clone_rng(77);
  const lb::BalanceReport sync = lb::run_balance_round(clone, {}, clone_rng);
  for (std::size_t p = 0; p < lb::kPhaseCount; ++p)
    EXPECT_EQ(sync.phases[p].messages, report.phases[p].messages)
        << lb::phase_name(static_cast<lb::Phase>(p));
}

TEST(ProtocolRound, PhaseMetricsAreOrderedAndPopulated) {
  chord::Ring ring = make_ring(160, 31);
  lb::BalancerConfig config;
  // A low threshold guarantees rendezvous fire deep in the tree, i.e.
  // well before the sweep reaches the root -- the overlap this test pins.
  config.rendezvous_threshold = 8;
  const lb::BalanceReport r = run_timed(ring, config, 31);

  const lb::PhaseMetrics& agg = r.phase(lb::Phase::kAggregation);
  const lb::PhaseMetrics& dis = r.phase(lb::Phase::kDissemination);
  const lb::PhaseMetrics& vsa = r.phase(lb::Phase::kVsa);
  const lb::PhaseMetrics& vst = r.phase(lb::Phase::kTransfer);

  // Phases 1-3 run strictly in sequence...
  EXPECT_DOUBLE_EQ(agg.start, 0.0);
  EXPECT_GT(agg.end, agg.start);
  EXPECT_DOUBLE_EQ(dis.start, agg.end);
  EXPECT_GT(dis.end, dis.start);
  EXPECT_DOUBLE_EQ(vsa.start, dis.end);
  EXPECT_GT(vsa.end, vsa.start);
  // ...while phase 4 overlaps phase 3 (Section 3.5): transfers start as
  // soon as the first rendezvous fires, before the sweep finishes.
  ASSERT_GT(r.transfers_applied, 0u);
  EXPECT_GE(vst.start, vsa.start);
  EXPECT_LT(vst.start, vsa.end);
  EXPECT_DOUBLE_EQ(r.completion_time, std::max(vsa.end, vst.end));

  for (const lb::PhaseMetrics& m : r.phases) {
    EXPECT_GT(m.messages, 0u);
    EXPECT_GT(m.bytes, 0.0);
    EXPECT_GE(m.duration(), 0.0);
  }

  // Deep rendezvous must be stamped earlier than the sweep's completion.
  for (const lb::Assignment& a : r.vsa.assignments)
    EXPECT_LE(a.available_at, r.vsa.sweep_completion_time);
}

TEST(ProtocolRound, SurvivesNodeCrashMidRound) {
  chord::Ring ring = make_ring(160, 41);
  sim::Engine engine;
  sim::Network net(engine, unit_latency());
  Rng rng(41);
  lb::ProtocolRound round(net, ring, {}, rng);

  bool completed = false;
  round.start([&](const lb::BalanceReport&) { completed = true; });
  // Crash a transfer destination while phase 1 is still in flight: its
  // pending notifications and transfers must be skipped, not lost.
  ASSERT_FALSE(round.planned().assignments.empty())
      << "test needs at least one planned transfer";
  engine.schedule_after(0.5, [&] {
    ring.remove_node(round.planned().assignments.front().to);
  });
  engine.run();

  ASSERT_TRUE(completed);
  const lb::BalanceReport& r = round.report();
  // Every planned transfer was attempted (messages sent and counted) but
  // at least the crashed destination's were not applied.
  EXPECT_EQ(r.phase(lb::Phase::kTransfer).messages,
            r.vsa.assignments.size());
  EXPECT_LT(r.transfers_applied, r.vsa.assignments.size());
  EXPECT_GT(r.transfers_applied, 0u);
  // The ring stayed consistent: no server is owned by a dead node.
  ring.for_each_server([&](const chord::VirtualServer& vs) {
    EXPECT_TRUE(ring.node(vs.owner).alive);
  });
}

TEST(ProtocolRound, ReportBeforeCompletionThrows) {
  chord::Ring ring = make_ring(64, 51);
  sim::Engine engine;
  sim::Network net(engine, unit_latency());
  Rng rng(51);
  lb::ProtocolRound round(net, ring, {}, rng);
  EXPECT_FALSE(round.started());
  EXPECT_THROW((void)round.report(), PreconditionError);
  round.start();
  EXPECT_TRUE(round.started());
  EXPECT_THROW(round.start(), PreconditionError);  // double start
  engine.run();
  EXPECT_NO_THROW((void)round.report());
}

TEST(ProtocolRound, TimedControllerMatchesSyncController) {
  chord::Ring sync_ring = make_ring(160, 61);
  chord::Ring timed_ring = make_ring(160, 61);
  lb::ControllerConfig config;
  config.max_rounds = 4;

  Rng sync_rng(61);
  const lb::ControllerResult sync =
      lb::balance_until_stable(sync_ring, config, sync_rng);

  sim::Engine engine;
  sim::Network net(engine, unit_latency());
  Rng timed_rng(61);
  const lb::ControllerResult timed =
      lb::balance_until_stable(net, timed_ring, config, timed_rng);

  EXPECT_EQ(sync.converged, timed.converged);
  ASSERT_EQ(sync.rounds.size(), timed.rounds.size());
  for (std::size_t r = 0; r < sync.rounds.size(); ++r) {
    EXPECT_EQ(sync.rounds[r].transfers, timed.rounds[r].transfers);
    EXPECT_EQ(sync.rounds[r].heavy_after, timed.rounds[r].heavy_after);
    EXPECT_EQ(sync.rounds[r].messages, timed.rounds[r].messages);
    EXPECT_DOUBLE_EQ(sync.rounds[r].completion_time, 0.0);
    EXPECT_GT(timed.rounds[r].completion_time, 0.0);
  }
}

// Regression: timed and sync controllers used to drift apart from round 2
// (5178 vs 5180 messages at 128 nodes, seed 9) because the timed path
// applied transfers in delivery order, Ring::transfer_virtual_server
// appended to Node::servers, and the next round's aggregate_lbi sampled a
// reporter from that order-dependent vector.  Node::servers is sorted now
// (see chord/ring.h); this pins every decision column over three rounds
// of the exact scenario that exposed the drift.
TEST(ProtocolRound, TimedControllerNeverDriftsFromSyncAcrossRounds) {
  chord::Ring sync_ring = make_ring(128, 9);
  chord::Ring timed_ring = make_ring(128, 9);
  lb::ControllerConfig config;
  config.max_rounds = 3;

  Rng sync_rng(11);
  const lb::ControllerResult sync =
      lb::balance_until_stable(sync_ring, config, sync_rng);

  sim::Engine engine;
  sim::Network net(engine, unit_latency());
  Rng timed_rng(11);
  const lb::ControllerResult timed =
      lb::balance_until_stable(net, timed_ring, config, timed_rng);

  EXPECT_EQ(sync.converged, timed.converged);
  ASSERT_EQ(sync.rounds.size(), timed.rounds.size());
  ASSERT_GE(sync.rounds.size(), 2u) << "scenario must exercise round 2+";
  for (std::size_t r = 0; r < sync.rounds.size(); ++r) {
    SCOPED_TRACE("round " + std::to_string(r + 1));
    EXPECT_EQ(sync.rounds[r].heavy_before, timed.rounds[r].heavy_before);
    EXPECT_EQ(sync.rounds[r].heavy_after, timed.rounds[r].heavy_after);
    EXPECT_EQ(sync.rounds[r].transfers, timed.rounds[r].transfers);
    EXPECT_DOUBLE_EQ(sync.rounds[r].moved_load, timed.rounds[r].moved_load);
    EXPECT_EQ(sync.rounds[r].unassigned, timed.rounds[r].unassigned);
    EXPECT_EQ(sync.rounds[r].messages, timed.rounds[r].messages);
    // The timed controller reuses one network across rounds, so each
    // phase's traffic is a per-round delta of the network's tag tally;
    // the sync wrapper starts every round on a fresh network.  A delta of
    // a cumulative double keeps the rounding of earlier rounds' bytes, so
    // bytes agree to a relative tolerance rather than bit for bit.
    for (std::size_t p = 0; p < lb::kPhaseCount; ++p) {
      SCOPED_TRACE("phase " + std::to_string(p + 1));
      const lb::PhaseMetrics& s = sync.rounds[r].phases[p];
      const lb::PhaseMetrics& t = timed.rounds[r].phases[p];
      EXPECT_EQ(s.messages, t.messages);
      EXPECT_NEAR(s.bytes, t.bytes, 1e-9 * s.bytes);
    }
  }
  // The rings themselves must agree server-by-server afterwards.
  ASSERT_EQ(sync_ring.node_count(), timed_ring.node_count());
  for (chord::NodeIndex n = 0; n < sync_ring.node_count(); ++n) {
    const auto& a = sync_ring.node(n).servers;
    const auto& b = timed_ring.node(n).servers;
    EXPECT_EQ(a, b) << "node " << n;
  }
}

}  // namespace
}  // namespace p2plb
