// Tests for the event-driven K-nary tree protocols: sweep latency on a
// sim::Network and soft-state maintenance / self-repair under churn.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "chord/ring.h"
#include "common/error.h"
#include "common/rng.h"
#include "ktree/protocol.h"
#include "ktree/tree.h"
#include "lb/protocol_round.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "trace_capture.h"

namespace p2plb::ktree {
namespace {

chord::Ring make_ring(std::size_t nodes, std::size_t vs_per_node,
                      std::uint64_t seed) {
  Rng rng(seed);
  chord::Ring ring;
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto n = ring.add_node(1.0);
    for (std::size_t v = 0; v < vs_per_node; ++v)
      (void)ring.add_random_virtual_server(n, rng);
  }
  return ring;
}

TEST(UnitLatency, LocalIsFreeRemoteCostsUnit) {
  auto ring = make_ring(2, 2, 401);
  const auto& a = ring.node(0).servers;
  const auto& b = ring.node(1).servers;
  const auto latency = unit_latency(ring, 2.5);
  EXPECT_DOUBLE_EQ(latency(a[0], a[0]), 0.0);
  EXPECT_DOUBLE_EQ(latency(a[0], a[1]), 0.0);  // same physical node
  EXPECT_DOUBLE_EQ(latency(a[0], b[0]), 2.5);
}

/// Run one sweep alone over `tree` on a unit-latency network: one unit
/// per remote hop, a hop between KT nodes on one physical node free.
SweepResult run_sweep(const KTree& tree, bool aggregate) {
  sim::Engine engine;
  sim::Network net(engine, sim::LatencyFn([](sim::Endpoint a,
                                             sim::Endpoint b) {
                     return a == b ? 0.0 : 1.0;
                   }));
  const std::vector<sim::Endpoint> host = lb::host_endpoints(tree);
  SweepResult out;
  bool done = false;
  const auto on_complete = [&](const SweepResult& r) {
    out = r;
    done = true;
  };
  if (aggregate) {
    const auto release = begin_aggregation(net, tree, host, {}, on_complete);
    for (KtIndex i = 0; i < tree.size(); ++i)
      if (tree.node(i).is_leaf()) release(i);
  } else {
    begin_dissemination(net, tree, host, {}, nullptr, on_complete);
  }
  engine.run();
  EXPECT_TRUE(done);
  return out;
}

TEST(SimulatedAggregation, SingleLeafIsInstant) {
  chord::Ring ring;
  const auto n = ring.add_node(1.0);
  ring.add_virtual_server(n, 77);
  const KTree tree(ring, 2);
  const auto r = run_sweep(tree, /*aggregate=*/true);
  EXPECT_DOUBLE_EQ(r.completion_time, 0.0);
  EXPECT_EQ(r.messages, 0u);
}

TEST(SimulatedAggregation, CompletionTimeIsBoundedByEffectiveHeight) {
  const auto ring = make_ring(64, 4, 402);
  const KTree tree(ring, 2);
  const auto r = run_sweep(tree, /*aggregate=*/true);
  // The critical path pays one unit per host change on some root-leaf
  // path: at most effective_height, at least 1 (some edge is remote).
  EXPECT_LE(r.completion_time,
            static_cast<double>(tree.effective_height()));
  EXPECT_GE(r.completion_time, 1.0);
  EXPECT_GT(r.messages, 0u);
}

TEST(SimulatedDissemination, MirrorsAggregation) {
  const auto ring = make_ring(64, 4, 403);
  const KTree tree(ring, 2);
  const auto up = run_sweep(tree, /*aggregate=*/true);
  const auto down = run_sweep(tree, /*aggregate=*/false);
  // Same edges traversed in opposite directions: identical counts and
  // identical critical-path length.
  EXPECT_EQ(up.messages, down.messages);
  EXPECT_EQ(up.local_hops, down.local_hops);
  EXPECT_DOUBLE_EQ(up.completion_time, down.completion_time);
}

TEST(SimulatedAggregation, LatencyGrowsLogarithmically) {
  // Completion time across a 16x size increase grows by only a few
  // units (log), not multiplicatively.
  const auto small_ring = make_ring(32, 4, 404);
  const auto big_ring = make_ring(512, 4, 405);
  const double small_time =
      run_sweep(KTree(small_ring, 2), /*aggregate=*/true).completion_time;
  const double big_time =
      run_sweep(KTree(big_ring, 2), /*aggregate=*/true).completion_time;
  EXPECT_LE(big_time, small_time + 8.0);  // ~log2(16) = 4 extra levels
}

TEST(NetworkSweeps, RequireOneEndpointPerTreeNode) {
  const auto ring = make_ring(16, 2, 406);
  const KTree tree(ring, 2);
  ASSERT_GT(tree.size(), 1u);
  sim::Engine engine;
  sim::Network net(engine, sim::LatencyFn([](sim::Endpoint, sim::Endpoint) {
                     return 1.0;
                   }));
  const std::vector<sim::Endpoint> short_span(tree.size() - 1, 0);
  EXPECT_THROW((void)begin_aggregation(net, tree, short_span, {}, nullptr),
               PreconditionError);
  EXPECT_THROW(begin_dissemination(net, tree, short_span, {}, nullptr,
                                   nullptr),
               PreconditionError);
  // Nothing was sent: the check fires before the sweep starts.
  EXPECT_EQ(engine.pending(), 0u);
}

// --- MaintenanceProtocol -----------------------------------------------------

TEST(Maintenance, GrowsToConvergenceFromScratch) {
  auto ring = make_ring(16, 3, 406);
  sim::Engine engine;
  MaintenanceProtocol protocol(engine, ring, 2, 1.0, unit_latency(ring));
  protocol.start();
  const KTree target(ring, 2);
  // Each level needs one check period plus up to one unit of create
  // latency: convergence within ~2*height + slack periods.
  engine.run_until(2.0 * static_cast<double>(target.height()) + 6.0);
  EXPECT_TRUE(protocol.converged())
      << "instances " << protocol.instance_count() << " target "
      << target.size();
}

TEST(Maintenance, SelfRepairsAfterCrash) {
  auto ring = make_ring(24, 3, 407);
  sim::Engine engine;
  MaintenanceProtocol protocol(engine, ring, 2, 1.0, unit_latency(ring));
  protocol.start();
  engine.run_until(40.0);
  ASSERT_TRUE(protocol.converged());

  // Crash 25% of the nodes (their KT instances vanish with them).
  Rng rng(408);
  for (int k = 0; k < 6; ++k) {
    const auto live = ring.live_nodes();
    protocol.crash_node(live[rng.below(live.size())]);
  }
  EXPECT_FALSE(protocol.converged());  // holes and stale hosts

  const sim::Time crash_time = engine.now();
  // The converged tree of the *new* membership.
  const KTree target(ring, 2);
  engine.run_until(crash_time +
                   2.0 * static_cast<double>(target.height()) + 30.0);
  EXPECT_TRUE(protocol.converged())
      << "instances " << protocol.instance_count() << " target "
      << target.size();
}

TEST(Maintenance, CausalRepairChainIsConnectedAndQuietWhenIdle) {
  auto ring = make_ring(16, 3, 406);
  sim::Engine engine;
  MaintenanceProtocol protocol(engine, ring, 2, 1.0, unit_latency(ring));
  obs::Tracer tracer;
  test::CaptureSink captured;
  tracer.set_sink(&captured);
  protocol.attach_tracer(&tracer);
  protocol.start();
  engine.run_until(40.0);
  ASSERT_TRUE(protocol.converged());

  // Every lifecycle event is a span on the maintenance lane, and each
  // non-root event's parent is a span recorded before it -- the growth
  // of the tree reads as one connected DAG from the bootstrap.
  ASSERT_GT(tracer.event_count(), 0u);
  std::set<std::uint64_t> seen_spans;
  std::size_t roots = 0;
  for (const obs::TraceEvent& e : captured.events) {
    EXPECT_EQ(e.lane, "ktree.maintenance");
    EXPECT_NE(e.ctx.trace, 0u);
    ASSERT_NE(e.ctx.span, 0u);
    if (e.ctx.parent == 0) {
      ++roots;
    } else {
      EXPECT_TRUE(seen_spans.contains(e.ctx.parent)) << e.name;
    }
    seen_spans.insert(e.ctx.span);
  }
  EXPECT_EQ(roots, 1u);  // the bootstrap create; no reseeds happened

  // A converged steady state emits nothing: checks that act are the
  // only events, so idle periods add zero cost.
  const std::size_t converged_count = tracer.event_count();
  engine.run_until(engine.now() + 50.0);
  EXPECT_EQ(tracer.event_count(), converged_count);

  // A crash starts new causal chains, all of them parented to spans the
  // tracer has already recorded (or fresh reseed roots).
  const KTree before(ring, 2);
  const chord::NodeIndex root_host =
      ring.server(before.node(before.root()).host_vs).owner;
  protocol.crash_node(root_host);
  engine.run_until(engine.now() + 40.0);
  ASSERT_TRUE(protocol.converged());
  EXPECT_GT(tracer.event_count(), converged_count);
  seen_spans.clear();
  for (const obs::TraceEvent& e : captured.events) {
    if (e.ctx.parent != 0) {
      EXPECT_TRUE(seen_spans.contains(e.ctx.parent)) << e.name;
    }
    seen_spans.insert(e.ctx.span);
  }
}

TEST(Maintenance, DetachedTracerAllocatesNothing) {
  auto ring = make_ring(16, 3, 406);
  std::uint64_t untraced_events = 0;
  {
    sim::Engine engine;
    MaintenanceProtocol protocol(engine, ring, 2, 1.0, unit_latency(ring));
    protocol.start();
    engine.run_until(40.0);
    ASSERT_TRUE(protocol.converged());
    untraced_events = engine.events_executed();
  }
  // Attaching then detaching leaves the tracer untouched end to end --
  // no events, no ids -- and the engine schedule is identical.
  auto ring2 = make_ring(16, 3, 406);
  sim::Engine engine;
  MaintenanceProtocol protocol(engine, ring2, 2, 1.0, unit_latency(ring2));
  obs::Tracer tracer;
  protocol.attach_tracer(&tracer);
  protocol.attach_tracer(nullptr);
  protocol.start();
  engine.run_until(40.0);
  ASSERT_TRUE(protocol.converged());
  EXPECT_EQ(engine.events_executed(), untraced_events);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.ids_allocated(), 0u);
}

TEST(Maintenance, RootCrashIsRecovered) {
  auto ring = make_ring(8, 2, 409);
  sim::Engine engine;
  MaintenanceProtocol protocol(engine, ring, 2, 1.0, unit_latency(ring));
  protocol.start();
  engine.run_until(30.0);
  ASSERT_TRUE(protocol.converged());
  // Crash the node hosting the root instance.
  const KTree before(ring, 2);
  const chord::NodeIndex root_host =
      ring.server(before.node(before.root()).host_vs).owner;
  protocol.crash_node(root_host);
  engine.run_until(engine.now() + 40.0);
  EXPECT_TRUE(protocol.converged());
}

TEST(Maintenance, PrunesAfterMembershipGrowth) {
  // Adding many servers shrinks arcs; regions that were leaves must
  // split, and (conversely) removing servers later forces pruning.
  auto ring = make_ring(4, 2, 410);
  sim::Engine engine;
  MaintenanceProtocol protocol(engine, ring, 2, 1.0, unit_latency(ring));
  protocol.start();
  engine.run_until(30.0);
  ASSERT_TRUE(protocol.converged());
  const std::size_t before = protocol.instance_count();

  Rng rng(411);
  const auto fresh = ring.add_node(1.0);
  for (int v = 0; v < 16; ++v)
    (void)ring.add_random_virtual_server(fresh, rng);
  engine.run_until(engine.now() + 60.0);
  EXPECT_TRUE(protocol.converged());
  EXPECT_GT(protocol.instance_count(), before);

  // Graceful removal of the big node (its servers disappear).
  protocol.crash_node(fresh);
  engine.run_until(engine.now() + 60.0);
  EXPECT_TRUE(protocol.converged());
}

/// FNV-1a over the live instance listing, in for_each_instance order.
std::uint64_t listing_digest(const MaintenanceProtocol& protocol) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  protocol.for_each_instance([&](const Region& r, chord::Key host) {
    mix(r.lo);
    mix(r.len);
    mix(host);
  });
  return h;
}

TEST(Maintenance, ChurnEpisodeCountsArePinned) {
  // A seeded join/crash episode over a converged 128-node tree.  The
  // literals pin the whole schedule: how instances are stored and found
  // must not change what the protocol does, or when.
  auto ring = make_ring(128, 3, 412);
  sim::Engine engine;
  MaintenanceProtocol protocol(engine, ring, 2, 1.0, unit_latency(ring));
  protocol.start();
  engine.run_until(30.0);
  ASSERT_TRUE(protocol.converged());

  Rng rng(413);
  sim::Time churn_end = engine.now();
  for (int k = 0; k < 64; ++k) {
    churn_end += rng.exponential(0.5);
    engine.schedule_at(churn_end, [&] {
      if (rng.below(2) == 0) {
        const chord::NodeIndex n = ring.add_node(1.0);
        for (int v = 0; v < 3; ++v)
          (void)ring.add_random_virtual_server(n, rng);
      } else {
        const auto live = ring.live_nodes();
        protocol.crash_node(live[rng.below(live.size())]);
      }
    });
  }
  engine.run_until(churn_end);
  int intervals = 0;
  while (!protocol.converged() && intervals < 100) {
    engine.run_until(engine.now() + 1.0);
    ++intervals;
  }
  ASSERT_TRUE(protocol.converged());

  EXPECT_EQ(intervals, 9);
  EXPECT_EQ(engine.events_executed(), 41273u);
  EXPECT_EQ(protocol.messages(), 933u);
  EXPECT_EQ(protocol.instance_count(), 823u);
  std::size_t listed = 0;
  protocol.for_each_instance([&](const Region&, chord::Key) { ++listed; });
  EXPECT_EQ(listed, 823u);
  EXPECT_EQ(listing_digest(protocol), 13511942549977987334ull);
}

TEST(Maintenance, OneCheckChainPerInstance) {
  // Remote creates take a quarter interval, so instances check at four
  // phases.  After a crash a parent can recreate a lost child on a host
  // local to it before the dead instance's pending check fires; that
  // check must die with its instance, not adopt the new one.
  auto ring = make_ring(32, 3, 414);
  sim::Engine engine;
  MaintenanceProtocol protocol(engine, ring, 2, 1.0,
                               unit_latency(ring, 0.25));
  protocol.start();
  engine.run_until(30.0);
  ASSERT_TRUE(protocol.converged());

  Rng rng(415);
  for (int k = 0; k < 8; ++k) {
    engine.run_until(engine.now() + 0.1);
    const auto live = ring.live_nodes();
    protocol.crash_node(live[rng.below(live.size())]);
    engine.run_until(engine.now() + 20.0);
    ASSERT_TRUE(protocol.converged());
  }
  // Quiet intervals, off the quarter-tick event times: every instance
  // checks once and the root watchdog fires once.
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t before = engine.events_executed();
    engine.run_until(engine.now() + 1.0);
    EXPECT_EQ(engine.events_executed() - before,
              protocol.instance_count() + 1)
        << "interval " << k;
  }
}

}  // namespace
}  // namespace p2plb::ktree
