// Differential tests: the timer-wheel engine against the binary-heap
// engine it replaced (kept behind sim::QueueKind::kBinaryHeap).
//
// The wheel is a pure scheduling-order optimization -- for any program,
// both engines must execute the same callbacks at the same simulated
// times in the same order.  Two layers of evidence:
//
//   * a randomized scheduling fuzz whose callbacks schedule, cancel and
//     chain further events (with fractional times, same-tick collisions,
//     run_until parking and post-park near-future schedules -- the wheel's
//     early-heap path);
//   * the 128-node 3-round balancing scenario with a tracer attached:
//     the JSONL trace of the whole run must be BYTE-identical across
//     engines, which pins delivery order, span-id draws and timestamps
//     all at once.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "lb/protocol_round.h"
#include "obs/binary_trace.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace p2plb {
namespace {

/// (simulated time, marker) execution log of one fuzz run.
using Log = std::vector<std::tuple<double, int>>;

/// Run the same randomized scheduling program on the given engine kind.
/// All randomness comes from an Rng consumed inside callbacks; if the two
/// engines execute callbacks in the same order, the draws align and the
/// programs stay identical -- any order divergence shows up as a log
/// mismatch within a few events.
Log run_fuzz(sim::QueueKind kind, std::uint64_t seed) {
  Log log;
  sim::Engine engine(kind);
  Rng rng(seed);
  std::vector<sim::EventId> pending;
  int next_marker = 0;

  std::function<void(int)> fire = [&](int marker) {
    log.emplace_back(engine.now(), marker);
    // Chain: children at fractional and integral offsets, including
    // zero-delay (same-tick FIFO) and same-tick different-fraction.
    const std::uint64_t what = rng.below(10);
    if (what < 4) {
      const double delay =
          static_cast<double>(rng.below(64)) +
          (rng.below(2) == 0 ? 0.0 : 0.25 + 0.5 * static_cast<double>(
                                                rng.below(2)));
      const int m = next_marker++;
      pending.push_back(
          engine.schedule_after(delay, [&fire, m] { fire(m); }));
    } else if (what < 6 && !pending.empty()) {
      // Cancel an arbitrary id (often already executed: cancel must
      // return false identically on both engines).
      const std::size_t pick = rng.below(pending.size());
      const bool cancelled = engine.cancel(pending[pick]);
      log.emplace_back(engine.now(), cancelled ? -1 : -2);
    }
  };

  for (int i = 0; i < 400; ++i) {
    const double t = static_cast<double>(rng.below(256)) +
                     static_cast<double>(rng.below(4)) * 0.25;
    const int m = next_marker++;
    pending.push_back(engine.schedule_at(t, [&fire, m] { fire(m); }));
  }
  // Cooperative-stop periodic: fires at 3.5, 7.0, ... until 5 ticks.
  int periodic_left = 5;
  (void)engine.every(3.5, [&] {
    log.emplace_back(engine.now(), -10);
    return --periodic_left > 0;
  });

  // Park the clock mid-run, then schedule near-future events: on the
  // wheel this lands behind the advanced horizon (the early-heap path).
  engine.run_until(100.125);
  for (int i = 0; i < 50; ++i) {
    const double delay = static_cast<double>(rng.below(8)) * 0.5;
    const int m = next_marker++;
    pending.push_back(engine.schedule_after(delay, [&fire, m] { fire(m); }));
  }
  engine.run_until(170.75);
  for (int i = 0; i < 50; ++i) {
    const double t = 171.0 + static_cast<double>(rng.below(512)) * 0.125;
    const int m = next_marker++;
    pending.push_back(engine.schedule_at(t, [&fire, m] { fire(m); }));
  }
  engine.run();
  log.emplace_back(engine.now(), -100);
  return log;
}

TEST(EngineEquivalence, RandomScheduleFuzz) {
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    const Log wheel = run_fuzz(sim::QueueKind::kTimerWheel, seed);
    const Log heap = run_fuzz(sim::QueueKind::kBinaryHeap, seed);
    ASSERT_EQ(wheel.size(), heap.size()) << "seed " << seed;
    for (std::size_t i = 0; i < wheel.size(); ++i) {
      EXPECT_EQ(wheel[i], heap[i])
          << "seed " << seed << " diverges at log entry " << i;
    }
  }
}

/// Tick spans that reach every wheel level from the horizon: level 0
/// (no span), levels 1-3 (2^8, 2^16, 2^24 ticks) and the far list (2^32
/// ticks and beyond).
constexpr double kSpans[] = {0.0,        256.0,        65536.0,
                             16777216.0, 4294967296.0, 8589934592.0};

/// A delay landing at a random level: a span, a small integer jitter
/// and a quarter-tick fraction.
double deep_delay(Rng& rng) {
  return kSpans[rng.below(std::size(kSpans))] +
         static_cast<double>(rng.below(4)) +
         0.25 * static_cast<double>(rng.below(4));
}

/// Like run_fuzz, but the delays span every wheel level and the far
/// list, and callbacks schedule "twins": events at the exact firing time
/// of an earlier-scheduled one.  The earlier event sits in a higher
/// level (or far_) and reaches level 0 by cascade; its twin is often
/// inserted directly into the same bucket later.  Both must fire in
/// schedule order, which pins the wheel's bucket-order invariant (the
/// engine's stable sort by time relies on it).
Log run_deep_fuzz(sim::QueueKind kind, std::uint64_t seed,
                  std::uint64_t* far_inserts) {
  Log log;
  sim::Engine engine(kind);
  Rng rng(seed);
  std::vector<double> times;  // every firing time scheduled so far
  int next_marker = 0;
  std::function<void(int)> fire;
  const auto schedule = [&](double t) {
    const int m = next_marker++;
    engine.schedule_at(t, [&fire, m] { fire(m); });
    times.push_back(t);
  };
  fire = [&](int marker) {
    log.emplace_back(engine.now(), marker);
    if (next_marker >= 3000) return;
    const std::uint64_t what = rng.below(4);
    if (what < 2) {
      schedule(engine.now() + deep_delay(rng));
    } else if (what == 2) {
      const double t = times[rng.below(times.size())];
      schedule(t >= engine.now() ? t : engine.now() + deep_delay(rng));
    }
  };

  // Pinned cascade-vs-direct twins at every level: A is bucketed at
  // level L (or far_) at time 0; the trigger fires one tick earlier,
  // after A's bucket has cascaded to level 0, and inserts B at A's
  // exact time directly.
  for (const double span : kSpans) {
    const double t = 3.0 * span + 7.5;
    schedule(t);
    engine.schedule_at(t - 1.0, [&schedule, t] { schedule(t); });
  }
  for (int i = 0; i < 300; ++i) schedule(deep_delay(rng));

  // Park mid-run and schedule near-future events (the early-heap path).
  engine.run_until(1048576.5);
  for (int i = 0; i < 20; ++i)
    schedule(engine.now() + 0.25 * static_cast<double>(rng.below(8)));
  engine.run();
  log.emplace_back(engine.now(), -100);
  *far_inserts = engine.introspection().far_inserts;
  return log;
}

TEST(EngineEquivalence, DeepLevelAndFarListScheduleFuzz) {
  for (const std::uint64_t seed : {41u, 42u, 43u}) {
    std::uint64_t wheel_far = 0;
    std::uint64_t heap_far = 0;
    const Log wheel =
        run_deep_fuzz(sim::QueueKind::kTimerWheel, seed, &wheel_far);
    const Log heap = run_deep_fuzz(sim::QueueKind::kBinaryHeap, seed, &heap_far);
    EXPECT_GT(wheel_far, 0u) << "seed " << seed << " never used the far list";
    ASSERT_EQ(wheel.size(), heap.size()) << "seed " << seed;
    for (std::size_t i = 0; i < wheel.size(); ++i) {
      EXPECT_EQ(wheel[i], heap[i])
          << "seed " << seed << " diverges at log entry " << i;
    }
  }
}

/// The regression scenario: 128 nodes, 5 VS each, three consecutive
/// timed balancing rounds over unit latency with a tracer attached the
/// whole time.  Returns the full JSONL trace.
std::string run_traced_scenario(sim::QueueKind kind) {
  Rng rng(31);
  auto ring = workload::build_ring(
      128, 5, workload::CapacityProfile::gnutella_like(), rng);
  const auto model = workload::scaled_load_model(
      ring, workload::LoadDistribution::kGaussian, 0.25, 1.0);
  workload::assign_loads(ring, model, rng);

  sim::Engine engine(kind);
  sim::Network net(engine, sim::LatencyFn{[](sim::Endpoint a, sim::Endpoint b) {
                     return a == b ? 0.0 : 1.0;
                   }});
  obs::Tracer tracer;
  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  tracer.set_sink(&sink);
  net.attach_tracer(&tracer);
  Rng round_rng(32);
  for (int r = 0; r < 3; ++r) {
    lb::ProtocolRound round(net, ring, {}, round_rng);
    round.start();
    engine.run();
    EXPECT_TRUE(round.done());
  }
  return out.str();
}

TEST(EngineEquivalence, TracedThreeRoundScenarioIsByteIdentical) {
  const std::string wheel = run_traced_scenario(sim::QueueKind::kTimerWheel);
  const std::string heap = run_traced_scenario(sim::QueueKind::kBinaryHeap);
  ASSERT_FALSE(wheel.empty());
  EXPECT_TRUE(wheel == heap)
      << "JSONL traces diverge (wheel " << wheel.size() << " bytes, heap "
      << heap.size() << " bytes)";
}

}  // namespace
}  // namespace p2plb
