// Unit tests for the discrete-event engine and the simulated network.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/alert.h"
#include "obs/binary_trace.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "topo/distance_oracle.h"

namespace p2plb::sim {
namespace {

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
}

TEST(Engine, SameTimeFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    e.schedule_at(5.0, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfterUsesNow) {
  Engine e;
  double fired_at = -1.0;
  e.schedule_at(2.0, [&] {
    e.schedule_after(3.0, [&] { fired_at = e.now(); });
  });
  e.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // already cancelled
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.events_executed(), 0u);
}

TEST(Engine, RunUntilStopsAndAdvancesClock) {
  Engine e;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0})
    e.schedule_at(t, [&fired, &e] { fired.push_back(e.now()); });
  EXPECT_EQ(e.run_until(2.5), 2u);
  EXPECT_DOUBLE_EQ(e.now(), 2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  e.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Engine, RunUntilSkipsCancelledWithoutExecuting) {
  Engine e;
  bool fired = false;
  const EventId id = e.schedule_at(1.0, [&] { fired = true; });
  e.cancel(id);
  EXPECT_EQ(e.run_until(5.0), 0u);
  EXPECT_FALSE(fired);
}

TEST(Engine, PeriodicTimerStopsWhenCallbackSaysSo) {
  Engine e;
  int ticks = 0;
  e.every(1.0, [&] {
    ++ticks;
    return ticks < 5;
  });
  e.run();
  EXPECT_EQ(ticks, 5);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, CancelStopsPeriodicChain) {
  Engine e;
  int ticks = 0;
  const EventId id = e.every(1.0, [&] {
    ++ticks;
    return true;  // would run forever
  });
  // Let three occurrences fire, then cancel: the id refers to the whole
  // chain, so no further occurrence may run.
  e.run_until(3.5);
  EXPECT_EQ(ticks, 3);
  EXPECT_TRUE(e.cancel(id));
  e.run_until(10.0);
  EXPECT_EQ(ticks, 3);
  EXPECT_FALSE(e.cancel(id));  // chain is gone
}

TEST(Engine, CancelBeforeFirstPeriodicTick) {
  Engine e;
  int ticks = 0;
  const EventId id = e.every(1.0, [&] {
    ++ticks;
    return true;
  });
  EXPECT_TRUE(e.cancel(id));
  e.run();
  EXPECT_EQ(ticks, 0);
}

TEST(Engine, PeriodicIdSpentAfterCooperativeStop) {
  Engine e;
  const EventId id = e.every(1.0, [] { return false; });
  e.run();
  EXPECT_FALSE(e.cancel(id));  // timer already ended itself
}

TEST(Engine, NestedScheduling) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 64) e.schedule_after(1.0, recurse);
  };
  e.schedule_at(0.0, recurse);
  e.run();
  EXPECT_EQ(depth, 64);
  EXPECT_DOUBLE_EQ(e.now(), 63.0);
}

TEST(Engine, RejectsPastAndBadInput) {
  Engine e;
  e.schedule_at(5.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(4.0, [] {}), PreconditionError);
  EXPECT_THROW(e.schedule_after(-1.0, [] {}), PreconditionError);
  EXPECT_THROW(e.schedule_after(1.0, nullptr), PreconditionError);
  EXPECT_THROW(e.every(0.0, [] { return false; }), PreconditionError);
}

TEST(Engine, RejectsNonFiniteFiringTimes) {
  const Time inf = std::numeric_limits<Time>::infinity();
  for (const QueueKind kind : {QueueKind::kTimerWheel, QueueKind::kBinaryHeap}) {
    Engine e(kind);
    EXPECT_THROW(e.schedule_at(inf, [] {}), PreconditionError);
    EXPECT_THROW(e.schedule_at(std::nan(""), [] {}), PreconditionError);
    EXPECT_THROW(e.schedule_at(core::kTimeLimit, [] {}), PreconditionError);
    EXPECT_THROW(e.schedule_after(inf, [] {}), PreconditionError);
    EXPECT_THROW(e.every(inf, [] { return true; }), PreconditionError);
    EXPECT_EQ(e.pending(), 0u);
    // The last representable time below 2^64 still has a wheel tick.
    const Time last = std::nextafter(core::kTimeLimit, 0.0);
    int fired = 0;
    e.schedule_at(last, [&] { ++fired; });
    EXPECT_EQ(e.run(), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(e.now(), last);
    // now() + delay rounds up to 2^64.
    EXPECT_THROW(e.schedule_after(4096.0, [] {}), PreconditionError);
  }
}

TEST(Engine, RunWithMaxEvents) {
  Engine e;
  int fired = 0;
  for (int i = 0; i < 10; ++i)
    e.schedule_at(static_cast<Time>(i), [&] { ++fired; });
  EXPECT_EQ(e.run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(e.pending(), 6u);
}

// --- EventFn --------------------------------------------------------------

/// A callable of exactly N bytes (alignment 1) that reports the address
/// it is invoked at: inside the EventFn object means stored inline.
template <std::size_t N>
struct AddressProbe {
  std::array<unsigned char, N> bytes{};
  explicit AddressProbe(const void** out) {
    std::memcpy(bytes.data(), static_cast<const void*>(&out), sizeof out);
  }
  void operator()() const {
    const void** out = nullptr;
    std::memcpy(static_cast<void*>(&out), bytes.data(), sizeof out);
    *out = this;
  }
};

bool stored_inside(const void* where, const EventFn& fn) {
  const auto p = reinterpret_cast<std::uintptr_t>(where);
  const auto begin = reinterpret_cast<std::uintptr_t>(&fn);
  return p >= begin && p < begin + sizeof fn;
}

TEST(EventFn, StoresUpTo24BytesInline) {
  static_assert(sizeof(AddressProbe<24>) == 24);
  static_assert(sizeof(AddressProbe<25>) == 25);
  static_assert(EventFn::stores_inline<AddressProbe<24>>);
  static_assert(!EventFn::stores_inline<AddressProbe<25>>);

  const void* where = nullptr;
  EventFn small = AddressProbe<24>(&where);
  small();
  EXPECT_TRUE(stored_inside(where, small));
  EventFn moved = std::move(small);
  EXPECT_TRUE(small == nullptr);
  moved();
  EXPECT_TRUE(stored_inside(where, moved));

  EventFn large = AddressProbe<25>(&where);
  large();
  EXPECT_FALSE(stored_inside(where, large));
  const void* const heap_block = where;
  EventFn moved_large = std::move(large);
  moved_large();
  EXPECT_EQ(where, heap_block);  // a move hands over the block

  // The shapes the protocols schedule stay inline: an lb handler's
  // [this, index], ProtocolRound::vsa_send's [this, [this, leaf]] and a
  // K-nary sweep's [shared_ptr, child].
  int* self = nullptr;
  std::uint32_t leaf = 0;
  const auto lb = [self, leaf] { return self != nullptr && leaf > 0; };
  const auto vsa = [self, lb] { return self != nullptr && lb(); };
  const auto sweep = [state = std::make_shared<int>(0), leaf] {
    return *state > 0 && leaf > 0;
  };
  static_assert(EventFn::stores_inline<decltype(lb)>);
  static_assert(sizeof(vsa) == 24 && EventFn::stores_inline<decltype(vsa)>);
  static_assert(EventFn::stores_inline<decltype(sweep)>);
}

TEST(EventFn, AcceptsMoveOnlyCaptures) {
  Engine e;
  int seen = 0;
  auto box = std::make_unique<int>(7);
  e.schedule_at(1.0, [&seen, box = std::move(box)] { seen = *box; });
  e.run();
  EXPECT_EQ(seen, 7);
}

/// Counts its own destructions and calls; a moved-from copy counts
/// nothing, so `destroyed` tracks the one live closure.
template <std::size_t Pad>
struct Counted {
  int* destroyed;
  int* fired;
  std::array<char, Pad> pad{};
  Counted(int* d, int* f) : destroyed(d), fired(f) {}
  Counted(Counted&& o) noexcept
      : destroyed(std::exchange(o.destroyed, nullptr)), fired(o.fired) {}
  Counted& operator=(Counted&&) = delete;
  ~Counted() {
    if (destroyed != nullptr) ++*destroyed;
  }
  void operator()() const { ++*fired; }
};

template <std::size_t Pad>
void expect_destroyed_once() {
  for (const QueueKind kind : {QueueKind::kTimerWheel, QueueKind::kBinaryHeap}) {
    int destroyed = 0;
    int fired = 0;
    {
      Engine e(kind);
      e.schedule_at(1.0, Counted<Pad>(&destroyed, &fired));
      e.run();
      EXPECT_EQ(fired, 1);
      EXPECT_EQ(destroyed, 1) << "on fire";

      const EventId id = e.schedule_at(2.0, Counted<Pad>(&destroyed, &fired));
      EXPECT_TRUE(e.cancel(id));
      EXPECT_EQ(destroyed, 2) << "on cancel";
      e.run();
      EXPECT_EQ(destroyed, 2);

      e.schedule_at(3.0, Counted<Pad>(&destroyed, &fired));
      e.schedule_at(3.0 + 70000.0, Counted<Pad>(&destroyed, &fired));
      EXPECT_EQ(destroyed, 2);
    }
    EXPECT_EQ(destroyed, 4) << "on engine destruction";
    EXPECT_EQ(fired, 1);
  }
}

TEST(EventFn, ClosureDestroyedExactlyOnce) {
  static_assert(EventFn::stores_inline<Counted<0>>);
  static_assert(!EventFn::stores_inline<Counted<16>>);
  expect_destroyed_once<0>();   // inline
  expect_destroyed_once<16>();  // heap
}

TEST(EventFn, EmptyCallablesAreRejected) {
  Engine e;
  const std::function<void()> empty;
  void (*null_fn)() = nullptr;
  EXPECT_TRUE(EventFn(empty) == nullptr);
  EXPECT_TRUE(EventFn(null_fn) == nullptr);
  EXPECT_THROW(e.schedule_at(1.0, empty), PreconditionError);
  EXPECT_THROW(e.schedule_at(1.0, null_fn), PreconditionError);
  EXPECT_THROW(e.schedule_after(1.0, std::function<void()>{}),
               PreconditionError);
  EXPECT_EQ(e.pending(), 0u);
  int fired = 0;
  const std::function<void()> full = [&fired] { ++fired; };
  e.schedule_at(1.0, full);
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Network, OracleLatencyRequiresAFiniteUnreachableCost) {
  topo::Graph g(3);
  g.add_edge(0, 1, 2.0);  // vertex 2 is disconnected
  topo::DistanceOracle oracle(g);
  EXPECT_THROW((void)oracle.latency(std::numeric_limits<double>::infinity()),
               PreconditionError);
  EXPECT_THROW((void)oracle.latency(std::nan("")), PreconditionError);
  EXPECT_THROW((void)oracle.latency(-1.0), PreconditionError);
  Engine e;
  Network net(e, oracle.latency(50.0));
  std::vector<Time> delivered;
  net.send(0, 1, [&] { delivered.push_back(e.now()); });
  net.send(0, 2, [&] { delivered.push_back(e.now()); });
  e.run();
  EXPECT_EQ(delivered, (std::vector<Time>{2.0, 50.0}));
}

TEST(Network, DeliversWithLatency) {
  Engine e;
  Network net(e, [](Endpoint a, Endpoint b) {
    return static_cast<Time>(a > b ? a - b : b - a);
  });
  double delivered_at = -1.0;
  net.send(10, 13, [&] { delivered_at = e.now(); }, 100.0);
  e.run();
  EXPECT_DOUBLE_EQ(delivered_at, 3.0);
  EXPECT_EQ(net.totals().messages, 1u);
  EXPECT_DOUBLE_EQ(net.totals().bytes, 100.0);
  EXPECT_DOUBLE_EQ(net.totals().mean_latency(), 3.0);
}

TEST(Network, ProcessingDelayAdds) {
  Engine e;
  Network net(e, [](Endpoint, Endpoint) { return 2.0; });
  double delivered_at = -1.0;
  net.send(0, 1, [&] { delivered_at = e.now(); }, 0.0, 1.5);
  e.run();
  EXPECT_DOUBLE_EQ(delivered_at, 3.5);
}

TEST(Network, CountersAccumulate) {
  Engine e;
  Network net(e, [](Endpoint, Endpoint) { return 1.0; });
  net.send(0, 1, [] {});
  net.send(0, 2, [] {}, 50.0);
  EXPECT_EQ(net.totals().messages, 2u);
  EXPECT_DOUBLE_EQ(net.totals().bytes, 50.0);
  e.run();
  // Counted at send time: delivery adds nothing.
  EXPECT_EQ(net.totals().messages, 2u);
}

TEST(Network, LatencyMayBeAsymmetric) {
  Engine e;
  // Uplink slower than downlink, as on a real access network.
  Network net(e, [](Endpoint from, Endpoint to) {
    return from < to ? 5.0 : 1.0;
  });
  EXPECT_DOUBLE_EQ(net.latency_between(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(net.latency_between(1, 0), 1.0);
  std::vector<int> order;
  net.send(0, 1, [&] { order.push_back(1); });  // arrives at 5
  net.send(1, 0, [&] { order.push_back(2); });  // arrives at 1
  e.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_DOUBLE_EQ(net.totals().mean_latency(), 3.0);
}

TEST(Network, ProcessingDelayOrdersAgainstSameTimeEvents) {
  Engine e;
  Network net(e, [](Endpoint, Endpoint) { return 2.0; });
  std::vector<int> order;
  // Same delivery instant (t = 3): ties break by scheduling order, so the
  // processed message (scheduled first) still precedes the plain event.
  net.send(0, 1, [&] { order.push_back(1); }, 0.0, 1.0);
  e.schedule_at(3.0, [&] { order.push_back(2); });
  // Strictly later delivery (t = 3.5) runs last despite equal latency.
  net.send(0, 1, [&] { order.push_back(3); }, 0.0, 1.5);
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  // processing_delay is compute time, not wire time: latency accounting
  // sees only the link.
  EXPECT_DOUBLE_EQ(net.totals().mean_latency(), 2.0);
}

TEST(Network, PerTagCountersTrackBytesIndependently) {
  Engine e;
  Network net(e, [](Endpoint, Endpoint) { return 1.0; });
  net.send(0, 1, [] {}, 10.0, 0.0, "alpha");
  net.send(0, 1, [] {}, 20.0, 0.0, "alpha");
  net.send(0, 1, [] {}, 5.0, 0.0, "beta");
  net.send(0, 1, [] {}, 7.0);  // untagged: totals only
  e.run();

  EXPECT_EQ(net.counters("alpha").messages, 2u);
  EXPECT_DOUBLE_EQ(net.counters("alpha").bytes, 30.0);
  EXPECT_EQ(net.counters("beta").messages, 1u);
  EXPECT_DOUBLE_EQ(net.counters("beta").bytes, 5.0);
  EXPECT_EQ(net.counters("gamma").messages, 0u);  // never used: all-zero
  EXPECT_EQ(net.totals().messages, 4u);
  EXPECT_DOUBLE_EQ(net.totals().bytes, 42.0);
}

TEST(TrafficCounters, MeanLatencyOfZeroMessagesIsZero) {
  TrafficCounters c;
  EXPECT_DOUBLE_EQ(c.mean_latency(), 0.0);
  c.latency_sum = 5.0;  // degenerate: latency mass but no messages
  EXPECT_DOUBLE_EQ(c.mean_latency(), 0.0);

  Engine e;
  Network net(e, [](Endpoint, Endpoint) { return 1.0; });
  // A fresh network and a never-used tag both read as zero, not NaN.
  EXPECT_DOUBLE_EQ(net.totals().mean_latency(), 0.0);
  EXPECT_DOUBLE_EQ(net.counters("never-used").mean_latency(), 0.0);
}

TEST(Network, TagsInterleavedKeepSeparateMeans) {
  Engine e;
  // Distinct per-destination latencies so each tag has its own mean.
  Network net(e, [](Endpoint, Endpoint to) {
    return static_cast<Time>(to);
  });
  // Alternating tags miss the last-tag memo on every send.
  net.send(0, 1, [] {}, 10.0, 0.0, "alpha");
  net.send(0, 2, [] {}, 4.0, 0.0, "beta");
  net.send(0, 3, [] {}, 10.0, 0.0, "alpha");
  net.send(0, 6, [] {}, 4.0, 0.0, "beta");
  e.run();
  EXPECT_EQ(net.counters("alpha").messages, 2u);
  EXPECT_DOUBLE_EQ(net.counters("alpha").mean_latency(), 2.0);
  EXPECT_EQ(net.counters("beta").messages, 2u);
  EXPECT_DOUBLE_EQ(net.counters("beta").mean_latency(), 4.0);
  EXPECT_DOUBLE_EQ(net.totals().mean_latency(), 3.0);
}

// ---------------------------------------------------------------------------
// Windows attached to the engine close every boundary on time
// ---------------------------------------------------------------------------

struct QuietRun {
  std::uint64_t executed = 0;
  std::vector<std::pair<double, double>> readings;  ///< (boundary, v)
  double last_boundary = 0.0;
};

/// A gauge `v` that events change at t = 0.5, 1.5 and exactly on the
/// boundary 7, with no event at all in (1.5, 7): five quiet buckets.
/// With windows, a probe samples v into every closing 1-wide bucket.
QuietRun run_quiet_stretch(bool with_windows) {
  Engine e;
  double v = 0.0;
  obs::WindowedAggregator w({1.0, 16});
  QuietRun out;
  if (with_windows) {
    const obs::SeriesId g = w.gauge_series("v");
    w.add_boundary_probe([&w, &v, g](double t) { w.record(g, t, v); });
    w.add_boundary_hook([&w, &out, g](double t) {
      out.readings.emplace_back(t, w.last_over(g, 1));
    });
    e.attach_windows(&w);
  }
  e.schedule_at(0.5, [&v] { v = 1.0; });
  e.schedule_at(1.5, [&v] { v = 2.0; });
  e.schedule_at(7.0, [&v] { v = 3.0; });
  e.run_until(9.0);
  out.executed = e.events_executed();
  out.last_boundary = w.last_boundary();
  return out;
}

TEST(EngineWindows, EveryBoundaryReadsTheStateAtItsOwnTime) {
  const QuietRun plain = run_quiet_stretch(false);
  const QuietRun windowed = run_quiet_stretch(true);
  // Closing a boundary is not an event.
  EXPECT_EQ(windowed.executed, plain.executed);
  EXPECT_EQ(windowed.executed, 3u);
  // Boundaries 3..6 close in the quiet stretch with the value of their
  // own time; boundary 7 closes before the event at 7 runs; run_until(9)
  // closes 8 and 9 with no event left to pass them.
  const std::vector<std::pair<double, double>> want{
      {1.0, 1.0}, {2.0, 2.0}, {3.0, 2.0}, {4.0, 2.0}, {5.0, 2.0},
      {6.0, 2.0}, {7.0, 2.0}, {8.0, 3.0}, {9.0, 3.0}};
  EXPECT_EQ(windowed.readings, want);
  EXPECT_EQ(windowed.last_boundary, 9.0);
}

TEST(EngineWindows, NetworkAttachHandsTheWindowsToItsEngine) {
  // One message with a latency of five buckets: every boundary it
  // crosses is closed before the delivery runs, not at the next send.
  Engine e;
  Network net(e, [](Endpoint, Endpoint) { return 5.0; });
  obs::WindowedAggregator w({1.0, 16});
  net.attach_windows(&w);
  std::size_t closed_at_delivery = 0;
  net.send(0, 1, [&] { closed_at_delivery = w.closed_buckets(); });
  e.run();
  EXPECT_EQ(closed_at_delivery, 5u);
  EXPECT_EQ(w.last_boundary(), 5.0);
  const obs::SeriesId messages = w.find_series("net.messages");
  ASSERT_TRUE(messages.valid());
  EXPECT_DOUBLE_EQ(w.sum_over(messages, 5), 1.0);
}

TEST(EngineWindows, AlertInstantsAreTimeOrderedInTheTrace) {
  // Latency 5 over 1-wide buckets: each delivery crosses five
  // boundaries, and the rule fires and resolves between deliveries.
  Engine e;
  Network net(e, [](Endpoint, Endpoint) { return 5.0; });
  obs::Tracer tracer;
  std::ostringstream os;
  obs::JsonlTraceSink sink(os);
  tracer.set_sink(&sink);
  net.attach_tracer(&tracer);
  obs::WindowedAggregator w({1.0, 16});
  net.attach_windows(&w);
  obs::AlertEngine alerts(
      w, obs::parse_alert_rules("busy net.messages sum > 0\n"));
  alerts.attach_tracer(&tracer);
  // Four hops, sent at t = 0, 5, 10 and 15.
  std::function<void(int)> hop = [&](int left) {
    if (left > 0) net.send(0, 1, [&hop, left] { hop(left - 1); });
  };
  hop(4);
  e.run();
  ASSERT_EQ(alerts.events().size(), 8u);  // fire at 5k+1, resolve at 5k+2

  std::istringstream in(os.str());
  std::string line;
  double prev = 0.0;
  std::size_t alert_lines = 0;
  while (std::getline(in, line)) {
    ASSERT_EQ(line.rfind("{\"t\":", 0), 0u) << line;
    const double t = std::stod(line.substr(5));
    EXPECT_LE(prev, t) << line;
    prev = t;
    if (line.find("\"lane\":\"alert\"") != std::string::npos) ++alert_lines;
  }
  EXPECT_EQ(alert_lines, 8u);
}

}  // namespace
}  // namespace p2plb::sim
