// Discrete-event simulation engine.
//
// A single-threaded event queue with deterministic ordering: events firing
// at the same simulated time run in scheduling order, so a (seed, scenario)
// pair always replays identically.  The engine knows nothing about the
// network or the DHT; higher layers (sim::Network, the K-nary tree
// protocols) build on `schedule_*`.
//
// Internally (see src/sim/core/) events live in a slab arena with
// generation-tagged handles, each carrying a move-only EventFn that
// stores small captures inline, and ordering comes from one of two
// interchangeable queues selected at construction:
//   - kTimerWheel (default): a 4-level hierarchical timer wheel keyed on
//     integer ticks, draining one tick's events as a batch sorted by
//     (time, seq).  O(1) insert/extract for the near-future delays the
//     latency oracle produces, and same-timestamp deliveries share one
//     extraction.  Buckets are contiguous (time, slot) vectors, so
//     locating the next event reads no arena node.
//   - kBinaryHeap: the classic priority-queue ordering, kept as the
//     differential-testing reference (tests/engine_equivalence_test.cpp
//     pins byte-identical traces between the two).
// Both orders are the same total order (time, then schedule seq), so the
// choice is invisible to everything above step().  Firing times must be
// finite and below 2^64 (core::kTimeLimit) on either queue.
//
// The engine closes an attached obs::WindowedAggregator's buckets: it
// advances them to t before dispatching an event at time t, and to t_end
// in run_until(t_end).  A boundary's probes read the state at the
// boundary, and no event is added.
//
// Scheduling, moving and firing an event allocate nothing once the
// arena and the wheel's buckets have grown to the working set, as long
// as the callback's captures fit EventFn's inline buffer (24 bytes).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "sim/core/event_arena.h"
#include "sim/core/flight_recorder.h"
#include "sim/core/timer_wheel.h"
#include "sim/core/types.h"

namespace p2plb::obs {
class Profiler;
struct Sample;
class WindowedAggregator;
}

namespace p2plb::sim {

/// Simulated time, in abstract latency units (one intradomain hop = 1).
using Time = core::Time;

/// Handle for cancelling a scheduled event.
using EventId = core::EventId;

/// Callback invoked when an event fires.
using EventFn = core::EventFn;

/// Which ordering structure backs the engine (see file comment).
enum class QueueKind { kTimerWheel, kBinaryHeap };

/// Point-in-time view of the engine's queue internals, for the flight
/// recorder dump and the sim.* metrics.
struct EngineIntrospection {
  std::uint64_t executed = 0;      ///< events fired so far
  std::uint64_t pending = 0;       ///< live events awaiting execution
  std::uint64_t wheel_inserts = 0; ///< inserts bucketed by the wheel
  std::uint64_t batch_splices = 0; ///< inserts spliced into the live batch
  std::uint64_t early_inserts = 0; ///< side-heap hits (below the horizon)
  std::uint64_t heap_inserts = 0;  ///< kBinaryHeap-mode inserts
  std::uint64_t batch_refills = 0; ///< ticks drained from the wheel
  std::uint64_t wheel_occupancy[core::TimerWheel::kLevelCount] = {};
  std::uint64_t far_pending = 0;   ///< slots beyond the level-3 window
  std::uint64_t far_inserts = 0;   ///< overflow-list hits (cumulative)
  std::uint64_t arena_high_water = 0;  ///< peak concurrently-live events
  std::uint64_t arena_capacity = 0;    ///< slots ever allocated
};

/// Deterministic discrete-event scheduler.
class Engine {
 public:
  explicit Engine(QueueKind kind = QueueKind::kTimerWheel);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// The ordering structure this engine was constructed with.
  [[nodiscard]] QueueKind queue_kind() const noexcept { return kind_; }

  /// Current simulated time.  Starts at 0 and only moves forward.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// Number of events currently pending (cancelled events excluded).
  [[nodiscard]] std::size_t pending() const noexcept {
    return arena_.live_count();
  }

  /// Schedule `fn` (non-empty) at absolute time `t`, which must be
  /// >= now() and below core::kTimeLimit (finite).
  EventId schedule_at(Time t, EventFn fn);

  /// Schedule `fn` (non-empty) after `delay` (must be >= 0) from now;
  /// now() + delay must be below core::kTimeLimit.
  EventId schedule_after(Time delay, EventFn fn);

  /// Cancel a pending event.  Returns false if it already fired or was
  /// already cancelled.
  bool cancel(EventId id);

  /// Install a periodic timer with the given period (> 0), first firing
  /// after one period.  The callback returns true to keep the timer alive,
  /// false to stop it.  The returned id refers to the whole periodic
  /// chain: every occurrence is scheduled under it, so cancel(id) stops
  /// the timer no matter how many times it has already fired.  Once the
  /// callback has stopped the chain cooperatively the id is spent and
  /// cancel(id) returns false.
  EventId every(Time period, std::function<bool()> fn);

  /// Execute the next pending event.  Returns false if the queue is empty.
  bool step();

  /// Run until the queue is empty or `max_events` executed.
  /// Returns the number of events executed by this call.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Run events with firing time <= t_end, then advance the clock (and
  /// the attached windows) to exactly t_end.  Returns the number of
  /// events executed by this call.
  std::uint64_t run_until(Time t_end);

  // --- Flight recorder & post-mortem hooks -------------------------------

  /// Stamp a record into `recorder` for every executed event (nullptr
  /// detaches).  The recorder is caller-owned and must outlive the
  /// engine's use of it; one pointer test per event when detached.
  void attach_flight_recorder(core::FlightRecorder* recorder) noexcept {
    recorder_ = recorder;
  }
  [[nodiscard]] core::FlightRecorder* flight_recorder() const noexcept {
    return recorder_;
  }

  /// Called once per detected anomaly (an exception escaping an event
  /// callback -- every P2PLB_ASSERT failure throws -- or a stall) with a
  /// one-line description, before the exception is rethrown.  Typical
  /// hook: write_flight_dump to a file.
  void set_anomaly_hook(std::function<void(const std::string&)> hook) {
    anomaly_hook_ = std::move(hook);
  }

  /// Flag an anomaly whenever a single event callback holds the engine
  /// for more than `wall_ms` of real time (the queue is not draining).
  /// Observes the wall clock but never feeds it back into the schedule,
  /// so determinism is unaffected.  <= 0 disables (the default).
  void enable_stall_detector(double wall_ms) noexcept {
    stall_wall_ms_ = wall_ms;
  }

  /// Attribute every event callback's wall time to `profiler` under an
  /// "engine.event" frame (layer "sim"); nullptr detaches.  Like the
  /// stall detector, the profiler observes the monotonic clock but never
  /// feeds the schedule -- attaching one leaves every trace byte
  /// identical.  Caller-owned; must outlive the engine's use of it.
  /// sim::Network::attach_profiler also lands here.
  void attach_profiler(obs::Profiler* profiler);
  [[nodiscard]] obs::Profiler* profiler() const noexcept { return profiler_; }

  /// Close `windows`' buckets on time (see the file comment; nullptr
  /// detaches).  Drivers call sim::Network::attach_windows, which also
  /// lands here.  Caller-owned; must outlive the engine's use of it.
  void attach_windows(obs::WindowedAggregator* windows) noexcept {
    windows_ = windows;
  }

  [[nodiscard]] EngineIntrospection introspection() const;

  /// Append the introspection counters to `rows` as sim.* rows stamped
  /// now() (sim.engine.executed, sim.wheel.occupancy{level=0}, ...).
  void export_metrics(std::vector<obs::Sample>& rows) const;

  /// Introspection counters plus the flight-recorder ring (when one is
  /// attached), as text, for post-mortem inspection.
  void write_flight_dump(std::ostream& os) const;

 private:
  /// Heap entry for the binary-heap queue and the wheel's early side
  /// heap; `gen` detects entries whose slot has been released since.
  struct HeapEntry {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
    bool operator>(const HeapEntry& o) const noexcept {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };
  using Heap =
      std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

  /// One armed periodic chain.  Keyed in periodics_ by the public chain
  /// id (bit 63 set); removed while the callback runs, which is what
  /// makes cancel-from-inside-the-callback a documented no-op.
  struct Periodic {
    Time period;
    std::function<bool()> fn;
    EventId armed;  ///< Arena handle of the next occurrence.
  };

  /// The next live event, located but not yet popped.
  struct Front {
    Time time;
    std::uint32_t slot;
    enum class Where { kEarly, kBatch, kHeap } where;
  };

  static constexpr EventId kPeriodicBit = EventId{1} << 63;

  EventId insert(Time t, EventFn fn);
  /// fn() with the stall detector / anomaly hook engaged (cold path).
  void fire_instrumented(EventFn& fn);
  void notify_anomaly(const std::string& what);
  /// Drop dead heap entries from the top, releasing undrained slots.
  void clean_heap_top(Heap& heap);
  /// Locate the next live event across early heap / batch / wheel (or
  /// the binary heap), releasing dead slots met on the way.
  bool find_front(Front& front);
  /// find_front after closing the attached windows through the front's
  /// time, capped at `limit`.  A boundary hook may schedule or cancel
  /// work, so the front is located again after every close.
  bool locate(Front& front, Time limit);
  void pop_front(const Front& front);
  /// Pop a located front and run its callback (step() and run_until()).
  void fire(const Front& front);
  void refill_batch();
  void fire_periodic(EventId chain_id);

  QueueKind kind_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t next_chain_ = 1;

  core::EventArena arena_;
  core::TimerWheel wheel_;
  /// Entries of the tick being drained, sorted by (time, seq); same-tick
  /// schedules during the drain splice in at their sorted position.
  std::vector<core::WheelEntry> batch_;
  std::size_t batch_pos_ = 0;
  std::uint64_t batch_tick_ = 0;
  /// Events scheduled below the wheel horizon (possible only after a
  /// peek advanced the horizon past a run_until() clock stop); rare.
  Heap early_;
  /// kBinaryHeap mode's whole queue.
  Heap heap_;
  // Armed periodic chains; lookup/erase only, never iterated.
  std::unordered_map<EventId, Periodic> periodics_;

  core::FlightRecorder* recorder_ = nullptr;
  std::function<void(const std::string&)> anomaly_hook_;
  double stall_wall_ms_ = 0.0;
  obs::Profiler* profiler_ = nullptr;
  std::uint32_t profile_frame_ = 0;  ///< interned "engine.event" frame
  obs::WindowedAggregator* windows_ = nullptr;
  std::uint64_t wheel_inserts_ = 0;
  std::uint64_t batch_splices_ = 0;
  std::uint64_t early_inserts_ = 0;
  std::uint64_t heap_inserts_ = 0;
  std::uint64_t batch_refills_ = 0;
};

}  // namespace p2plb::sim
