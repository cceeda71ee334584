#include "sim/engine.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "obs/profiler.h"
#include "obs/timeseries.h"
#include "obs/wallclock.h"
#include "obs/window.h"

namespace p2plb::sim {

using obs::wall_now_ms;

Engine::Engine(QueueKind kind) : kind_(kind) {}

EventId Engine::insert(Time t, EventFn fn) {
  P2PLB_REQUIRE_MSG(t < core::kTimeLimit,
                    "firing time must be finite and below 2^64");
  const std::uint64_t seq = next_seq_++;
  const std::uint32_t slot = arena_.acquire(seq, std::move(fn));
  const EventId id = arena_.id_of(slot);
  if (kind_ == QueueKind::kBinaryHeap) {
    heap_.push(HeapEntry{t, seq, slot, arena_.node(slot).gen});
    ++heap_inserts_;
    return id;
  }
  const std::uint64_t tick = core::to_tick(t);
  if (batch_pos_ < batch_.size() && tick == batch_tick_) {
    // Scheduling into the tick being drained: splice into the sorted
    // remainder.  seq is the largest yet, so this lands after every
    // already-batched event with the same time -- FIFO preserved.
    const auto it = std::upper_bound(
        batch_.begin() + static_cast<std::ptrdiff_t>(batch_pos_),
        batch_.end(), t,
        [](Time v, const core::WheelEntry& e) { return v < e.time; });
    batch_.insert(it, core::WheelEntry{t, slot});
    ++batch_splices_;
  } else if (tick < wheel_.horizon()) {
    // Behind the wheel horizon (see TimerWheel file comment): a peek can
    // park the horizon beyond a run_until() clock stop.  Cold path.
    early_.push(HeapEntry{t, seq, slot, arena_.node(slot).gen});
    ++early_inserts_;
  } else {
    wheel_.insert(core::WheelEntry{t, slot});
    ++wheel_inserts_;
  }
  return id;
}

EventId Engine::schedule_at(Time t, EventFn fn) {
  P2PLB_REQUIRE_MSG(t >= now_, "cannot schedule into the past");
  P2PLB_REQUIRE(fn != nullptr);
  return insert(t, std::move(fn));
}

EventId Engine::schedule_after(Time delay, EventFn fn) {
  P2PLB_REQUIRE(delay >= 0.0);
  P2PLB_REQUIRE(fn != nullptr);
  return insert(now_ + delay, std::move(fn));
}

bool Engine::cancel(EventId id) {
  if ((id & kPeriodicBit) != 0) {
    const auto it = periodics_.find(id);
    if (it == periodics_.end()) return false;  // fired out, stopped, or firing
    const EventId armed = it->second.armed;
    arena_.cancel(core::EventArena::slot_of(armed),
                  core::EventArena::gen_of(armed));
    periodics_.erase(it);
    return true;
  }
  return arena_.cancel(core::EventArena::slot_of(id),
                       core::EventArena::gen_of(id));
}

EventId Engine::every(Time period, std::function<bool()> fn) {
  P2PLB_REQUIRE(period > 0.0);
  P2PLB_REQUIRE(fn != nullptr);
  // Every occurrence is registered under one chain id so cancel(id) kills
  // the chain; stopping from inside the callback stays cooperative.
  const EventId chain_id = kPeriodicBit | next_chain_++;
  Periodic chain{period, std::move(fn), 0};
  chain.armed =
      insert(now_ + period, [this, chain_id] { fire_periodic(chain_id); });
  periodics_.emplace(chain_id, std::move(chain));
  return chain_id;
}

void Engine::fire_periodic(EventId chain_id) {
  const auto it = periodics_.find(chain_id);
  P2PLB_ASSERT(it != periodics_.end());
  Periodic chain = std::move(it->second);
  // Removed while firing: a cancel() from inside the callback finds no
  // entry and reports false, and a `return true` re-arms cleanly.
  periodics_.erase(it);
  if (!chain.fn()) return;
  chain.armed =
      insert(now_ + chain.period, [this, chain_id] { fire_periodic(chain_id); });
  periodics_.emplace(chain_id, std::move(chain));
}

void Engine::clean_heap_top(Heap& heap) {
  while (!heap.empty()) {
    const HeapEntry& e = heap.top();
    if (!arena_.holds_gen(e.slot, e.gen)) {
      heap.pop();  // slot already released (and possibly reused)
    } else if (!arena_.is_live(e.slot)) {
      arena_.release(e.slot);
      heap.pop();
    } else {
      return;
    }
  }
}

void Engine::refill_batch() {
  batch_.clear();
  batch_pos_ = 0;
  if (!wheel_.pop_min(&batch_tick_, batch_)) return;
  ++batch_refills_;
  // A popped bucket is in seq order (TimerWheel's order invariant), so a
  // stable sort by time alone yields (time, seq) order.  Unit-latency
  // ticks hold one firing time and are already sorted.
  const auto by_time = [](const core::WheelEntry& a,
                          const core::WheelEntry& b) {
    return a.time < b.time;
  };
  if (!std::is_sorted(batch_.begin(), batch_.end(), by_time))
    std::stable_sort(batch_.begin(), batch_.end(), by_time);
}

bool Engine::find_front(Front& front) {
  if (kind_ == QueueKind::kBinaryHeap) {
    clean_heap_top(heap_);
    if (heap_.empty()) return false;
    const HeapEntry& e = heap_.top();
    front = Front{e.time, e.slot, Front::Where::kHeap};
    return true;
  }
  clean_heap_top(early_);
  while (true) {
    while (batch_pos_ < batch_.size() &&
           !arena_.is_live(batch_[batch_pos_].slot)) {
      arena_.release(batch_[batch_pos_].slot);
      ++batch_pos_;
    }
    if (batch_pos_ < batch_.size() || wheel_.size() == 0) break;
    refill_batch();
  }
  const bool have_batch = batch_pos_ < batch_.size();
  if (!early_.empty()) {
    const HeapEntry& e = early_.top();
    // Early events precede the batch by construction (their ticks are
    // below the horizon; the batch tick is at or above it).
    if (!have_batch || e.time < batch_[batch_pos_].time ||
        (e.time == batch_[batch_pos_].time &&
         e.seq < arena_.node(batch_[batch_pos_].slot).seq)) {
      front = Front{e.time, e.slot, Front::Where::kEarly};
      return true;
    }
  }
  if (!have_batch) return false;
  front = Front{batch_[batch_pos_].time, batch_[batch_pos_].slot,
                Front::Where::kBatch};
  return true;
}

void Engine::pop_front(const Front& front) {
  switch (front.where) {
    case Front::Where::kEarly:
      early_.pop();
      break;
    case Front::Where::kBatch:
      ++batch_pos_;
      break;
    case Front::Where::kHeap:
      heap_.pop();
      break;
  }
}

bool Engine::locate(Front& front, Time limit) {
  while (find_front(front)) {
    if (windows_ == nullptr ||
        !windows_->advance_to(std::min(front.time, limit)))
      return true;
  }
  return false;
}

bool Engine::step() {
  Front front;
  if (!locate(front, core::kTimeLimit)) return false;
  fire(front);
  return true;
}

void Engine::fire(const Front& front) {
  pop_front(front);
  P2PLB_ASSERT(front.time >= now_);
  now_ = front.time;
  ++executed_;
  if (recorder_ != nullptr) {
    core::FlightRecorder::Record r;
    r.time = front.time;
    r.seq = arena_.node(front.slot).seq;
    r.kind = core::FlightRecorder::kExecute;
    recorder_->record(r);
  }
  EventFn fn = arena_.take_fn(front.slot);
  arena_.release(front.slot);
  if (stall_wall_ms_ > 0.0 || anomaly_hook_ || profiler_ != nullptr) {
    fire_instrumented(fn);
    return;
  }
  fn();
}

void Engine::attach_profiler(obs::Profiler* profiler) {
  profiler_ = profiler;
  profile_frame_ =
      profiler != nullptr ? profiler->intern("engine.event", "sim") : 0;
}

void Engine::fire_instrumented(EventFn& fn) {
  // Dispatch plus non-message callbacks accrue to "engine.event" itself;
  // a message delivery re-enters its carried causal stack inside (see
  // Network::send), leaving only the dispatch overhead here as self time.
  const obs::Profiler::Scope prof_scope(profiler_, profile_frame_);
  const double start_ms = stall_wall_ms_ > 0.0 ? wall_now_ms() : 0.0;
  try {
    fn();
  } catch (const std::exception& e) {
    notify_anomaly(std::string("exception escaped an event callback: ") +
                   e.what());
    throw;
  } catch (...) {
    notify_anomaly("non-std exception escaped an event callback");
    throw;
  }
  if (stall_wall_ms_ > 0.0) {
    const double elapsed_ms = wall_now_ms() - start_ms;
    if (elapsed_ms > stall_wall_ms_)
      notify_anomaly("stall: one event callback held the engine for " +
                     std::to_string(elapsed_ms) + " wall-ms (limit " +
                     std::to_string(stall_wall_ms_) + ")");
  }
}

void Engine::notify_anomaly(const std::string& what) {
  if (anomaly_hook_) anomaly_hook_(what);
}

EngineIntrospection Engine::introspection() const {
  EngineIntrospection out;
  out.executed = executed_;
  out.pending = arena_.live_count();
  out.wheel_inserts = wheel_inserts_;
  out.batch_splices = batch_splices_;
  out.early_inserts = early_inserts_;
  out.heap_inserts = heap_inserts_;
  out.batch_refills = batch_refills_;
  for (int level = 0; level < core::TimerWheel::kLevelCount; ++level)
    out.wheel_occupancy[level] = wheel_.level_occupancy(level);
  out.far_pending = wheel_.far_pending();
  out.far_inserts = wheel_.far_inserts();
  out.arena_high_water = arena_.high_water();
  out.arena_capacity = arena_.capacity();
  return out;
}

void Engine::export_metrics(std::vector<obs::Sample>& rows) const {
  const EngineIntrospection i = introspection();
  const auto set = [this, &rows](std::string key, double v) {
    rows.push_back(obs::Sample{now_, std::move(key), v});
  };
  set("sim.engine.executed", static_cast<double>(i.executed));
  set("sim.engine.pending", static_cast<double>(i.pending));
  set("sim.engine.wheel_inserts", static_cast<double>(i.wheel_inserts));
  set("sim.engine.batch_splices", static_cast<double>(i.batch_splices));
  set("sim.engine.early_inserts", static_cast<double>(i.early_inserts));
  set("sim.engine.heap_inserts", static_cast<double>(i.heap_inserts));
  set("sim.engine.batch_refills", static_cast<double>(i.batch_refills));
  for (int level = 0; level < core::TimerWheel::kLevelCount; ++level)
    set("sim.wheel.occupancy{level=" + std::to_string(level) + "}",
        static_cast<double>(i.wheel_occupancy[level]));
  set("sim.wheel.far_pending", static_cast<double>(i.far_pending));
  set("sim.wheel.far_inserts", static_cast<double>(i.far_inserts));
  set("sim.arena.high_water", static_cast<double>(i.arena_high_water));
  set("sim.arena.capacity", static_cast<double>(i.arena_capacity));
}

void Engine::write_flight_dump(std::ostream& os) const {
  const EngineIntrospection i = introspection();
  os << "# p2plb engine flight dump\n"
     << "now " << now_ << "\n"
     << "executed " << i.executed << "\n"
     << "pending " << i.pending << "\n"
     << "wheel_inserts " << i.wheel_inserts << "\n"
     << "batch_splices " << i.batch_splices << "\n"
     << "early_inserts " << i.early_inserts << "\n"
     << "heap_inserts " << i.heap_inserts << "\n"
     << "batch_refills " << i.batch_refills << "\n";
  for (int level = 0; level < core::TimerWheel::kLevelCount; ++level)
    os << "wheel_occupancy_l" << level << ' ' << i.wheel_occupancy[level]
       << "\n";
  os << "far_pending " << i.far_pending << "\n"
     << "far_inserts " << i.far_inserts << "\n"
     << "arena_high_water " << i.arena_high_water << "\n"
     << "arena_capacity " << i.arena_capacity << "\n";
  if (recorder_ != nullptr) {
    os << "# recent events (oldest first)\n";
    recorder_->dump(os);
  } else {
    os << "# no flight recorder attached\n";
  }
}

std::uint64_t Engine::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::uint64_t Engine::run_until(Time t_end) {
  P2PLB_REQUIRE(t_end >= now_);
  std::uint64_t n = 0;
  Front front;
  while (true) {
    if (locate(front, t_end) && front.time <= t_end) {
      fire(front);
      ++n;
    } else if (windows_ == nullptr || !windows_->advance_to(t_end)) {
      break;  // nothing left to run or to close through t_end
    }
  }
  now_ = t_end;
  return n;
}

}  // namespace p2plb::sim
