// Pooled storage for scheduled events.
//
// The engine used to keep every pending event as a node in an
// unordered_map<EventId, std::function> plus a priority-queue entry --
// two allocations and a hash probe per event.  The arena replaces that
// with slab storage: events live in a deque (stable addresses, chunked
// allocation), freed slots go on a LIFO free list, and the public
// EventId carries a generation tag so cancelling a long-dead handle is
// safe even after its slot has been reused (ABA protection).
//
// A node holds what firing and cancelling need -- the callable, the
// schedule seq, the generation and the live flag -- and nothing the
// ordering needs: the firing time travels with the slot in whichever
// container orders it (a timer-wheel bucket entry, a heap entry), so
// locating the next event never touches the arena.
//
// Lifetime protocol (shared by the timer wheel, the same-tick batch and
// the binary-heap fallback): exactly one ordering container references a
// slot between acquire() and release().  cancel() does NOT free the slot
// -- it marks the node dead and destroys the callback immediately, and
// whichever container still holds the slot releases it when it next
// pops it.  That keeps cancel O(1) with no search of the wheel's
// buckets, versus O(log n) heap surgery.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/error.h"
#include "sim/core/types.h"

namespace p2plb::sim::core {

/// Slab allocator for pending events, with generation-tagged handles.
class EventArena {
 public:
  struct Event {
    EventFn fn;             ///< Destroyed on cancel, moved out on fire.
    std::uint64_t seq = 0;  ///< Global schedule order (never reused).
    std::uint32_t gen = 1;  ///< 31-bit generation, never 0.
    bool live = false;      ///< False once fired or cancelled.
  };

  /// Allocate a slot for an event with schedule order `seq`.
  std::uint32_t acquire(std::uint64_t seq, EventFn fn) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    Event& e = nodes_[slot];
    e.fn = std::move(fn);
    e.seq = seq;
    e.live = true;
    ++live_count_;
    if (live_count_ > high_water_) high_water_ = live_count_;
    return slot;
  }

  /// Return a popped slot to the free list, bumping its generation so
  /// outstanding EventIds for the old occupant stop matching.
  void release(std::uint32_t slot) {
    Event& e = nodes_[slot];
    if (e.live) {
      e.live = false;
      --live_count_;
    }
    e.fn = nullptr;
    e.gen = (e.gen & 0x7FFFFFFFu) == 0x7FFFFFFFu ? 1 : e.gen + 1;
    free_.push_back(slot);
  }

  /// Cancel by handle parts: succeeds once per (slot, generation) while
  /// the event is still pending.  The slot itself is freed later, by
  /// whichever ordering container pops it.
  bool cancel(std::uint32_t slot, std::uint32_t gen) {
    if (slot >= nodes_.size()) return false;
    Event& e = nodes_[slot];
    if (!e.live || e.gen != gen) return false;
    e.live = false;
    e.fn = nullptr;  // free the closure now, not when the slot drains
    --live_count_;
    return true;
  }

  [[nodiscard]] bool is_live(std::uint32_t slot) const {
    return nodes_[slot].live;
  }
  /// True while `slot`'s occupant is the generation `gen` event: heap
  /// entries snapshot the generation at acquire and use this to detect
  /// entries whose slot has been released (and possibly reused) since.
  [[nodiscard]] bool holds_gen(std::uint32_t slot, std::uint32_t gen) const {
    return nodes_[slot].gen == gen;
  }

  [[nodiscard]] Event& node(std::uint32_t slot) { return nodes_[slot]; }
  [[nodiscard]] const Event& node(std::uint32_t slot) const {
    return nodes_[slot];
  }

  /// Move the callback out for execution (the caller releases the slot).
  [[nodiscard]] EventFn take_fn(std::uint32_t slot) {
    return std::move(nodes_[slot].fn);
  }

  /// Pending events: scheduled, not yet fired, not cancelled.
  [[nodiscard]] std::size_t live_count() const noexcept { return live_count_; }

  /// Most live events ever pending at once -- the arena's working-set
  /// peak, for capacity planning at scale.
  [[nodiscard]] std::size_t high_water() const noexcept { return high_water_; }

  /// Slots ever allocated (the slab never shrinks).
  [[nodiscard]] std::size_t capacity() const noexcept { return nodes_.size(); }

  /// Public handle for a slot's current occupant.
  [[nodiscard]] EventId id_of(std::uint32_t slot) const {
    return (static_cast<EventId>(nodes_[slot].gen) << 32) | slot;
  }
  [[nodiscard]] static std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  }
  [[nodiscard]] static std::uint32_t gen_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

 private:
  std::deque<Event> nodes_;          // deque: stable refs, no big reallocs
  std::vector<std::uint32_t> free_;  // LIFO keeps hot slots cache-resident
  std::size_t live_count_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace p2plb::sim::core
