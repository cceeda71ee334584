// Hierarchical timer wheel over arena slots.
//
// The transit-stub latency oracle produces small discrete delays (one
// intradomain hop = 1), so pending firing times cluster in a narrow
// integer-tick band just ahead of the clock.  A 4-level x 256-slot wheel
// exploits that: insertion and extraction are O(1) bitmap operations for
// the overwhelmingly common near-future case, versus O(log n) heap
// surgery -- and extraction yields a whole same-tick *bucket* at once,
// which is what lets the engine batch same-timestamp deliveries.
//
// Each bucket is a contiguous vector of (firing time, arena slot)
// entries, so extraction and cascades read the entries in place and
// never visit the arena.  A detached bucket keeps no storage: the
// minimum bucket is moved out whole, a cascaded one is freed once its
// entries are re-placed.
//
// Window invariants (cur_ = the wheel horizon, a tick; W_L = the
// 256^(L+1)-tick aligned window containing cur_ at level L):
//   - level 0 holds events with tick in W_0; slot = tick & 255.  Every
//     occupied slot therefore holds exactly one tick, at index >= the
//     horizon's digit -- so a forward bitmap scan finds the minimum.
//   - level L>0 holds events in W_L but not W_{L-1}; slot = digit L of
//     tick.  Such events always sit at a digit strictly greater than the
//     horizon's digit L.
//   - far_ holds everything beyond W_3 (2^32 ticks ~ 4 simulated years
//     at hop granularity; empty in practice).
// pop_min() cascades: it finds the lowest occupied level, advances the
// horizon to that slot's window base, and re-inserts the bucket, which
// redistributes it to lower levels; at most 3 cascades reach level 0.
//
// Order invariant: every bucket (and far_) lists its entries in
// insertion order, which is the engine's schedule-seq order.  insert()
// appends the newest event; a level cascades only when every lower
// level is empty, and far_ is pulled only when every level is, so the
// re-placed entries land in empty buckets in their old order.  A popped
// bucket is therefore seq-ordered, and the engine gets the (time, seq)
// order from a stable sort by time alone.
//
// The horizon only moves forward, and only to the window base of a
// pending event -- so a peek that advances it can strand later inserts
// *behind* it (schedule after run_until() parked the clock short of the
// next event).  The wheel rejects those; the engine routes them to a
// small side heap instead (see Engine::early_).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/core/types.h"

namespace p2plb::sim::core {

/// One bucketed event: its firing time and its arena slot.
struct WheelEntry {
  Time time;
  std::uint32_t slot;
};

/// Four-level hashed timer wheel; orders arena slots by integer tick.
class TimerWheel {
 public:
  /// Bucket an event.  Requires to_tick(e.time) >= horizon(), and `e` to
  /// have been scheduled after every entry already in the wheel (see the
  /// order invariant in the file comment).
  void insert(const WheelEntry& e);

  /// Detach the minimum-tick bucket into `out` (replacing its contents)
  /// and store the tick in `*tick_out`.  The entries come in insertion
  /// order, not sorted by time.  Returns false when empty.  The popped
  /// slots are no longer referenced by the wheel; the caller owns
  /// releasing them.
  bool pop_min(std::uint64_t* tick_out, std::vector<WheelEntry>& out);

  /// Number of entries currently bucketed (live and cancelled alike).
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The wheel's current tick horizon: no bucketed event is below it,
  /// and insert() requires ticks at or above it.
  [[nodiscard]] std::uint64_t horizon() const noexcept { return cur_; }

  /// Introspection for the flight recorder / sim.* metrics.
  static constexpr int kLevelCount = 4;
  /// Entries currently bucketed at `level` (0 <= level < kLevelCount).
  [[nodiscard]] std::size_t level_occupancy(int level) const noexcept {
    return occupancy_[level];
  }
  /// Entries currently parked beyond the level-3 window.
  [[nodiscard]] std::size_t far_pending() const noexcept {
    return far_.size();
  }
  /// Total placements that overflowed to the far list (cumulative).
  [[nodiscard]] std::uint64_t far_inserts() const noexcept {
    return far_inserts_;
  }

 private:
  static constexpr int kLevels = kLevelCount;
  static constexpr std::uint32_t kSlotsPerLevel = 256;
  static constexpr std::uint32_t kWordsPerLevel = kSlotsPerLevel / 64;

  [[nodiscard]] std::uint32_t digit(std::uint64_t tick, int level) const {
    return static_cast<std::uint32_t>(tick >> (8 * level)) & 0xFFu;
  }

  /// First occupied slot index >= `from` at `level`, or -1.
  [[nodiscard]] int find_from(int level, std::uint32_t from) const;

  /// Move the bucket at (level, slot_index) out, leaving it empty with
  /// no storage.
  std::vector<WheelEntry> detach(int level, std::uint32_t slot_index);
  /// insert() minus the size_ accounting (used by cascades / far pulls).
  void place(const WheelEntry& e);
  /// Refill levels from far_ when every level is empty.
  void pull_far();

  std::uint64_t cur_ = 0;
  std::size_t size_ = 0;
  std::vector<WheelEntry> buckets_[kLevels][kSlotsPerLevel];
  std::uint64_t bitmap_[kLevels][kWordsPerLevel] = {};
  std::vector<WheelEntry> far_;
  std::size_t occupancy_[kLevels] = {};
  std::uint64_t far_inserts_ = 0;
};

}  // namespace p2plb::sim::core
