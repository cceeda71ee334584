#include "sim/core/timer_wheel.h"

#include <bit>
#include <utility>

#include "common/error.h"

namespace p2plb::sim::core {

void TimerWheel::insert(const WheelEntry& e) {
  P2PLB_ASSERT_MSG(to_tick(e.time) >= cur_, "insert below the wheel horizon");
  ++size_;
  place(e);
}

void TimerWheel::place(const WheelEntry& e) {
  // Lowest level whose window around the horizon contains the tick: the
  // highest differing 8-bit digit decides, so compare shifted prefixes.
  const std::uint64_t tick = to_tick(e.time);
  int level;
  if ((tick >> 8) == (cur_ >> 8)) {
    level = 0;
  } else if ((tick >> 16) == (cur_ >> 16)) {
    level = 1;
  } else if ((tick >> 24) == (cur_ >> 24)) {
    level = 2;
  } else if ((tick >> 32) == (cur_ >> 32)) {
    level = 3;
  } else {
    far_.push_back(e);
    ++far_inserts_;
    return;
  }
  const std::uint32_t slot_index = digit(tick, level);
  buckets_[level][slot_index].push_back(e);
  bitmap_[level][slot_index >> 6] |= std::uint64_t{1} << (slot_index & 63u);
  ++occupancy_[level];
}

std::vector<WheelEntry> TimerWheel::detach(int level,
                                           std::uint32_t slot_index) {
  bitmap_[level][slot_index >> 6] &= ~(std::uint64_t{1} << (slot_index & 63u));
  // Move-constructing leaves the bucket empty and without storage.
  std::vector<WheelEntry> bucket(std::move(buckets_[level][slot_index]));
  occupancy_[level] -= bucket.size();
  return bucket;
}

int TimerWheel::find_from(int level, std::uint32_t from) const {
  if (from >= kSlotsPerLevel) return -1;
  std::uint32_t word = from >> 6;
  std::uint64_t bits = bitmap_[level][word] & (~std::uint64_t{0} << (from & 63u));
  while (true) {
    if (bits != 0)
      return static_cast<int>((word << 6) +
                              static_cast<std::uint32_t>(std::countr_zero(bits)));
    if (++word == kWordsPerLevel) return -1;
    bits = bitmap_[level][word];
  }
}

void TimerWheel::pull_far() {
  // Rare (ticks >= 2^32 ahead): find the earliest far tick, advance the
  // horizon to its level-3 window, and re-bucket everything now inside.
  // Both the placed and the kept entries stay in far_'s (seq) order.
  std::uint64_t min_tick = ~std::uint64_t{0};
  for (const WheelEntry& e : far_) {
    const std::uint64_t t = to_tick(e.time);
    if (t < min_tick) min_tick = t;
  }
  cur_ = min_tick & ~std::uint64_t{0xFFFFFFFF};
  std::vector<WheelEntry> keep;
  keep.reserve(far_.size());
  for (const WheelEntry& e : far_) {
    if ((to_tick(e.time) >> 32) == (cur_ >> 32))
      place(e);
    else
      keep.push_back(e);
  }
  far_ = std::move(keep);
}

bool TimerWheel::pop_min(std::uint64_t* tick_out,
                         std::vector<WheelEntry>& out) {
  if (size_ == 0) return false;
  while (true) {
    // Level 0: every in-window tick is at a digit >= the horizon's, so
    // the first occupied slot forward is the global minimum.
    const int s0 = find_from(0, digit(cur_, 0));
    if (s0 >= 0) {
      const std::uint64_t tick =
          (cur_ & ~std::uint64_t{0xFF}) + static_cast<std::uint64_t>(s0);
      cur_ = tick;
      out = detach(0, static_cast<std::uint32_t>(s0));
      size_ -= out.size();
      *tick_out = tick;
      return true;
    }
    // Higher levels hold only digits strictly beyond the horizon's (an
    // equal digit would mean the lower window, i.e. a lower level), so
    // scan from digit+1; advancing the horizon to the found slot's
    // window base keeps every remaining event at or above it.
    bool cascaded = false;
    for (int level = 1; level < kLevels; ++level) {
      const int d = find_from(level, digit(cur_, level) + 1);
      if (d < 0) continue;
      const int shift = 8 * (level + 1);
      const std::uint64_t window_mask = (std::uint64_t{1} << shift) - 1;
      cur_ = (cur_ & ~window_mask) |
             (static_cast<std::uint64_t>(d) << (8 * level));
      // Every lower level is empty here, so the entries land in empty
      // buckets in their (seq) order.
      for (const WheelEntry& e : detach(level, static_cast<std::uint32_t>(d)))
        place(e);
      cascaded = true;
      break;
    }
    if (cascaded) continue;
    P2PLB_ASSERT(!far_.empty());
    pull_far();
  }
}

}  // namespace p2plb::sim::core
