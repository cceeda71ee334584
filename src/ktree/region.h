// Identifier-space regions for the K-nary tree (Section 3.1).
//
// A region is a half-open arc [lo, lo+len) of the 32-bit identifier
// space; the root region spans the whole space (len = 2^32).  Splitting
// into K children uses exact integer boundaries, so the children always
// partition the parent with no gaps or overlap.
#pragma once

#include <cstdint>

#include "chord/id.h"
#include "common/error.h"

namespace p2plb::ktree {

/// Half-open arc [lo, lo+len) of the identifier space, 1 <= len <= 2^32.
struct Region {
  chord::Key lo = 0;
  std::uint64_t len = chord::kSpaceSize;

  /// The whole identifier space (the root's region).
  [[nodiscard]] static constexpr Region whole() noexcept { return {}; }

  /// The region's center point -- the DHT key its KT node is planted at.
  [[nodiscard]] constexpr chord::Key midpoint() const noexcept {
    return chord::arc_midpoint(lo, len);
  }

  /// x in [lo, lo+len) on the ring.
  [[nodiscard]] constexpr bool contains(chord::Key x) const noexcept {
    return chord::distance_cw(lo, x) < len;
  }

  /// The i-th of `degree` children: children partition the parent with
  /// sizes differing by at most one key.  A child may be empty (len 0)
  /// only when len < degree; callers must skip such children.
  [[nodiscard]] constexpr Region child(std::uint32_t i,
                                       std::uint32_t degree) const {
    const std::uint64_t begin = len * i / degree;
    const std::uint64_t end = len * (i + 1) / degree;
    return {static_cast<chord::Key>(lo + static_cast<std::uint32_t>(begin)),
            end - begin};
  }

  [[nodiscard]] constexpr bool operator==(const Region&) const = default;
};

/// Strict weak order over regions (by lo, then len): the map key order
/// used by the maintenance protocol.
struct RegionOrder {
  constexpr bool operator()(const Region& a, const Region& b) const noexcept {
    if (a.lo != b.lo) return a.lo < b.lo;
    return a.len < b.len;
  }
};

}  // namespace p2plb::ktree
