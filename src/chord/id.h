// Chord identifier-space arithmetic (32-bit ring, as in the paper's
// simulator).
//
// All interval tests are circular: the ring wraps at 2^32.  By Chord
// convention a virtual server with id `s` and predecessor `p` owns the
// arc (p, s] -- tested with `in_oc`.
#pragma once

#include <cstdint>

namespace p2plb::chord {

/// A point in the 32-bit identifier space.
using Key = std::uint32_t;

/// Size of the identifier space (2^32), as a 64-bit count.
inline constexpr std::uint64_t kSpaceSize = 1ull << 32;

/// Clockwise distance from `from` to `to` (0 if equal).
[[nodiscard]] constexpr std::uint64_t distance_cw(Key from, Key to) noexcept {
  return static_cast<std::uint32_t>(to - from);
}

/// x in (a, b] on the ring.  When a == b the interval is the entire ring
/// (Chord convention: a single node owns everything).
[[nodiscard]] constexpr bool in_oc(Key a, Key b, Key x) noexcept {
  if (a == b) return true;
  return distance_cw(a, x) != 0 && distance_cw(a, x) <= distance_cw(a, b);
}

/// x in (a, b) on the ring.  When a == b the interval is the whole ring
/// minus the point a.
[[nodiscard]] constexpr bool in_oo(Key a, Key b, Key x) noexcept {
  if (a == b) return x != a;
  const std::uint64_t dx = distance_cw(a, x);
  return dx != 0 && dx < distance_cw(a, b);
}

/// Midpoint of the arc that starts at `lo` and spans `len` keys (len in
/// [1, 2^32]).  Wraps around the ring.
[[nodiscard]] constexpr Key arc_midpoint(Key lo, std::uint64_t len) noexcept {
  return static_cast<Key>(lo + static_cast<std::uint32_t>(len / 2));
}

}  // namespace p2plb::chord
