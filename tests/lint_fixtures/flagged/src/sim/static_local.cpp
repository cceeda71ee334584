// Function-local statics survive from one run to the next in the same
// process, so a later same-seed run starts from different state --
// the hidden carry-over no-static-local exists to catch.
#include <cstdint>

namespace p2plb::sim {

std::uint64_t next_id() {
  static std::uint64_t counter = 0;  // flagged: carries over between runs
  return ++counter;
}

double scale() {
  static const double kFactor = 1.5;  // fine: immutable
  return kFactor;
}

}  // namespace p2plb::sim
