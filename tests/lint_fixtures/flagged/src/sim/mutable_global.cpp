// Namespace-scope mutable state outlives the run that wrote it: the next
// same-seed run in the process starts from its leftovers, so
// no-mutable-global flags every non-const definition.
#include <cstdint>

namespace p2plb::sim {

std::uint64_t g_event_budget = 0;        // flagged: mutable global
const std::uint64_t kMaxNodes = 100000;  // fine: immutable

namespace {
int g_tu_local_counter;  // flagged: anon-namespace state is still global
}  // namespace

struct S {
  static int n;  // flagged: mutable static member
};
int S::n = 0;  // its definition: reported once, at the declaration above

}  // namespace p2plb::sim
