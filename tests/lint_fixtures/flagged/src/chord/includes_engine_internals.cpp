// chord may depend on common only: both the public engine surface (sim)
// and the nested sim/core queue internals are off limits, so each include
// below is one layering finding.
#include "sim/core/timer_wheel.h"
#include "sim/engine.h"

namespace p2plb::chord {

int peek_wheel() { return 0; }

}  // namespace p2plb::chord
