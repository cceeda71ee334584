// The golden balancing round shared by the trace tests: two physical
// nodes, three virtual servers, one transfer, and its pinned JSONL.
// obs_test pins the JSONL and binary sinks against it;
// trace_analysis_test pins the analyzer, the trace reader and the Chrome
// trace_event view; flight_recorder_test and profiler_test pin the
// flight dump and the profile of the same round.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "chord/ring.h"
#include "common/rng.h"
#include "lb/protocol_round.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "sim/core/flight_recorder.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace p2plb::golden {

/// Node A (capacity 1) is overloaded by its 2.0-load server; node B
/// (capacity 10) has room for exactly that one.  Deterministic: fixed
/// keys, fixed seed, unit latency.
inline chord::Ring golden_ring() {
  chord::Ring ring;
  const auto a = ring.add_node(1.0);
  const auto b = ring.add_node(10.0);
  ring.add_virtual_server(a, 0x40000000u);
  ring.add_virtual_server(a, 0x80000000u);
  ring.add_virtual_server(b, 0xC0000000u);
  ring.set_load(0x40000000u, 2.0);
  ring.set_load(0x80000000u, 0.4);
  ring.set_load(0xC0000000u, 0.5);
  return ring;
}

struct GoldenRun {
  std::uint64_t events_executed = 0;
  std::size_t transfers_applied = 0;
  double completion_time = 0.0;
  std::string flight_dump;  ///< Engine::write_flight_dump, when recorded
};

/// One timed round over the golden ring; any of the sinks may be nullptr.
inline GoldenRun run_golden_round(obs::Tracer* tracer,
                                  sim::core::FlightRecorder* recorder = nullptr,
                                  obs::Profiler* profiler = nullptr) {
  auto ring = golden_ring();
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint x, sim::Endpoint y) {
    return x == y ? 0.0 : 1.0;
  });
  if (tracer != nullptr) net.attach_tracer(tracer);
  if (recorder != nullptr) engine.attach_flight_recorder(recorder);
  if (profiler != nullptr) net.attach_profiler(profiler);
  Rng rng(7);
  lb::ProtocolRound round(net, ring, {}, rng);
  round.start();
  engine.run();
  EXPECT_TRUE(round.done());
  std::ostringstream dump;
  if (recorder != nullptr) engine.write_flight_dump(dump);
  return GoldenRun{engine.events_executed(),
                   round.report().transfers_applied,
                   round.report().completion_time, dump.str()};
}

// The pinned export.  Regenerate by running the scenario above with a
// JsonlTraceSink attached -- but treat any diff as a breaking change to
// the trace format first.
inline constexpr const char* kGoldenJsonl = R"gold({"t":0,"ph":"B","lane":"lb.round","name":"round","trace":1,"span":1,"args":{"nodes":2,"planned_transfers":1}}
{"t":0,"ph":"B","lane":"lb.aggregation","name":"aggregation","trace":1,"span":2,"parent":1}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"sweep.fold","trace":1,"parent":1,"args":{"node":1,"parent":0,"latency":0}}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"msg.send","trace":1,"span":3,"parent":1,"args":{"from":0,"to":0,"bytes":24,"latency":0}}
{"t":0,"ph":"s","lane":"lb.aggregation","name":"msg","id":3}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"sweep.fold","trace":1,"parent":1,"args":{"node":4,"parent":2,"latency":1}}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"msg.send","trace":1,"span":4,"parent":1,"args":{"from":0,"to":1,"bytes":24,"latency":1}}
{"t":0,"ph":"s","lane":"lb.aggregation","name":"msg","id":4}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"msg.send","trace":1,"span":5,"parent":1,"args":{"from":0,"to":1,"bytes":24,"latency":1}}
{"t":0,"ph":"s","lane":"lb.aggregation","name":"msg","id":5}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"msg.send","trace":1,"span":6,"parent":1,"args":{"from":1,"to":1,"bytes":24,"latency":0}}
{"t":0,"ph":"s","lane":"lb.aggregation","name":"msg","id":6}
{"t":0,"ph":"f","lane":"lb.aggregation","name":"msg","id":3}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"msg.deliver","trace":1,"span":3,"parent":1,"args":{"from":0,"to":0}}
{"t":0,"ph":"f","lane":"lb.aggregation","name":"msg","id":6}
{"t":0,"ph":"i","lane":"lb.aggregation","name":"msg.deliver","trace":1,"span":6,"parent":1,"args":{"from":1,"to":1}}
{"t":1,"ph":"f","lane":"lb.aggregation","name":"msg","id":4}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"msg.deliver","trace":1,"span":4,"parent":1,"args":{"from":0,"to":1}}
{"t":1,"ph":"f","lane":"lb.aggregation","name":"msg","id":5}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"msg.deliver","trace":1,"span":5,"parent":1,"args":{"from":0,"to":1}}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"sweep.fold","trace":1,"parent":5,"args":{"node":3,"parent":2,"latency":0}}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"msg.send","trace":1,"span":7,"parent":5,"args":{"from":1,"to":1,"bytes":24,"latency":0}}
{"t":1,"ph":"s","lane":"lb.aggregation","name":"msg","id":7}
{"t":1,"ph":"f","lane":"lb.aggregation","name":"msg","id":7}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"msg.deliver","trace":1,"span":7,"parent":5,"args":{"from":1,"to":1}}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"sweep.fold","trace":1,"parent":7,"args":{"node":2,"parent":0,"latency":1}}
{"t":1,"ph":"i","lane":"lb.aggregation","name":"msg.send","trace":1,"span":8,"parent":7,"args":{"from":1,"to":0,"bytes":24,"latency":1}}
{"t":1,"ph":"s","lane":"lb.aggregation","name":"msg","id":8}
{"t":2,"ph":"f","lane":"lb.aggregation","name":"msg","id":8}
{"t":2,"ph":"i","lane":"lb.aggregation","name":"msg.deliver","trace":1,"span":8,"parent":7,"args":{"from":1,"to":0}}
{"t":2,"ph":"i","lane":"lb.aggregation","name":"sweep.root_folded","trace":1,"parent":8,"args":{"messages":2,"local_hops":2}}
{"t":2,"ph":"E","lane":"lb.aggregation","name":"aggregation","trace":1,"span":2,"parent":1,"args":{"messages":6,"bytes":144}}
{"t":2,"ph":"B","lane":"lb.dissemination","name":"dissemination","trace":1,"span":9,"parent":8}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"sweep.deliver","trace":1,"parent":8,"args":{"node":0,"child":1,"latency":0}}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":10,"parent":8,"args":{"from":0,"to":0,"bytes":24,"latency":0}}
{"t":2,"ph":"s","lane":"lb.dissemination","name":"msg","id":10}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"sweep.deliver","trace":1,"parent":8,"args":{"node":0,"child":2,"latency":1}}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":11,"parent":8,"args":{"from":0,"to":1,"bytes":24,"latency":1}}
{"t":2,"ph":"s","lane":"lb.dissemination","name":"msg","id":11}
{"t":2,"ph":"f","lane":"lb.dissemination","name":"msg","id":10}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":10,"parent":8,"args":{"from":0,"to":0}}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"sweep.leaf_reached","trace":1,"parent":10,"args":{"leaf":1,"leaves_left":2}}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":12,"parent":10,"args":{"from":0,"to":0,"bytes":24,"latency":0}}
{"t":2,"ph":"s","lane":"lb.dissemination","name":"msg","id":12}
{"t":2,"ph":"f","lane":"lb.dissemination","name":"msg","id":12}
{"t":2,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":12,"parent":10,"args":{"from":0,"to":0}}
{"t":3,"ph":"f","lane":"lb.dissemination","name":"msg","id":11}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":11,"parent":8,"args":{"from":0,"to":1}}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"sweep.deliver","trace":1,"parent":11,"args":{"node":2,"child":3,"latency":0}}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":13,"parent":11,"args":{"from":1,"to":1,"bytes":24,"latency":0}}
{"t":3,"ph":"s","lane":"lb.dissemination","name":"msg","id":13}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"sweep.deliver","trace":1,"parent":11,"args":{"node":2,"child":4,"latency":1}}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":14,"parent":11,"args":{"from":1,"to":0,"bytes":24,"latency":1}}
{"t":3,"ph":"s","lane":"lb.dissemination","name":"msg","id":14}
{"t":3,"ph":"f","lane":"lb.dissemination","name":"msg","id":13}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":13,"parent":11,"args":{"from":1,"to":1}}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"sweep.leaf_reached","trace":1,"parent":13,"args":{"leaf":3,"leaves_left":1}}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":15,"parent":13,"args":{"from":1,"to":1,"bytes":24,"latency":0}}
{"t":3,"ph":"s","lane":"lb.dissemination","name":"msg","id":15}
{"t":3,"ph":"f","lane":"lb.dissemination","name":"msg","id":15}
{"t":3,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":15,"parent":13,"args":{"from":1,"to":1}}
{"t":4,"ph":"f","lane":"lb.dissemination","name":"msg","id":14}
{"t":4,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":14,"parent":11,"args":{"from":1,"to":0}}
{"t":4,"ph":"i","lane":"lb.dissemination","name":"sweep.leaf_reached","trace":1,"parent":14,"args":{"leaf":4,"leaves_left":0}}
{"t":4,"ph":"i","lane":"lb.dissemination","name":"msg.send","trace":1,"span":16,"parent":14,"args":{"from":0,"to":0,"bytes":24,"latency":0}}
{"t":4,"ph":"s","lane":"lb.dissemination","name":"msg","id":16}
{"t":4,"ph":"f","lane":"lb.dissemination","name":"msg","id":16}
{"t":4,"ph":"i","lane":"lb.dissemination","name":"msg.deliver","trace":1,"span":16,"parent":14,"args":{"from":0,"to":0}}
{"t":4,"ph":"E","lane":"lb.dissemination","name":"dissemination","trace":1,"span":9,"parent":8,"args":{"messages":7,"bytes":168}}
{"t":4,"ph":"B","lane":"lb.vsa","name":"vsa","trace":1,"span":17,"parent":16}
{"t":4,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":18,"parent":16,"args":{"from":0,"to":1,"bytes":32,"latency":1}}
{"t":4,"ph":"s","lane":"lb.vsa","name":"msg","id":18}
{"t":4,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":19,"parent":16,"args":{"from":0,"to":1,"bytes":32,"latency":1}}
{"t":4,"ph":"s","lane":"lb.vsa","name":"msg","id":19}
{"t":4,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":20,"parent":16,"args":{"from":1,"to":1,"bytes":32,"latency":0}}
{"t":4,"ph":"s","lane":"lb.vsa","name":"msg","id":20}
{"t":4,"ph":"f","lane":"lb.vsa","name":"msg","id":20}
{"t":4,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":20,"parent":16,"args":{"from":1,"to":1}}
{"t":5,"ph":"f","lane":"lb.vsa","name":"msg","id":18}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":18,"parent":16,"args":{"from":0,"to":1}}
{"t":5,"ph":"f","lane":"lb.vsa","name":"msg","id":19}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":19,"parent":16,"args":{"from":0,"to":1}}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":21,"parent":19,"args":{"from":1,"to":1,"bytes":32,"latency":0}}
{"t":5,"ph":"s","lane":"lb.vsa","name":"msg","id":21}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":22,"parent":19,"args":{"from":1,"to":1,"bytes":32,"latency":0}}
{"t":5,"ph":"s","lane":"lb.vsa","name":"msg","id":22}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":23,"parent":19,"args":{"from":1,"to":1,"bytes":32,"latency":0}}
{"t":5,"ph":"s","lane":"lb.vsa","name":"msg","id":23}
{"t":5,"ph":"f","lane":"lb.vsa","name":"msg","id":21}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":21,"parent":19,"args":{"from":1,"to":1}}
{"t":5,"ph":"f","lane":"lb.vsa","name":"msg","id":22}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":22,"parent":19,"args":{"from":1,"to":1}}
{"t":5,"ph":"f","lane":"lb.vsa","name":"msg","id":23}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":23,"parent":19,"args":{"from":1,"to":1}}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":24,"parent":23,"args":{"from":1,"to":0,"bytes":32,"latency":1}}
{"t":5,"ph":"s","lane":"lb.vsa","name":"msg","id":24}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":25,"parent":23,"args":{"from":1,"to":0,"bytes":32,"latency":1}}
{"t":5,"ph":"s","lane":"lb.vsa","name":"msg","id":25}
{"t":5,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":26,"parent":23,"args":{"from":1,"to":0,"bytes":32,"latency":1}}
{"t":5,"ph":"s","lane":"lb.vsa","name":"msg","id":26}
{"t":6,"ph":"f","lane":"lb.vsa","name":"msg","id":24}
{"t":6,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":24,"parent":23,"args":{"from":1,"to":0}}
{"t":6,"ph":"f","lane":"lb.vsa","name":"msg","id":25}
{"t":6,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":25,"parent":23,"args":{"from":1,"to":0}}
{"t":6,"ph":"f","lane":"lb.vsa","name":"msg","id":26}
{"t":6,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":26,"parent":23,"args":{"from":1,"to":0}}
{"t":6,"ph":"i","lane":"lb.vsa","name":"vsa.match","trace":1,"span":27,"parent":26,"args":{"vs":1073741824,"from":0,"to":1,"load":2,"depth":0}}
{"t":6,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":28,"parent":27,"args":{"from":0,"to":0,"bytes":16,"latency":0}}
{"t":6,"ph":"s","lane":"lb.vsa","name":"msg","id":28}
{"t":6,"ph":"i","lane":"lb.vsa","name":"msg.send","trace":1,"span":29,"parent":27,"args":{"from":0,"to":1,"bytes":16,"latency":1}}
{"t":6,"ph":"s","lane":"lb.vsa","name":"msg","id":29}
{"t":6,"ph":"f","lane":"lb.vsa","name":"msg","id":28}
{"t":6,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":28,"parent":27,"args":{"from":0,"to":0}}
{"t":6,"ph":"B","lane":"lb.transfer","name":"transfer","trace":1,"span":30,"parent":28}
{"t":6,"ph":"b","lane":"lb.transfer","name":"transfer","id":1,"trace":1,"span":31,"parent":28,"args":{"vs":1073741824,"from":0,"to":1,"load":2}}
{"t":6,"ph":"i","lane":"lb.transfer","name":"msg.send","trace":1,"span":32,"parent":31,"args":{"from":0,"to":1,"bytes":2,"latency":1}}
{"t":6,"ph":"s","lane":"lb.transfer","name":"msg","id":32}
{"t":7,"ph":"f","lane":"lb.vsa","name":"msg","id":29}
{"t":7,"ph":"i","lane":"lb.vsa","name":"msg.deliver","trace":1,"span":29,"parent":27,"args":{"from":0,"to":1}}
{"t":7,"ph":"E","lane":"lb.vsa","name":"vsa","trace":1,"span":17,"parent":16,"args":{"messages":11,"bytes":320}}
{"t":7,"ph":"f","lane":"lb.transfer","name":"msg","id":32}
{"t":7,"ph":"i","lane":"lb.transfer","name":"msg.deliver","trace":1,"span":32,"parent":31,"args":{"from":0,"to":1}}
{"t":7,"ph":"e","lane":"lb.transfer","name":"transfer","id":1,"trace":1,"span":31,"parent":28,"args":{"applied":1}}
{"t":7,"ph":"E","lane":"lb.transfer","name":"transfer","trace":1,"span":30,"parent":28,"args":{"messages":1,"applied":1}}
{"t":7,"ph":"E","lane":"lb.round","name":"round","trace":1,"span":1,"args":{"transfers_applied":1,"completion_time":7}}
)gold";

}  // namespace p2plb::golden
