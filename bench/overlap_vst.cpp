// Section 3.5 / 1.2 feature: "Our approach allows VSA and VST to partly
// overlap for fast load balancing."
//
// Pairings made deep in the tree fire long before the bottom-up sweep
// reaches the root; an overlapping implementation starts each transfer
// the moment its rendezvous decides it, while a sequential one waits for
// the whole VSA phase.  This bench quantifies the saving: total time to
// finish all transfers, sequential vs overlapped, across transfer
// bandwidths (load units moved per simulated time unit).  The pairing
// times come from one event-driven round (lb::ProtocolRound) on a
// unit-latency network -- 1 unit per remote hop, a hop within one
// physical node free -- measured from the start of its VSA phase, so they
// include each record's trip to its entry leaf.
#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "lb/protocol_round.h"
#include "sim/engine.h"
#include "sim/network.h"

int main(int argc, char** argv) try {
  using namespace p2plb;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("bandwidths", "transfer bandwidths to sweep",
               "1,5,20,100");
  if (!cli.parse(argc, argv)) return 0;
  const bool csv = cli.get_bool("csv");
  const auto params = bench::params_from_cli(cli);

  Rng rng(params.seed);
  auto ring = bench::build_loaded_ring(params, rng);
  lb::ProtocolRoundConfig config;
  config.balancer.tree_degree = 2;
  config.balancer.epsilon = 0.05;
  config.balancer.apply_transfers = false;  // only the pairing times matter
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint a, sim::Endpoint b) {
    return a == b ? 0.0 : 1.0;
  });
  Rng arng(params.seed + 1);
  lb::ProtocolRound round(net, ring, config, arng);
  round.start();
  engine.run();
  const lb::VsaResult& vsa = round.report().vsa;

  print_heading(std::cout, "VSA sweep timeline");
  Table info({"metric", "value"});
  info.add_row({"assignments", std::to_string(vsa.assignments.size())});
  info.add_row({"sweep completion time",
                Table::num(vsa.sweep_completion_time, 2)});
  double earliest = vsa.sweep_completion_time, latest = 0.0;
  for (const auto& a : vsa.assignments) {
    earliest = std::min(earliest, a.available_at);
    latest = std::max(latest, a.available_at);
  }
  info.add_row({"first pairing available at", Table::num(earliest, 2)});
  info.add_row({"last pairing available at", Table::num(latest, 2)});
  bench::emit(info, csv);

  print_heading(std::cout,
                "total completion time: sequential VST vs overlapped VST");
  Table t({"bandwidth (load/time)", "sequential", "overlapped", "saving %"});
  for (const auto bw : cli.get_int_list("bandwidths")) {
    const double bandwidth = static_cast<double>(bw);
    // Transfers run in parallel across node pairs; each takes load/bw.
    double max_duration = 0.0, overlapped_done = 0.0;
    for (const auto& a : vsa.assignments) {
      const double duration = a.load / bandwidth;
      max_duration = std::max(max_duration, duration);
      overlapped_done =
          std::max(overlapped_done, a.available_at + duration);
    }
    const double sequential = vsa.sweep_completion_time + max_duration;
    const double overlapped = std::max(overlapped_done, 0.0);
    t.add_row({std::to_string(bw), Table::num(sequential, 2),
               Table::num(overlapped, 2),
               Table::num(100.0 * (1.0 - overlapped / sequential), 1)});
  }
  bench::emit(t, csv);
  std::cout << "\n(Overlapping VST with VSA hides the sweep latency behind"
               " the transfers decided early, as Section 3.5 describes.)\n";
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
