// Scenario: capacity planning -- how much balance quality does a little
// movement budget buy?
//
//   $ ./build/examples/capacity_planning [--nodes N]
//
// An operator choosing the epsilon knob wants to know: if I tolerate
// nodes running epsilon above their fair share, how much less data do I
// have to move, and how many overloaded nodes remain?  This example
// sweeps epsilon on one workload and prints the frontier, then does the
// same for the virtual-server count per node (more servers = finer
// movement granularity = better packing, at higher routing-state cost).
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "lb/balancer.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace {

using namespace p2plb;

chord::Ring make_ring(std::size_t nodes, std::size_t servers,
                      std::uint64_t seed) {
  Rng rng(seed);
  auto ring = workload::build_ring(
      nodes, servers, workload::CapacityProfile::gnutella_like(), rng);
  workload::assign_loads(
      ring,
      workload::scaled_load_model(ring, workload::LoadDistribution::kGaussian,
                                  0.25),
      rng);
  return ring;
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli;
  cli.add_flag("nodes", "node count", "1024");
  cli.add_flag("seed", "RNG seed", "11");
  if (!cli.parse(argc, argv)) return 0;
  const auto nodes = static_cast<std::size_t>(cli.get_count("nodes"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  std::cout << "frontier 1: tolerated overload (epsilon) vs data moved\n\n";
  Table t1({"epsilon", "data moved (% of total)", "overloaded nodes left",
            "p99 load/fair-share"});
  for (const double eps : {0.0, 0.02, 0.05, 0.1, 0.2, 0.4, 0.8}) {
    auto ring = make_ring(nodes, 5, seed);
    Rng brng(seed + 1);
    lb::BalancerConfig config;
    config.epsilon = eps;
    const auto report = lb::run_balance_round(ring, config, brng);
    const double fair = ring.total_load() / ring.total_capacity();
    std::vector<double> ratios;
    for (const chord::NodeIndex i : ring.live_nodes())
      ratios.push_back(ring.node_load(i) / (fair * ring.node(i).capacity));
    t1.add_row({Table::num(eps, 2),
                Table::num(100.0 * report.vsa.assigned_load() /
                               ring.total_load(),
                           1),
                std::to_string(report.after.heavy_count),
                Table::num(summarize(ratios).p99, 2)});
  }
  t1.print_text(std::cout);

  std::cout << "\nfrontier 2: virtual servers per node (movement "
               "granularity)\n\n";
  Table t2({"servers/node", "virtual servers", "data moved (% of total)",
            "overloaded nodes left", "unassignable candidates"});
  for (const std::size_t servers : {1u, 2u, 5u, 10u, 20u}) {
    auto ring = make_ring(nodes, servers, seed);
    Rng brng(seed + 1);
    lb::BalancerConfig config;
    const auto report = lb::run_balance_round(ring, config, brng);
    t2.add_row({std::to_string(servers),
                std::to_string(ring.virtual_server_count()),
                Table::num(100.0 * report.vsa.assigned_load() /
                               ring.total_load(),
                           1),
                std::to_string(report.after.heavy_count),
                std::to_string(report.vsa.unassigned_heavy.size())});
  }
  t2.print_text(std::cout);
  std::cout << "\n(more virtual servers pack the load finer; epsilon trades "
               "movement for tolerated overload)\n";
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
