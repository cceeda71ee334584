// Scenario: a wide-area P2P storage network (the CFS-style workload that
// motivates the paper) rebalancing with and without proximity awareness.
//
//   $ ./build/examples/storage_network [--nodes N] [--graphs G]
//
// A transit-stub internet ("ts5k-large": a few big campus-like stub
// domains) hosts a Chord ring of heterogeneous storage nodes.  Virtual
// servers carry stored bytes; moving one costs its size times the
// network distance.  The example runs the same rebalance twice -- with
// the Hilbert/landmark proximity mapping and without -- and prices both
// in byte-hops, the quantity an operator would pay for in cross-ISP
// traffic.
#include <iostream>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "lb/balancer.h"
#include "lb/proximity.h"
#include "lb/vst.h"
#include "topo/distance_oracle.h"
#include "topo/transit_stub.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace {

using namespace p2plb;

struct Outcome {
  double byte_hops = 0.0;  // sum over transfers of load x distance
  double moved = 0.0;
  std::size_t transfers = 0;
  std::size_t heavy_after = 0;
};

}  // namespace

int main(int argc, char** argv) try {
  Cli cli;
  cli.add_flag("nodes", "number of storage nodes", "2048");
  cli.add_flag("seed", "RNG seed", "7");
  if (!cli.parse(argc, argv)) return 0;
  const auto node_count = static_cast<std::size_t>(cli.get_count("nodes"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  // The physical internet and the storage ring on top of it.
  Rng rng(seed);
  const auto topology = topo::generate_transit_stub(
      topo::TransitStubParams::ts5k_large(), rng, "storage-wan");
  const auto stubs = topology.stub_vertices();
  std::vector<std::uint32_t> attachments(node_count);
  const auto picks =
      rng.sample_indices(stubs.size(), std::min(node_count, stubs.size()));
  for (std::size_t i = 0; i < node_count; ++i)
    attachments[i] = stubs[picks[i % picks.size()]];
  chord::Ring base = workload::build_ring(
      node_count, 5, workload::CapacityProfile::gnutella_like(), rng,
      attachments);
  // "Load" is stored gigabytes: many small files -> Gaussian per server.
  workload::assign_loads(
      base,
      workload::scaled_load_model(base, workload::LoadDistribution::kGaussian,
                                  0.25),
      rng);

  std::cout << "storage network: " << node_count << " nodes over "
            << topology.graph.vertex_count() << " routers, "
            << Table::num(base.total_load(), 0) << " GB stored\n";

  Outcome outcomes[2];
  for (int aware = 0; aware < 2; ++aware) {
    chord::Ring ring = base;  // same initial placement for both runs
    Rng brng(seed + 1);
    lb::BalancerConfig config;
    config.mode = aware ? lb::BalanceMode::kProximityAware
                        : lb::BalanceMode::kProximityIgnorant;
    std::vector<chord::Key> keys;
    if (aware) {
      lb::ProximityConfig pconfig;  // 15 landmarks, 2-bit Hilbert grid
      Rng prng(seed + 2);
      keys = lb::build_proximity_map(ring, topology, pconfig, prng)
                 .node_keys;
    }
    const auto report = lb::run_balance_round(ring, config, brng, keys);
    topo::DistanceOracle oracle(topology.graph, 32);
    Outcome& out = outcomes[aware];
    for (const auto& t :
         lb::transfer_costs(ring, report.vsa.assignments, oracle)) {
      out.byte_hops += t.assignment.load * t.distance;
      out.moved += t.assignment.load;
      ++out.transfers;
    }
    out.heavy_after = report.after.heavy_count;
  }

  Table t({"scheme", "GB moved", "GB-hops paid", "mean hops/GB",
           "overloaded nodes left"});
  const char* names[] = {"proximity-ignorant", "proximity-aware"};
  for (int aware = 0; aware < 2; ++aware) {
    const Outcome& o = outcomes[aware];
    t.add_row({names[aware], Table::num(o.moved, 0),
               Table::num(o.byte_hops, 0),
               Table::num(o.byte_hops / std::max(1.0, o.moved), 2),
               std::to_string(o.heavy_after)});
  }
  t.print_text(std::cout);
  std::cout << "\nproximity awareness cut the rebalance traffic cost by "
            << Table::num(100.0 * (1.0 - outcomes[1].byte_hops /
                                             outcomes[0].byte_hops),
                          1)
            << "% for the same balance quality\n";
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
