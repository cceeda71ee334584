// Scenario: hotspot mitigation in a DHT object store.
//
//   $ ./build/examples/hotspot_mitigation [--objects N] [--zipf S]
//
// A Chord ring stores a Zipf-popular object catalog (put() through real
// lookups).  Popularity concentrates load on the few virtual servers
// that happen to own the hot keys; the balancer repeatedly moves those
// servers toward high-capacity nodes until the system stabilizes.  The
// example reports the per-round heavy counts, how many bytes moved, and
// the worst node's overload factor before and after -- plus what remains
// fundamentally unfixable (an object hotter than any node's spare
// capacity cannot be split by moving virtual servers; the paper's
// scheme, like any VS-granularity scheme, stops there).
#include <iostream>

#include "chord/storage.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "lb/controller.h"
#include "workload/capacity.h"
#include "workload/objects.h"
#include "workload/scenario.h"

int main(int argc, char** argv) try {
  using namespace p2plb;
  Cli cli;
  cli.add_flag("nodes", "number of storage nodes", "512");
  cli.add_flag("objects", "catalog size", "50000");
  cli.add_flag("zipf", "popularity skew exponent", "1.1");
  cli.add_flag("seed", "RNG seed", "21");
  if (!cli.parse(argc, argv)) return 0;
  const auto nodes = static_cast<std::size_t>(cli.get_count("nodes"));
  const auto objects = static_cast<std::size_t>(cli.get_count("objects"));
  const double zipf = cli.get_double("zipf");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  Rng rng(seed);
  auto ring = workload::build_ring(
      nodes, 5, workload::CapacityProfile::gnutella_like(), rng);

  // Fill the store through real DHT puts (hop-accounted).
  chord::ObjectStore store(ring);
  workload::ObjectWorkloadParams params;
  params.object_count = objects;
  params.zipf_exponent = zipf;
  params.total_load = 0.25 * ring.total_capacity();  // "bytes" of demand
  const auto catalog = workload::generate_objects(params, rng);
  const auto ids = ring.server_ids();
  std::uint64_t put_hops = 0;
  for (const auto& obj : catalog)
    put_hops += store.put(ids[rng.below(ids.size())], obj.key, obj.load).hops;
  store.set_ring_loads(ring);

  auto worst_overload = [&] {
    const double fair = ring.total_load() / ring.total_capacity();
    double worst = 0.0;
    for (const chord::NodeIndex i : ring.live_nodes())
      worst = std::max(worst,
                       ring.node_load(i) / (fair * ring.node(i).capacity));
    return worst;
  };

  std::cout << "stored " << objects << " objects ("
            << Table::num(store.total_bytes(), 0) << " bytes, Zipf "
            << Table::num(zipf, 2) << ") in "
            << Table::num(static_cast<double>(put_hops) /
                              static_cast<double>(objects),
                          2)
            << " hops/put; worst node at " << Table::num(worst_overload(), 1)
            << "x its fair share\n\n";

  lb::ControllerConfig config;
  config.max_rounds = 5;
  const auto result = lb::balance_until_stable(ring, config, rng);

  Table t({"round", "heavy before", "heavy after", "bytes moved",
           "unassignable"});
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    const auto& round = result.rounds[r];
    t.add_row({std::to_string(r + 1), std::to_string(round.heavy_before),
               std::to_string(round.heavy_after),
               Table::num(round.moved_load, 0),
               std::to_string(round.unassigned)});
  }
  t.print_text(std::cout);

  std::cout << "\nafter balancing: worst node at "
            << Table::num(worst_overload(), 2)
            << "x its fair share; moved "
            << Table::num(100.0 * result.total_moved() / ring.total_load(),
                          1)
            << "% of stored bytes in " << result.total_transfers()
            << " virtual-server transfers\n";
  if (!result.converged) {
    std::cout << "(hot objects larger than any node's spare capacity keep "
                 "their hosts heavy: virtual-server\n granularity cannot "
                 "split a single object -- see DESIGN.md)\n";
  }
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
