// Ablation: the proximity mapping's knobs (Sections 4.1-4.2).
//
//   * m, the number of landmarks ("a sufficient number of landmark nodes
//     need to be used to reduce the probability of false clustering");
//   * n, the grid resolution in bits per dimension ("a smaller n
//     increases the likelihood that two physically close nodes have the
//     same Hilbert number");
//   * landmark placement (core routers vs overlay members);
//   * vector centering (this implementation's refinement -- removes the
//     per-node distance-to-gateway offset that is common to every
//     coordinate);
//   * key-local rendezvous (pair identical Hilbert numbers first).
//
// Each row reports the locality achieved on ts5k-large.
#include <iostream>

#include "bench_util.h"

namespace {

using namespace p2plb;

struct Variant {
  std::string name;
  lb::ProximityConfig proximity;
  bool key_local = true;
};

}  // namespace

int main(int argc, char** argv) try {
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("graphs", "topology graphs to aggregate", "2");
  if (!cli.parse(argc, argv)) return 0;
  const bool csv = cli.get_bool("csv");
  const auto params = bench::params_from_cli(cli);
  const auto graphs = cli.get_count("graphs");
  const auto topo_params = topo::TransitStubParams::ts5k_large();

  std::vector<Variant> variants;
  {
    Variant v;
    v.name = "default (m=15, b=2, stub landmarks, centered, key-local)";
    variants.push_back(v);
  }
  for (const std::size_t m : {4u, 8u}) {
    Variant v;
    v.name = "m=" + std::to_string(m) + " landmarks";
    v.proximity.landmark_count = m;
    variants.push_back(v);
  }
  for (const std::uint32_t bits : {1u, 4u}) {
    Variant v;
    v.name = "b=" + std::to_string(bits) + " bits/dim";
    v.proximity.bits_per_dimension = bits;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "transit-core landmarks";
    v.proximity.strategy = topo::LandmarkStrategy::kTransitSpread;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "no vector centering";
    v.proximity.center_vectors = false;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "no key-local rendezvous";
    v.key_local = false;
    variants.push_back(v);
  }

  print_heading(std::cout, "proximity-mapping ablation, ts5k-large, "
                           "proximity-aware mode");
  Table t({"variant", "% moved <= 2", "% moved <= 10", "mean distance",
           "heavy after"});
  for (const Variant& variant : variants) {
    bench::DistanceProfile profile;
    for (std::uint64_t g = 0; g < graphs; ++g) {
      Rng rng(params.seed + g * 1000);
      bench::Deployment d =
          bench::build_deployment(params, topo_params, "ts5k-large", rng);
      Rng prng(params.seed + g * 1000 + 1);
      const auto keys = lb::build_proximity_map(d.ring, d.topology,
                                                variant.proximity, prng)
                            .node_keys;
      lb::BalancerConfig config;
      config.mode = lb::BalanceMode::kProximityAware;
      config.key_local_rendezvous = variant.key_local;
      Rng brng(params.seed + g * 1000 + 7);
      const auto report = lb::run_balance_round(d.ring, config, brng, keys);
      topo::DistanceOracle oracle(d.topology.graph, 32);
      profile.accumulate(d.ring, report.vsa.assignments, oracle);
      profile.after_heavy += report.after.heavy_count;
    }
    t.add_row({variant.name,
               Table::num(100.0 * profile.moved_within(2.0), 1),
               Table::num(100.0 * profile.moved_within(10.0), 1),
               Table::num(profile.mean_distance(), 2),
               std::to_string(profile.after_heavy)});
  }
  bench::emit(t, csv);
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
