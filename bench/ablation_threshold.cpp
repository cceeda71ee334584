// Ablation: the rendezvous threshold (Section 3.4; paper example: 30).
//
// The threshold controls how low in the tree pairing may start: 0 lets
// every leaf pair immediately; a huge value defers everything to the
// root (equivalent to a centralized directory, i.e. Rao et al.'s
// many-to-many).  On a ts5k-large deployment with proximity-aware
// mapping this shows the locality / match-quality trade-off: low
// thresholds pair nearby records early (short transfers), the root-only
// extreme mixes everything.
#include <iostream>

#include "bench_util.h"

int main(int argc, char** argv) try {
  using namespace p2plb;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("thresholds", "comma-separated rendezvous thresholds",
               "0,10,30,100,1000000");
  cli.add_flag("graphs", "topology graphs to aggregate", "2");
  if (!cli.parse(argc, argv)) return 0;
  const bool csv = cli.get_bool("csv");
  const auto params = bench::params_from_cli(cli);
  const auto graphs = cli.get_count("graphs");
  const auto topo_params = topo::TransitStubParams::ts5k_large();

  print_heading(std::cout, "rendezvous threshold ablation, ts5k-large, "
                           "proximity-aware");
  Table t({"threshold", "% moved <= 2", "% moved <= 10", "mean distance",
           "heavy after", "unassigned"});
  for (const auto threshold : cli.get_int_list("thresholds")) {
    bench::DistanceProfile profile;
    std::size_t unassigned = 0;
    for (std::uint64_t g = 0; g < graphs; ++g) {
      Rng rng(params.seed + g * 1000);
      bench::Deployment d =
          bench::build_deployment(params, topo_params, "ts5k-large", rng);
      lb::ProximityConfig pconfig;
      Rng prng(params.seed + g * 1000 + 1);
      const auto keys =
          lb::build_proximity_map(d.ring, d.topology, pconfig, prng)
              .node_keys;
      lb::BalancerConfig config;
      config.mode = lb::BalanceMode::kProximityAware;
      config.rendezvous_threshold = static_cast<std::size_t>(threshold);
      Rng brng(params.seed + g * 1000 + 7);
      const auto report = lb::run_balance_round(d.ring, config, brng, keys);
      topo::DistanceOracle oracle(d.topology.graph);
      profile.accumulate(d.ring, report.vsa.assignments, oracle);
      profile.after_heavy += report.after.heavy_count;
      unassigned += report.vsa.unassigned_heavy.size();
    }
    t.add_row({std::to_string(threshold),
               Table::num(100.0 * profile.moved_within(2.0), 1),
               Table::num(100.0 * profile.moved_within(10.0), 1),
               Table::num(profile.mean_distance(), 2),
               std::to_string(profile.after_heavy),
               std::to_string(unassigned)});
  }
  bench::emit(t, csv);
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
