// Ablation: the epsilon knob (Section 3.3) -- "a parameter for a
// trade-off between the amount of load moved and the quality of balance
// achieved.  Ideally epsilon is 0."
//
// Sweeps epsilon and reports, per value: heavy nodes before/after one
// round, unassignable shed candidates, total moved load, and the
// post-round balance quality (max and p99 of load/target).  The table
// shows the trade-off the paper describes -- and why exactly-0 leaves a
// conservation residue (see lb/balancer.h).
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "lb/balancer.h"

int main(int argc, char** argv) try {
  using namespace p2plb;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("epsilons", "comma-separated epsilon values",
               "0,0.02,0.05,0.1,0.2,0.4");
  if (!cli.parse(argc, argv)) return 0;
  const bool csv = cli.get_bool("csv");
  const auto params = bench::params_from_cli(cli);

  print_heading(std::cout,
                "epsilon ablation: moved load vs balance quality");
  Table t({"epsilon", "heavy before", "heavy after", "unassigned",
           "moved load", "moved/total %", "max load/target",
           "p99 load/target"});
  for (const double eps : cli.get_double_list("epsilons")) {
    Rng rng(params.seed);
    auto ring = bench::build_loaded_ring(params, rng);
    lb::BalancerConfig config;
    config.epsilon = eps;
    Rng brng(params.seed + 1);
    const auto report = lb::run_balance_round(ring, config, brng);
    // Balance quality: load over the *fair* (eps = 0) target.
    const double fair = ring.total_load() / ring.total_capacity();
    std::vector<double> ratios;
    for (const chord::NodeIndex i : ring.live_nodes())
      ratios.push_back(ring.node_load(i) / (fair * ring.node(i).capacity));
    const Summary s = summarize(ratios);
    t.add_row({Table::num(eps, 2), std::to_string(report.before.heavy_count),
               std::to_string(report.after.heavy_count),
               std::to_string(report.vsa.unassigned_heavy.size()),
               Table::num(report.vsa.assigned_load(), 0),
               Table::num(100.0 * report.vsa.assigned_load() /
                              ring.total_load(),
                          1),
               Table::num(s.max, 3), Table::num(s.p99, 3)});
  }
  bench::emit(t, csv);
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
