// Ablation: the K-nary tree degree.  The paper evaluates K = 2 and K = 8
// and reports "similar results"; this sweep quantifies that across a
// wider range: balance outcome, tree shape, sweep rounds and message
// counts per degree.
#include <iostream>

#include "bench_util.h"
#include "ktree/tree.h"
#include "lb/balancer.h"

int main(int argc, char** argv) try {
  using namespace p2plb;
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("degrees", "comma-separated K values", "2,3,4,8,16,32");
  if (!cli.parse(argc, argv)) return 0;
  const bool csv = cli.get_bool("csv");
  const auto params = bench::params_from_cli(cli);

  Rng rng(params.seed);
  const auto base = bench::build_loaded_ring(params, rng);

  print_heading(std::cout, "tree degree ablation (paper: K=2 vs K=8 are "
                           "similar)");
  Table t({"K", "tree size", "height", "eff height", "heavy before",
           "heavy after", "moved load", "LBI msgs", "VSA msgs"});
  for (const auto k : cli.get_int_list("degrees")) {
    auto ring = base;
    lb::BalancerConfig config;
    config.tree_degree = static_cast<std::uint32_t>(k);
    Rng brng(params.seed + 1);
    const auto report = lb::run_balance_round(ring, config, brng);
    const ktree::KTree tree(ring, config.tree_degree);
    t.add_row({std::to_string(k), std::to_string(tree.size()),
               std::to_string(tree.height()),
               std::to_string(tree.effective_height()),
               std::to_string(report.before.heavy_count),
               std::to_string(report.after.heavy_count),
               Table::num(report.vsa.assigned_load(), 0),
               std::to_string(
                   report.phase(lb::Phase::kAggregation).messages),
               std::to_string(report.phase(lb::Phase::kVsa).messages)});
  }
  bench::emit(t, csv);
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
