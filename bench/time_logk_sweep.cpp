// Section 5.2 timing claim: "VSA completes quickly in O(log_K N) time"
// for K = 2 and K = 8, and LBI aggregation/dissemination are bounded by
// O(log_K N) rounds.
//
// This binary sweeps the system size N and prints, per (N, K):
//   * the K-nary tree's height and *effective* height (host changes on
//     the longest root-leaf path -- the number of remote hops a sweep
//     pays; same-host parent/child edges are free),
//   * LBI aggregation and VSA sweep round counts,
//   * message counts,
// together with log_K(V) for reference (V = number of virtual servers).
// The growth of every column must be logarithmic in N and shallower for
// K = 8 than K = 2.
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "ktree/tree.h"
#include "lb/balancer.h"

int main(int argc, char** argv) try {
  using namespace p2plb;
  Cli cli;
  cli.add_flag("sizes", "comma-separated node counts",
               "256,512,1024,2048,4096,8192");
  cli.add_flag("degrees", "comma-separated K values", "2,8");
  cli.add_flag("servers", "virtual servers per node", "5");
  cli.add_flag("seed", "root RNG seed", "1");
  cli.add_flag("csv", "emit CSV instead of aligned tables", "false");
  if (!cli.parse(argc, argv)) return 0;
  const bool csv = cli.get_bool("csv");
  const auto servers = static_cast<std::size_t>(cli.get_count("servers"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  print_heading(std::cout,
                "O(log_K N) sweep: tree depth and sweep rounds vs N");
  Table t({"N", "K", "V", "log_K V", "tree size", "height", "eff height",
           "LBI rounds", "VSA rounds", "LBI msgs", "VSA msgs"});
  for (const auto n : cli.get_int_list("sizes")) {
    bench::ExperimentParams params;
    params.nodes = static_cast<std::size_t>(n);
    params.servers_per_node = servers;
    params.seed = seed;
    Rng rng(params.seed);
    auto ring = bench::build_loaded_ring(params, rng);
    for (const auto k : cli.get_int_list("degrees")) {
      lb::BalancerConfig config;
      config.tree_degree = static_cast<std::uint32_t>(k);
      config.apply_transfers = false;  // measurement only
      auto ring_copy = ring;
      Rng brng(params.seed + 3);
      const auto report = lb::run_balance_round(ring_copy, config, brng);
      const ktree::KTree tree(ring, config.tree_degree);
      const double v = static_cast<double>(ring.virtual_server_count());
      const double logk = std::log(v) / std::log(static_cast<double>(k));
      t.add_row({std::to_string(n), std::to_string(k),
                 std::to_string(ring.virtual_server_count()),
                 Table::num(logk, 1), std::to_string(tree.size()),
                 std::to_string(tree.height()),
                 std::to_string(tree.effective_height()),
                 std::to_string(report.aggregation.rounds),
                 std::to_string(report.vsa.rounds),
                 std::to_string(
                     report.phase(lb::Phase::kAggregation).messages),
                 std::to_string(report.phase(lb::Phase::kVsa).messages)});
    }
  }
  bench::emit(t, csv);
  std::cout << "\n(Heights and rounds must grow ~logarithmically with N and"
               " shrink with K;\n the paper observed similar balancing"
               " results for K = 2 and K = 8.)\n";
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
