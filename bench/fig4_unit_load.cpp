// Figure 4 reproduction: unit load (load per unit of capacity) of every
// Chord node before (a) and after (b) one load-balancing round, Gaussian
// load distribution, 4096 nodes x 5 virtual servers, K = 2.
//
// Paper claims reproduced here:
//   * before balancing roughly 75% of the nodes are heavy;
//   * after balancing every heavy node has become light
//     (the unit-load scatter collapses to at/below the fair line).
//
// The paper's figure is a scatter plot; this binary prints the
// percentile profile of the unit-load distribution before/after (the
// information content of the scatter) plus the heavy/light/neutral
// counts.  --csv --scatter emits the raw per-node points for plotting.
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "lb/balancer.h"

namespace {

using namespace p2plb;

std::vector<double> unit_loads(const chord::Ring& ring) {
  std::vector<double> out;
  for (const chord::NodeIndex i : ring.live_nodes())
    out.push_back(ring.node_load(i) / ring.node(i).capacity);
  return out;
}

void print_profile(const std::string& label, const std::vector<double>& ul,
                   double fair, bool csv) {
  const Summary s = summarize(ul);
  Table t({"phase", "min", "p25", "median", "p75", "p95", "p99", "max",
           "mean", "fair(L/C)"});
  t.add_row({label, Table::num(s.min), Table::num(s.p25),
             Table::num(s.median), Table::num(s.p75), Table::num(s.p95),
             Table::num(s.p99), Table::num(s.max), Table::num(s.mean),
             Table::num(fair)});
  bench::emit(t, csv);
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("scatter", "emit per-node unit-load points", "false");
  if (!cli.parse(argc, argv)) return 0;
  const bool csv = cli.get_bool("csv");
  const auto params = bench::params_from_cli(cli);

  Rng rng(params.seed);
  auto ring = bench::build_loaded_ring(params, rng);
  const double fair = ring.total_load() / ring.total_capacity();

  print_heading(std::cout, "Figure 4(a): unit load before load balancing");
  const auto before_ul = unit_loads(ring);
  print_profile("before", before_ul, fair, csv);

  lb::BalancerConfig config;  // K = 2, proximity-ignorant, eps = 0.05
  Rng brng(params.seed + 1);
  const auto report = lb::run_balance_round(ring, config, brng);

  print_heading(std::cout, "Figure 4(b): unit load after load balancing");
  const auto after_ul = unit_loads(ring);
  print_profile("after", after_ul, fair, csv);

  print_heading(std::cout, "node classification (paper: ~75% heavy before;"
                           " all heavy become light after)");
  Table c({"phase", "heavy", "light", "neutral", "heavy %"});
  c.add_row({"before", std::to_string(report.before.heavy_count),
             std::to_string(report.before.light_count),
             std::to_string(report.before.neutral_count),
             Table::num(100.0 * report.before.heavy_fraction(), 1)});
  c.add_row({"after", std::to_string(report.after.heavy_count),
             std::to_string(report.after.light_count),
             std::to_string(report.after.neutral_count),
             Table::num(100.0 * report.after.heavy_fraction(), 1)});
  bench::emit(c, csv);

  print_heading(std::cout, "round summary");
  Table s({"metric", "value"});
  s.add_row({"virtual servers moved",
             std::to_string(report.transfers_applied)});
  s.add_row({"moved load", Table::num(report.vsa.assigned_load(), 1)});
  s.add_row({"moved load / total load",
             Table::num(report.vsa.assigned_load() / ring.total_load(), 4)});
  s.add_row({"VSA rounds (tree sweeps)", std::to_string(report.vsa.rounds)});
  s.add_row({"unassigned shed candidates",
             std::to_string(report.vsa.unassigned_heavy.size())});
  bench::emit(s, csv);

  if (cli.get_bool("scatter")) {
    print_heading(std::cout, "per-node scatter (node, before, after)");
    Table sc({"node", "unit_load_before", "unit_load_after"});
    for (std::size_t i = 0; i < before_ul.size(); ++i)
      sc.add_row({std::to_string(i), Table::num(before_ul[i], 6),
                  Table::num(after_ul[i], 6)});
    bench::emit(sc, csv);
  }
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
