// Figure 5 reproduction: node load by capacity class before/after load
// balancing under the Gaussian load model.
//
// Paper claim: after balancing, "higher capacity nodes take more loads"
// -- the two skews (load distribution, node capacity) are aligned.  The
// paper shows per-capacity-class scatter plots; this binary prints the
// per-class load statistics, which must be strictly increasing in
// capacity after the round.
#include <iostream>
#include <map>

#include "bench_util.h"
#include "common/stats.h"
#include "lb/balancer.h"

namespace {

using namespace p2plb;

void print_by_capacity(const std::string& heading, const chord::Ring& ring,
                       bool csv) {
  std::map<double, RunningStats> classes;
  std::map<double, std::vector<double>> samples;
  for (const chord::NodeIndex i : ring.live_nodes()) {
    classes[ring.node(i).capacity].add(ring.node_load(i));
    samples[ring.node(i).capacity].push_back(ring.node_load(i));
  }
  const double fair = ring.total_load() / ring.total_capacity();
  print_heading(std::cout, heading);
  Table t({"capacity", "nodes", "mean load", "median", "min", "max",
           "fair target", "mean/target"});
  for (auto& [capacity, stats] : classes) {
    auto& sample = samples[capacity];
    std::sort(sample.begin(), sample.end());
    const double target = fair * capacity;
    t.add_row({Table::num(capacity, 0), std::to_string(stats.count()),
               Table::num(stats.mean(), 1),
               Table::num(percentile_sorted(sample, 0.5), 1),
               Table::num(stats.min(), 1), Table::num(stats.max(), 1),
               Table::num(target, 1),
               Table::num(stats.mean() / target, 3)});
  }
  bench::emit(t, csv);
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli;
  bench::add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const bool csv = cli.get_bool("csv");
  const auto params = bench::params_from_cli(cli);

  Rng rng(params.seed);
  auto ring = bench::build_loaded_ring(params, rng);

  print_by_capacity(
      "Figure 5 (before): load by capacity class, Gaussian workload", ring,
      csv);

  lb::BalancerConfig config;
  Rng brng(params.seed + 1);
  const auto report = lb::run_balance_round(ring, config, brng);

  print_by_capacity(
      "Figure 5 (after): load by capacity class -- higher capacity must "
      "carry more load",
      ring, csv);

  print_heading(std::cout, "balance outcome");
  Table s({"heavy before", "heavy after", "moved load"});
  s.add_row({std::to_string(report.before.heavy_count),
             std::to_string(report.after.heavy_count),
             Table::num(report.vsa.assigned_load(), 1)});
  bench::emit(s, csv);
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
