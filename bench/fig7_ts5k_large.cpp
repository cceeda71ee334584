// Figure 7 reproduction: moved-load vs physical transfer distance on the
// "ts5k-large" transit-stub topology (few big stub domains), comparing
// the proximity-aware and proximity-ignorant schemes.
//
// Paper claims (shapes to reproduce):
//   * aware moves ~67% of the total moved load within 2 hops and ~86%
//     within 10 hops;
//   * ignorant moves only ~13% within 10 hops;
// where one intradomain edge costs 1 hop unit and one interdomain edge
// costs 3.
//
// (a) prints the moved-load distribution over distance buckets; (b) the
// CDF at the bucket edges.  Multiple topology graphs (the paper runs 10)
// are aggregated; --graphs controls the count.
#include <iostream>
#include <limits>

#include "bench_util.h"
#include "common/histogram.h"

namespace {

using namespace p2plb;

void run_figure(const topo::TransitStubParams& topo_params,
                const std::string& topo_name, const Cli& cli) {
  const bool csv = cli.get_bool("csv");
  const auto params = bench::params_from_cli(cli);
  const auto graphs = cli.get_count("graphs");

  lb::ProximityConfig proximity;
  proximity.landmark_count =
      static_cast<std::size_t>(cli.get_count("landmarks"));
  proximity.bits_per_dimension = static_cast<std::uint32_t>(
      cli.get_count("bits", std::numeric_limits<std::uint32_t>::max()));

  bench::DistanceProfile aware, ignorant;
  for (std::uint64_t g = 0; g < graphs; ++g) {
    Rng rng(params.seed + g * 1000);
    const bench::Deployment base =
        bench::build_deployment(params, topo_params, topo_name, rng);
    bench::run_mode_into_profile(base, lb::BalanceMode::kProximityAware,
                                 proximity, params.seed + g * 1000 + 7,
                                 aware);
    bench::run_mode_into_profile(base, lb::BalanceMode::kProximityIgnorant,
                                 proximity, params.seed + g * 1000 + 7,
                                 ignorant);
  }

  // Distance buckets matching the paper's x-axis granularity.
  const std::vector<double> edges{0, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24,
                                  32};
  Histogram ha(edges), hi(edges);
  for (std::size_t i = 0; i < aware.distances.size(); ++i)
    ha.add(aware.distances[i], aware.loads[i]);
  for (std::size_t i = 0; i < ignorant.distances.size(); ++i)
    hi.add(ignorant.distances[i], ignorant.loads[i]);

  print_heading(std::cout, "(a) moved load distribution over distance, " +
                               topo_name + " (" + std::to_string(graphs) +
                               " graphs)");
  Table dist({"hops [lo,hi)", "aware % of moved load",
              "ignorant % of moved load"});
  const auto fa = ha.fractions();
  const auto fi = hi.fractions();
  for (std::size_t b = 0; b < ha.bin_count(); ++b)
    dist.add_row({"[" + Table::num(ha.bin_lo(b), 0) + "," +
                      Table::num(ha.bin_hi(b), 0) + ")",
                  Table::num(100.0 * fa[b], 1),
                  Table::num(100.0 * fi[b], 1)});
  dist.add_row({">= " + Table::num(edges.back(), 0),
                Table::num(100.0 * ha.overflow() / std::max(1.0, ha.total()), 1),
                Table::num(100.0 * hi.overflow() / std::max(1.0, hi.total()), 1)});
  bench::emit(dist, csv);

  print_heading(std::cout, "(b) CDF of moved load over distance");
  Table cdf({"hops <=", "aware CDF %", "ignorant CDF %"});
  for (const double x : {1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 14.0, 20.0, 32.0})
    cdf.add_row({Table::num(x, 0),
                 Table::num(100.0 * aware.moved_within(x), 1),
                 Table::num(100.0 * ignorant.moved_within(x), 1)});
  bench::emit(cdf, csv);

  print_heading(std::cout, "headline comparison (paper: aware ~67% <= 2, "
                           "~86% <= 10; ignorant ~13% <= 10)");
  Table head({"scheme", "% moved <= 2 hops", "% moved <= 10 hops",
              "mean distance", "transfers", "heavy before", "heavy after"});
  head.add_row({"proximity-aware",
                Table::num(100.0 * aware.moved_within(2.0), 1),
                Table::num(100.0 * aware.moved_within(10.0), 1),
                Table::num(aware.mean_distance(), 2),
                std::to_string(aware.transfers),
                std::to_string(aware.before_heavy),
                std::to_string(aware.after_heavy)});
  head.add_row({"proximity-ignorant",
                Table::num(100.0 * ignorant.moved_within(2.0), 1),
                Table::num(100.0 * ignorant.moved_within(10.0), 1),
                Table::num(ignorant.mean_distance(), 2),
                std::to_string(ignorant.transfers),
                std::to_string(ignorant.before_heavy),
                std::to_string(ignorant.after_heavy)});
  bench::emit(head, csv);
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("graphs", "number of topology graphs to aggregate (paper: 10)",
               "3");
  cli.add_flag("landmarks", "number of landmark nodes (paper: 15)", "15");
  cli.add_flag("bits", "Hilbert grid bits per dimension", "2");
  if (!cli.parse(argc, argv)) return 0;
  run_figure(p2plb::topo::TransitStubParams::ts5k_large(), "ts5k-large",
             cli);
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
