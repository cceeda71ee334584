// Figure 8 reproduction: moved-load distribution over transfer distance
// on "ts5k-small" (many tiny stub domains -- nodes scattered across the
// whole Internet), proximity-aware vs proximity-ignorant.
//
// Paper claim: even with nodes scattered Internet-wide, the
// proximity-aware scheme still moves load markedly closer than the
// ignorant one (the gap is smaller than on ts5k-large but clearly
// present).
#include <iostream>
#include <limits>

#include "bench_util.h"
#include "common/histogram.h"

namespace {

using namespace p2plb;

}  // namespace

int main(int argc, char** argv) try {
  Cli cli;
  bench::add_common_flags(cli);
  cli.add_flag("graphs", "number of topology graphs to aggregate (paper: 10)",
               "3");
  cli.add_flag("landmarks", "number of landmark nodes (paper: 15)", "15");
  cli.add_flag("bits", "Hilbert grid bits per dimension", "2");
  if (!cli.parse(argc, argv)) return 0;
  const bool csv = cli.get_bool("csv");
  const auto params = bench::params_from_cli(cli);
  const auto graphs = cli.get_count("graphs");

  lb::ProximityConfig proximity;
  proximity.landmark_count =
      static_cast<std::size_t>(cli.get_count("landmarks"));
  proximity.bits_per_dimension = static_cast<std::uint32_t>(
      cli.get_count("bits", std::numeric_limits<std::uint32_t>::max()));

  bench::DistanceProfile aware, ignorant;
  const auto topo_params = topo::TransitStubParams::ts5k_small();
  for (std::uint64_t g = 0; g < graphs; ++g) {
    Rng rng(params.seed + g * 1000);
    const bench::Deployment base =
        bench::build_deployment(params, topo_params, "ts5k-small", rng);
    bench::run_mode_into_profile(base, lb::BalanceMode::kProximityAware,
                                 proximity, params.seed + g * 1000 + 7,
                                 aware);
    bench::run_mode_into_profile(base, lb::BalanceMode::kProximityIgnorant,
                                 proximity, params.seed + g * 1000 + 7,
                                 ignorant);
  }

  const std::vector<double> edges{0, 2, 4, 6, 8, 10, 12, 14, 16, 20, 24,
                                  32};
  Histogram ha(edges), hi(edges);
  for (std::size_t i = 0; i < aware.distances.size(); ++i)
    ha.add(aware.distances[i], aware.loads[i]);
  for (std::size_t i = 0; i < ignorant.distances.size(); ++i)
    hi.add(ignorant.distances[i], ignorant.loads[i]);

  print_heading(std::cout,
                "Figure 8: moved load distribution over distance, "
                "ts5k-small (" + std::to_string(graphs) + " graphs)");
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

  print_heading(std::cout, "summary (paper: aware still clearly beats "
                           "ignorant on scattered nodes)");
  Table head({"scheme", "% moved <= 4 hops", "% moved <= 10 hops",
              "mean distance", "heavy after"});
  head.add_row({"proximity-aware",
                Table::num(100.0 * aware.moved_within(4.0), 1),
                Table::num(100.0 * aware.moved_within(10.0), 1),
                Table::num(aware.mean_distance(), 2),
                std::to_string(aware.after_heavy)});
  head.add_row({"proximity-ignorant",
                Table::num(100.0 * ignorant.moved_within(4.0), 1),
                Table::num(100.0 * ignorant.moved_within(10.0), 1),
                Table::num(ignorant.mean_distance(), 2),
                std::to_string(ignorant.after_heavy)});
  bench::emit(head, csv);
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
