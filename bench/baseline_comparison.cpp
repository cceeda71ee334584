// Baseline comparison (Sections 1.1 and 6): the paper's proximity-aware
// scheme against
//   * its own proximity-ignorant variant,
//   * a centralized many-to-many directory (Rao et al.'s strongest
//     scheme == our sweep with an infinite rendezvous threshold),
//   * one-to-one random probing (Rao et al.'s simplest scheme),
//   * CFS-style virtual-server shedding (deleting servers; load is
//     absorbed by ring successors, risking thrashing).
//
// Reported per scheme: residual heavy nodes, moved load, mean physical
// transfer distance, message/probe counts, and thrash events.  CFS
// shedding "moves" load by arc absorption, so its distance column shows
// the successor distance; its thrash column is the paper's criticism
// made quantitative.
#include <iostream>

#include "bench_util.h"
#include "lb/baselines.h"

namespace {

using namespace p2plb;

struct Row {
  std::string scheme;
  std::size_t heavy_before = 0;
  std::size_t heavy_after = 0;
  double moved = 0.0;
  double mean_distance = 0.0;
  std::uint64_t messages = 0;
  std::size_t thrash = 0;
};

double mean_distance_of(const chord::Ring& ring,
                        const std::vector<lb::Assignment>& assignments,
                        topo::DistanceOracle& oracle) {
  const auto costs = lb::transfer_costs(ring, assignments, oracle);
  double moved = 0.0, weighted = 0.0;
  for (const auto& t : costs) {
    moved += t.assignment.load;
    weighted += t.assignment.load * t.distance;
  }
  return moved == 0.0 ? 0.0 : weighted / moved;
}

/// Aggregation + VSA traffic of a tree round (what the directory schemes
/// below also pay: registrations, queries and notifications).
std::uint64_t tree_messages(const lb::BalanceReport& report) {
  return report.phase(lb::Phase::kAggregation).messages +
         report.phase(lb::Phase::kVsa).messages;
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli;
  bench::add_common_flags(cli);
  if (!cli.parse(argc, argv)) return 0;
  const bool csv = cli.get_bool("csv");
  const auto params = bench::params_from_cli(cli);
  const auto topo_params = topo::TransitStubParams::ts5k_large();

  Rng rng(params.seed);
  const bench::Deployment base =
      bench::build_deployment(params, topo_params, "ts5k-large", rng);

  std::vector<Row> rows;

  // --- the paper's scheme, proximity-aware ------------------------------
  {
    bench::Deployment d = base;
    lb::ProximityConfig pconfig;
    Rng prng(params.seed + 1);
    const auto keys =
        lb::build_proximity_map(d.ring, d.topology, pconfig, prng).node_keys;
    lb::BalancerConfig config;
    config.mode = lb::BalanceMode::kProximityAware;
    Rng brng(params.seed + 7);
    const auto report = lb::run_balance_round(d.ring, config, brng, keys);
    topo::DistanceOracle oracle(d.topology.graph);
    rows.push_back({"proximity-aware K-nary tree (this paper)",
                    report.before.heavy_count, report.after.heavy_count,
                    report.vsa.assigned_load(),
                    mean_distance_of(d.ring, report.vsa.assignments, oracle),
                    tree_messages(report), 0});
  }

  // --- proximity-ignorant variant ---------------------------------------
  {
    bench::Deployment d = base;
    lb::BalancerConfig config;
    Rng brng(params.seed + 7);
    const auto report = lb::run_balance_round(d.ring, config, brng);
    topo::DistanceOracle oracle(d.topology.graph);
    rows.push_back({"proximity-ignorant K-nary tree",
                    report.before.heavy_count, report.after.heavy_count,
                    report.vsa.assigned_load(),
                    mean_distance_of(d.ring, report.vsa.assignments, oracle),
                    tree_messages(report), 0});
  }

  // --- many-to-many central directory (threshold = infinity) -------------
  {
    bench::Deployment d = base;
    lb::BalancerConfig config;
    config.rendezvous_threshold = static_cast<std::size_t>(-1);
    Rng brng(params.seed + 7);
    const auto report = lb::run_balance_round(d.ring, config, brng);
    topo::DistanceOracle oracle(d.topology.graph);
    rows.push_back({"many-to-many directory (Rao et al.)",
                    report.before.heavy_count, report.after.heavy_count,
                    report.vsa.assigned_load(),
                    mean_distance_of(d.ring, report.vsa.assignments, oracle),
                    tree_messages(report), 0});
  }

  // --- one-to-many directories ----------------------------------------------
  {
    bench::Deployment d = base;
    Rng brng(params.seed + 7);
    const std::size_t heavy_before =
        lb::classify_all(d.ring, lb::ground_truth_lbi(d.ring), 0.05)
            .heavy_count;
    auto result = lb::run_one_to_many(d.ring, 0.05, brng, 16);
    topo::DistanceOracle oracle(d.topology.graph);
    rows.push_back({"one-to-many directories (Rao et al.)", heavy_before,
                    result.residual_heavy, result.load_moved,
                    mean_distance_of(d.ring, result.assignments, oracle),
                    result.messages, 0});
  }

  // --- one-to-one random probing ------------------------------------------
  {
    bench::Deployment d = base;
    Rng brng(params.seed + 7);
    const std::size_t heavy_before =
        lb::classify_all(d.ring, lb::ground_truth_lbi(d.ring), 0.05)
            .heavy_count;
    auto result = lb::run_one_to_one(d.ring, 0.05, brng);
    topo::DistanceOracle oracle(d.topology.graph);
    rows.push_back({"one-to-one random probing (Rao et al.)", heavy_before,
                    result.residual_heavy, result.load_moved,
                    mean_distance_of(d.ring, result.assignments, oracle),
                    result.probes, 0});
  }

  // --- CFS-style shedding ---------------------------------------------------
  {
    bench::Deployment d = base;
    const std::size_t heavy_before =
        lb::classify_all(d.ring, lb::ground_truth_lbi(d.ring), 0.05)
            .heavy_count;
    const auto result = lb::run_cfs_shedding(d.ring, 0.05);
    rows.push_back({"CFS-style shedding", heavy_before,
                    result.residual_heavy, result.load_moved, 0.0, 0,
                    result.thrash_events});
  }

  print_heading(std::cout, "baseline comparison, ts5k-large, 4096 nodes");
  Table t({"scheme", "heavy before", "heavy after", "moved load",
           "mean transfer distance", "messages/probes", "thrash events"});
  for (const Row& r : rows)
    t.add_row({r.scheme, std::to_string(r.heavy_before),
               std::to_string(r.heavy_after), Table::num(r.moved, 0),
               r.mean_distance == 0.0 && r.scheme.starts_with("CFS")
                   ? std::string("n/a (arc absorption)")
                   : Table::num(r.mean_distance, 2),
               std::to_string(r.messages), std::to_string(r.thrash)});
  bench::emit(t, csv);
  return 0;
} catch (const p2plb::PreconditionError& e) {
  std::cerr << e.what() << '\n';
  return 1;
}
