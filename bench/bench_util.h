// Shared experiment plumbing for the figure-reproduction binaries.
//
// Every figure binary follows the same recipe: build the paper's
// deployment (4096 Chord nodes x 5 virtual servers, Gnutella-like
// capacities, Gaussian or Pareto loads, optionally attached to a
// GT-ITM-style topology), run one or more balancing rounds, and print
// aligned tables (or CSV with --csv).  Centralizing the recipe keeps
// each figure binary small and the configurations consistent.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "lb/balancer.h"
#include "lb/proximity.h"
#include "lb/vst.h"
#include "topo/distance_oracle.h"
#include "topo/transit_stub.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace p2plb::bench {

/// The paper's standard scale (Section 5.2).
inline constexpr std::size_t kPaperNodes = 4096;
inline constexpr std::size_t kPaperServersPerNode = 5;

/// Standard experiment knobs shared by the figure binaries.
struct ExperimentParams {
  std::size_t nodes = kPaperNodes;
  std::size_t servers_per_node = kPaperServersPerNode;
  workload::LoadDistribution distribution =
      workload::LoadDistribution::kGaussian;
  double utilization = 0.25;
  double cv = 1.0;            ///< Gaussian per-VS coefficient of variation
  double pareto_alpha = 1.5;  ///< the paper's Pareto shape
  std::uint64_t seed = 1;
};

/// Register the flags every figure binary accepts.
inline void add_common_flags(Cli& cli) {
  cli.add_flag("nodes", "number of Chord nodes", "4096");
  cli.add_flag("servers", "virtual servers per node", "5");
  cli.add_flag("seed", "root RNG seed", "1");
  cli.add_flag("utilization", "mean total load / total capacity", "0.25");
  cli.add_flag("csv", "emit CSV instead of aligned tables", "false");
}

inline ExperimentParams params_from_cli(const Cli& cli) {
  ExperimentParams p;
  p.nodes = static_cast<std::size_t>(cli.get_count("nodes"));
  p.servers_per_node = static_cast<std::size_t>(cli.get_count("servers"));
  p.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  p.utilization = cli.get_double("utilization");
  return p;
}

/// Build a loaded, topology-free ring (Figures 4-6 do not need one).
inline chord::Ring build_loaded_ring(const ExperimentParams& p, Rng& rng) {
  auto ring = workload::build_ring(
      p.nodes, p.servers_per_node,
      workload::CapacityProfile::gnutella_like(), rng);
  const auto model = workload::scaled_load_model(
      ring, p.distribution, p.utilization, p.cv, p.pareto_alpha);
  workload::assign_loads(ring, model, rng);
  return ring;
}

/// A ring attached to a transit-stub topology (Figures 7-8).
struct Deployment {
  topo::TransitStubTopology topology;
  chord::Ring ring;
};

inline Deployment build_deployment(const ExperimentParams& p,
                                   const topo::TransitStubParams& topo_params,
                                   const std::string& topo_name, Rng& rng) {
  auto topology = topo::generate_transit_stub(topo_params, rng, topo_name);
  const auto stubs = topology.stub_vertices();
  std::vector<std::uint32_t> attachments(p.nodes);
  const auto picks =
      rng.sample_indices(stubs.size(), std::min(p.nodes, stubs.size()));
  for (std::size_t i = 0; i < p.nodes; ++i)
    attachments[i] = stubs[picks[i % picks.size()]];
  auto ring = workload::build_ring(
      p.nodes, p.servers_per_node,
      workload::CapacityProfile::gnutella_like(), rng, attachments);
  const auto model = workload::scaled_load_model(
      ring, p.distribution, p.utilization, p.cv, p.pareto_alpha);
  workload::assign_loads(ring, model, rng);
  return {std::move(topology), std::move(ring)};
}

/// Moved-load-by-distance accounting for one balancing run.
struct DistanceProfile {
  std::vector<double> distances;  ///< per transfer
  std::vector<double> loads;      ///< per transfer (the weights)
  double total_moved = 0.0;
  std::size_t transfers = 0;
  std::size_t before_heavy = 0;
  std::size_t after_heavy = 0;

  void accumulate(const chord::Ring& ring,
                  const std::vector<lb::Assignment>& assignments,
                  topo::DistanceOracle& oracle) {
    const auto costs = lb::transfer_costs(ring, assignments, oracle);
    for (const auto& t : costs) {
      distances.push_back(t.distance);
      loads.push_back(t.assignment.load);
      total_moved += t.assignment.load;
    }
    transfers += costs.size();
  }

  /// Fraction of moved load at distance <= x.
  [[nodiscard]] double moved_within(double x) const {
    double within = 0.0;
    for (std::size_t i = 0; i < distances.size(); ++i)
      if (distances[i] <= x) within += loads[i];
    return total_moved == 0.0 ? 0.0 : within / total_moved;
  }

  [[nodiscard]] double mean_distance() const {
    double weighted = 0.0;
    for (std::size_t i = 0; i < distances.size(); ++i)
      weighted += distances[i] * loads[i];
    return total_moved == 0.0 ? 0.0 : weighted / total_moved;
  }
};

/// Run one balancing round in the given mode over a fresh copy of the
/// deployment and accumulate its transfer profile.
inline void run_mode_into_profile(const Deployment& base,
                                  lb::BalanceMode mode,
                                  const lb::ProximityConfig& proximity,
                                  std::uint64_t seed,
                                  DistanceProfile& profile) {
  Deployment d = base;
  Rng rng(seed);
  lb::BalancerConfig config;
  config.mode = mode;
  std::vector<chord::Key> keys;
  if (mode == lb::BalanceMode::kProximityAware) {
    Rng prng(seed + 1);
    keys = lb::build_proximity_map(d.ring, d.topology, proximity, prng)
               .node_keys;
  }
  const auto report = lb::run_balance_round(d.ring, config, rng, keys);
  topo::DistanceOracle oracle(d.topology.graph);
  profile.accumulate(d.ring, report.vsa.assignments, oracle);
  profile.before_heavy += report.before.heavy_count;
  profile.after_heavy += report.after.heavy_count;
}

/// Print a table either aligned or as CSV.
inline void emit(const Table& table, bool csv) {
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print_text(std::cout);
  }
}

}  // namespace p2plb::bench
