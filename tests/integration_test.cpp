// Integration tests: the full proximity pipeline (topology -> landmarks
// -> Hilbert keys -> proximity-aware balancing -> transfer costs), plus
// end-to-end behaviour that crosses module boundaries.
#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "common/stats.h"
#include "lb/balancer.h"
#include "lb/proximity.h"
#include "lb/vst.h"
#include "topo/distance_oracle.h"
#include "topo/transit_stub.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace p2plb {
namespace {

struct Deployment {
  topo::TransitStubTopology topology;
  chord::Ring ring;
};

/// Build a scaled-down "ts-large"-style deployment: few big stub domains,
/// Chord nodes attached to random stub vertices.
Deployment make_deployment(std::size_t chord_nodes, std::uint64_t seed) {
  Rng rng(seed);
  topo::TransitStubParams params;
  params.transit_domains = 4;
  params.transit_nodes_per_domain = 3;
  params.stub_domains_per_transit = 4;
  params.stub_nodes_mean = 20;
  auto topology = topo::generate_transit_stub(params, rng, "ts-test");

  const auto stubs = topology.stub_vertices();
  std::vector<std::uint32_t> attachments(chord_nodes);
  const auto picks = rng.sample_indices(stubs.size(), chord_nodes);
  for (std::size_t i = 0; i < chord_nodes; ++i)
    attachments[i] = stubs[picks[i]];

  auto ring = workload::build_ring(
      chord_nodes, 5, workload::CapacityProfile::gnutella_like(), rng,
      attachments);
  const auto model = workload::scaled_load_model(
      ring, workload::LoadDistribution::kGaussian, 0.25, 1.0);
  workload::assign_loads(ring, model, rng);
  return {std::move(topology), std::move(ring)};
}

double mean_transfer_distance(const Deployment& d,
                              const lb::BalanceReport& report,
                              topo::DistanceOracle& oracle) {
  const auto transfers =
      lb::transfer_costs(d.ring, report.vsa.assignments, oracle);
  double moved = 0.0, weighted = 0.0;
  for (const auto& t : transfers) {
    moved += t.assignment.load;
    weighted += t.assignment.load * t.distance;
  }
  return moved == 0.0 ? 0.0 : weighted / moved;
}

TEST(ProximityPipeline, MapsSameStubDomainToSameKey) {
  const Deployment d = make_deployment(256, 301);
  Rng rng(302);
  lb::ProximityConfig config;
  config.landmark_count = 12;  // all transit vertices of the test topo
  const auto map = lb::build_proximity_map(d.ring, d.topology, config, rng);
  ASSERT_EQ(map.node_keys.size(), d.ring.node_count());

  // Nodes attached to the same stub vertex must share a key; nodes in the
  // same stub domain usually do (identical gateway distances).
  std::size_t same_domain_pairs = 0, same_key_pairs = 0;
  for (chord::NodeIndex a = 0; a < d.ring.node_count(); ++a) {
    for (chord::NodeIndex b = a + 1; b < d.ring.node_count(); ++b) {
      const auto& va = d.topology.vertices[d.ring.node(a).attachment];
      const auto& vb = d.topology.vertices[d.ring.node(b).attachment];
      if (va.domain != vb.domain) continue;
      ++same_domain_pairs;
      if (map.node_keys[a] == map.node_keys[b]) ++same_key_pairs;
    }
  }
  ASSERT_GT(same_domain_pairs, 0u);
  // The coarse grid (2 bits/dim) collapses most same-domain pairs.
  EXPECT_GT(static_cast<double>(same_key_pairs) /
                static_cast<double>(same_domain_pairs),
            0.5);
}

TEST(ProximityPipeline, AwareBeatsIgnorantOnTransferDistance) {
  double aware_dist = 0.0, ignorant_dist = 0.0;
  std::size_t aware_after_heavy = 1, ignorant_after_heavy = 1;
  for (const auto mode : {lb::BalanceMode::kProximityAware,
                          lb::BalanceMode::kProximityIgnorant}) {
    const Deployment base = make_deployment(768, 303);
    Deployment d = base;  // fresh copy per mode (same workload)
    Rng rng(304);
    lb::BalancerConfig config;
    config.mode = mode;
    std::vector<chord::Key> keys;
    if (mode == lb::BalanceMode::kProximityAware) {
      lb::ProximityConfig pconfig;
      pconfig.landmark_count = 12;
      Rng prng(305);
      keys = lb::build_proximity_map(d.ring, d.topology, pconfig, prng)
                 .node_keys;
    }
    const auto report = lb::run_balance_round(d.ring, config, rng, keys);
    topo::DistanceOracle oracle(d.topology.graph);
    const double mean_dist = mean_transfer_distance(d, report, oracle);
    if (mode == lb::BalanceMode::kProximityAware) {
      aware_dist = mean_dist;
      aware_after_heavy = report.after.heavy_count;
    } else {
      ignorant_dist = mean_dist;
      ignorant_after_heavy = report.after.heavy_count;
    }
  }
  // Both modes balance completely...
  EXPECT_EQ(aware_after_heavy, 0u);
  EXPECT_EQ(ignorant_after_heavy, 0u);
  // ...but the proximity-aware mode moves load much less far.  (The gap
  // widens with scale; the full ts5k experiments in bench/ show ~2x.)
  EXPECT_GT(ignorant_dist, 0.0);
  EXPECT_LT(aware_dist, 0.7 * ignorant_dist)
      << "aware " << aware_dist << " vs ignorant " << ignorant_dist;
}

TEST(ProximityPipeline, ClusteringQualityDiscriminates) {
  const Deployment d = make_deployment(384, 311);
  Rng rng(312);
  lb::ProximityConfig config;
  config.landmark_count = 12;
  const auto map = lb::build_proximity_map(d.ring, d.topology, config, rng);
  const auto q = lb::measure_clustering_quality(d.ring, d.topology, map,
                                                /*near_radius=*/8.0,
                                                /*sample_pairs=*/2000, rng);
  ASSERT_GT(q.same_number_pairs, 0u);
  // Same-Hilbert-number nodes are much closer than random pairs...
  EXPECT_LT(q.mean_same_number_distance, 0.7 * q.mean_random_distance);
  // ...and mostly within the near radius (low false clustering).
  EXPECT_LT(q.false_clustering_rate, 0.35);
}

TEST(ProximityPipeline, FewerLandmarksClusterFalsely) {
  // Section 4.1: too few landmarks raise the false-clustering rate.
  const Deployment d = make_deployment(384, 313);
  double rate_many = 0.0, rate_few = 0.0;
  for (const std::size_t m : {std::size_t{12}, std::size_t{2}}) {
    Rng rng(314);
    lb::ProximityConfig config;
    config.landmark_count = m;
    const auto map =
        lb::build_proximity_map(d.ring, d.topology, config, rng);
    const auto q = lb::measure_clustering_quality(d.ring, d.topology, map,
                                                  8.0, 2000, rng);
    (m == 12 ? rate_many : rate_few) = q.false_clustering_rate;
  }
  EXPECT_LT(rate_many, rate_few);
}

TEST(ProximityPipeline, RequiresAttachments) {
  Rng rng(306);
  auto ring = workload::build_ring(
      8, 2, workload::CapacityProfile::uniform(1.0), rng);
  topo::TransitStubParams params;
  params.transit_domains = 2;
  params.transit_nodes_per_domain = 2;
  params.stub_domains_per_transit = 1;
  params.stub_nodes_mean = 4;
  const auto topology = topo::generate_transit_stub(params, rng, "t");
  lb::ProximityConfig config;
  config.landmark_count = 4;
  EXPECT_THROW((void)lb::build_proximity_map(ring, topology, config, rng),
               PreconditionError);
}

TEST(Integration, RepeatedChurnAndRebalance) {
  // Nodes join and leave between balancing rounds; the system keeps
  // converging and never loses virtual servers it did not delete.
  // (256 nodes: large enough that the default epsilon's slack always
  // covers the shed load -- see Balancer.ZeroEpsilonCannotPlaceEverything
  // for the small-ring failure mode.)
  Deployment d = make_deployment(256, 307);
  Rng rng(308);
  const auto stubs = d.topology.stub_vertices();
  for (int round = 0; round < 5; ++round) {
    // Churn: one leave (with graceful VS handoff to a random survivor),
    // one join.
    const auto live = d.ring.live_nodes();
    const auto leaving = live[rng.below(live.size())];
    const auto survivors = [&] {
      auto v = d.ring.live_nodes();
      std::erase(v, leaving);
      return v;
    }();
    for (const chord::Key vs :
         std::vector<chord::Key>(d.ring.node(leaving).servers)) {
      d.ring.transfer_virtual_server(
          vs, survivors[rng.below(survivors.size())]);
    }
    d.ring.remove_node(leaving);
    const auto fresh = d.ring.add_node(
        workload::CapacityProfile::gnutella_like().sample(rng),
        stubs[rng.below(stubs.size())]);
    for (int v = 0; v < 5; ++v)
      (void)d.ring.add_random_virtual_server(fresh, rng);
    const auto model = workload::scaled_load_model(
        d.ring, workload::LoadDistribution::kGaussian, 0.25, 1.0);
    workload::assign_loads(d.ring, model, rng);

    lb::BalancerConfig config;
    const auto report = lb::run_balance_round(d.ring, config, rng);
    EXPECT_EQ(report.after.heavy_count, 0u) << "round " << round;
  }
}

}  // namespace
}  // namespace p2plb
