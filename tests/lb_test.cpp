// Unit and property tests for the load-balancing core: LBI aggregation,
// classification, shed-set selection, the VSA sweep, VST and the
// end-to-end balancer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/stats.h"

#include "common/error.h"
#include "common/rng.h"
#include "ktree/tree.h"
#include "lb/balancer.h"
#include "lb/classify.h"
#include "lb/lbi.h"
#include "lb/reporting.h"
#include "lb/selection.h"
#include "lb/vsa.h"
#include "lb/vst.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace p2plb::lb {
namespace {

chord::Ring random_loaded_ring(std::size_t nodes, std::size_t vs_per_node,
                               std::uint64_t seed) {
  Rng rng(seed);
  auto ring = workload::build_ring(
      nodes, vs_per_node, workload::CapacityProfile::gnutella_like(), rng);
  const auto model = workload::scaled_load_model(
      ring, workload::LoadDistribution::kGaussian, 0.25, 1.0);
  workload::assign_loads(ring, model, rng);
  return ring;
}

// --- LBI ------------------------------------------------------------------------

class LbiSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LbiSweep, AggregationMatchesGroundTruth) {
  const auto ring = random_loaded_ring(128, 5, GetParam());
  const ktree::KTree tree(ring, 2);
  Rng rng(GetParam() + 1);
  const LbiAggregation agg = aggregate_lbi(tree, rng);
  const Lbi truth = ground_truth_lbi(ring);
  EXPECT_NEAR(agg.system.load, truth.load, 1e-6 * truth.load);
  EXPECT_NEAR(agg.system.capacity, truth.capacity, 1e-9 * truth.capacity);
  EXPECT_DOUBLE_EQ(agg.system.min_load, truth.min_load);
  // One Reporter per node, and every live node reported.
  ASSERT_EQ(agg.reporter_vs.size(), ring.node_count());
  for (const chord::NodeIndex i : ring.live_nodes())
    EXPECT_TRUE(tree.node(agg.reporter_vs[i].leaf).is_leaf());
  EXPECT_EQ(agg.rounds, static_cast<std::uint32_t>(tree.height()) + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LbiSweep, ::testing::Values(101, 102, 103));

TEST(Lbi, DisseminationCoversTree) {
  const auto ring = random_loaded_ring(64, 3, 104);
  const ktree::KTree tree(ring, 2);
  const LbiDissemination d = disseminate_lbi(tree);
  EXPECT_EQ(d.rounds, static_cast<std::uint32_t>(tree.height()) + 1);
}

TEST(Lbi, ReporterVsBelongsToNode) {
  const auto ring = random_loaded_ring(64, 4, 105);
  const ktree::KTree tree(ring, 2);
  Rng rng(106);
  const auto agg = aggregate_lbi(tree, rng);
  for (const chord::NodeIndex node : ring.live_nodes()) {
    const Reporter& r = agg.reporter_vs[node];
    const auto& servers = ring.node(node).servers;
    EXPECT_NE(std::find(servers.begin(), servers.end(), r.key),
              servers.end());
    EXPECT_EQ(r.leaf, tree.entry_leaf_for(r.key));
  }
}

// --- Classification --------------------------------------------------------------

TEST(Classify, BoundaryConditions) {
  chord::Ring ring;
  const auto heavy = ring.add_node(10.0);
  const auto light = ring.add_node(10.0);
  const auto neutral = ring.add_node(10.0);
  ring.add_virtual_server(heavy, 100);
  ring.add_virtual_server(light, 200);
  ring.add_virtual_server(neutral, 300);
  // System: L = 30, C = 30 -> T_i = 10 for all (eps = 0).
  ring.set_load(100, 18.0);  // heavy: 18 > 10
  ring.set_load(200, 2.0);   // delta 8 >= min_load 2 -> light
  ring.set_load(300, 10.0);  // delta 0 < 2 -> neutral
  const Lbi system{30.0, 30.0, 2.0};
  const auto c = classify_all(ring, system, 0.0);
  ASSERT_EQ(c.nodes.size(), 3u);
  EXPECT_EQ(c.nodes[0].cls, NodeClass::kHeavy);
  EXPECT_EQ(c.nodes[1].cls, NodeClass::kLight);
  EXPECT_EQ(c.nodes[2].cls, NodeClass::kNeutral);
  EXPECT_EQ(c.heavy_count, 1u);
  EXPECT_EQ(c.light_count, 1u);
  EXPECT_EQ(c.neutral_count, 1u);
  EXPECT_DOUBLE_EQ(c.nodes[0].target, 10.0);
  EXPECT_DOUBLE_EQ(c.nodes[0].delta, -8.0);
  EXPECT_NEAR(c.heavy_fraction(), 1.0 / 3.0, 1e-12);
}

TEST(Classify, LoadExactlyAtTargetIsNotHeavy) {
  chord::Ring ring;
  const auto n = ring.add_node(10.0);
  ring.add_virtual_server(n, 100);
  ring.set_load(100, 10.0);
  const Lbi system{10.0, 10.0, 20.0};  // min_load huge -> not light either
  const auto a = classify_node(ring, n, system, 0.0);
  EXPECT_EQ(a.cls, NodeClass::kNeutral);
}

TEST(Classify, EpsilonRaisesTargets) {
  chord::Ring ring;
  const auto n = ring.add_node(10.0);
  const auto other = ring.add_node(10.0);
  ring.add_virtual_server(n, 100);
  ring.add_virtual_server(other, 200);
  ring.set_load(100, 11.0);
  ring.set_load(200, 9.0);
  // System L = 20, C = 20: with eps = 0 the target is 10 < 11 -> heavy;
  // with eps = 0.2 the target is 12 and delta = 1 >= L_min -> light.
  const Lbi system{20.0, 20.0, 0.1};
  EXPECT_EQ(classify_node(ring, n, system, 0.0).cls, NodeClass::kHeavy);
  EXPECT_EQ(classify_node(ring, n, system, 0.2).cls, NodeClass::kLight);
  EXPECT_THROW((void)classify_node(ring, n, system, -0.1),
               PreconditionError);
  const Lbi no_capacity{1.0, 0.0, 0.0};
  EXPECT_THROW((void)classify_node(ring, n, no_capacity, 0.0),
               PreconditionError);
}

// --- Selection --------------------------------------------------------------------

chord::Ring ring_with_loads(const std::vector<double>& loads,
                            chord::NodeIndex& node_out) {
  chord::Ring ring;
  node_out = ring.add_node(1.0);
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const auto id = static_cast<chord::Key>((i + 1) * 1000);
    ring.add_virtual_server(node_out, id);
    ring.set_load(id, loads[i]);
  }
  return ring;
}

TEST(Selection, ExactPicksMinimalSum) {
  chord::NodeIndex node = 0;
  const auto ring = ring_with_loads({5.0, 4.0, 3.0, 2.0}, node);
  // excess = 6: best subset is {4, 2} (sum 6), not {5, 2} or {5, 3}.
  const auto picked =
      select_servers_to_shed(ring, node, 6.0, SelectionPolicy::kExact);
  EXPECT_DOUBLE_EQ(total_load_of(ring, picked), 6.0);
  EXPECT_EQ(picked.size(), 2u);
}

TEST(Selection, ExactPrefersFewerServersOnTies) {
  chord::NodeIndex node = 0;
  const auto ring = ring_with_loads({6.0, 3.0, 3.0}, node);
  const auto picked =
      select_servers_to_shed(ring, node, 6.0, SelectionPolicy::kExact);
  EXPECT_DOUBLE_EQ(total_load_of(ring, picked), 6.0);
  EXPECT_EQ(picked.size(), 1u);  // {6} beats {3, 3}
}

TEST(Selection, ShedsEverythingWhenExcessExceedsTotal) {
  chord::NodeIndex node = 0;
  const auto ring = ring_with_loads({1.0, 2.0}, node);
  for (const auto policy :
       {SelectionPolicy::kExact, SelectionPolicy::kGreedy}) {
    const auto picked = select_servers_to_shed(ring, node, 100.0, policy);
    EXPECT_EQ(picked.size(), 2u);
  }
}

TEST(Selection, GreedyIsFeasibleAndExactIsNoWorse) {
  Rng rng(110);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> loads(1 + rng.below(10));
    double total = 0.0;
    for (auto& l : loads) {
      l = rng.uniform(0.1, 10.0);
      total += l;
    }
    const double excess = rng.uniform(0.05, total);
    chord::NodeIndex node = 0;
    const auto ring = ring_with_loads(loads, node);
    const auto exact =
        select_servers_to_shed(ring, node, excess, SelectionPolicy::kExact);
    const auto greedy =
        select_servers_to_shed(ring, node, excess, SelectionPolicy::kGreedy);
    EXPECT_GE(total_load_of(ring, exact), excess - 1e-9);
    EXPECT_GE(total_load_of(ring, greedy), excess - 1e-9);
    EXPECT_LE(total_load_of(ring, exact),
              total_load_of(ring, greedy) + 1e-9);
  }
}

TEST(Selection, Preconditions) {
  chord::NodeIndex node = 0;
  const auto ring = ring_with_loads({1.0}, node);
  EXPECT_THROW((void)select_servers_to_shed(ring, node, 0.0),
               PreconditionError);
  EXPECT_THROW((void)select_servers_to_shed(ring, node, -1.0),
               PreconditionError);
}

// --- VSA sweep ---------------------------------------------------------------------

struct VsaFixture {
  chord::Ring ring;
  std::vector<chord::NodeIndex> nodes;

  explicit VsaFixture(std::size_t node_count, std::uint64_t seed = 120) {
    Rng rng(seed);
    for (std::size_t i = 0; i < node_count; ++i) {
      nodes.push_back(ring.add_node(1.0));
      for (int v = 0; v < 3; ++v)
        (void)ring.add_random_virtual_server(nodes.back(), rng);
    }
  }
};

TEST(Vsa, HeaviestFirstBestFitWithResidual) {
  VsaFixture fx(4);
  const ktree::KTree tree(fx.ring, 2);
  // All records enter at one leaf; threshold 0 so the leaf pairs.
  const ktree::KtIndex leaf =
      tree.entry_leaf_for(fx.ring.node(fx.nodes[0]).servers[0]);
  VsaEntries entries;
  const chord::Key vs_a = fx.ring.node(fx.nodes[0]).servers[0];
  const chord::Key vs_b = fx.ring.node(fx.nodes[0]).servers[1];
  entries.heavy[leaf] = {{5.0, vs_a, fx.nodes[0]}, {3.0, vs_b, fx.nodes[0]}};
  entries.light[leaf] = {{4.0, fx.nodes[1]}, {10.0, fx.nodes[2]}};
  VsaParams params;
  params.rendezvous_threshold = 0;
  params.min_load = 2.0;
  const VsaResult r = run_vsa(tree, entries, params);
  ASSERT_EQ(r.assignments.size(), 2u);
  // Heaviest (5.0) takes best fit among {4, 10} -> 10 (only delta >= 5);
  // then 3.0 takes best fit among {4, residual 5} -> 4.
  EXPECT_DOUBLE_EQ(r.assignments[0].load, 5.0);
  EXPECT_EQ(r.assignments[0].to, fx.nodes[2]);
  EXPECT_DOUBLE_EQ(r.assignments[1].load, 3.0);
  EXPECT_EQ(r.assignments[1].to, fx.nodes[1]);
  EXPECT_TRUE(r.unassigned_heavy.empty());
  // Remaining lights: residual 5 - 3 = 2 >= min_load kept, 4's residual
  // 1 < 2 dropped... wait: 4 was consumed by 3.0 leaving 1 (< 2, dropped);
  // 10 was consumed by 5.0 leaving 5 (>= 2, kept) then gave 3? No: 3 took
  // the 4.  So exactly one light (delta 5) survives to the root.
  ASSERT_EQ(r.unassigned_light.size(), 1u);
  EXPECT_DOUBLE_EQ(r.unassigned_light[0].delta, 5.0);
}

TEST(Vsa, UnassignableHeavyReachesRoot) {
  VsaFixture fx(3);
  const ktree::KTree tree(fx.ring, 2);
  const ktree::KtIndex leaf =
      tree.entry_leaf_for(fx.ring.node(fx.nodes[0]).servers[0]);
  VsaEntries entries;
  const chord::Key vs = fx.ring.node(fx.nodes[0]).servers[0];
  entries.heavy[leaf] = {{10.0, vs, fx.nodes[0]}};
  entries.light[leaf] = {{5.0, fx.nodes[1]}};  // too small
  VsaParams params;
  params.rendezvous_threshold = 0;
  params.min_load = 1.0;
  const VsaResult r = run_vsa(tree, entries, params);
  EXPECT_TRUE(r.assignments.empty());
  ASSERT_EQ(r.unassigned_heavy.size(), 1u);
  EXPECT_DOUBLE_EQ(r.unassigned_heavy[0].load, 10.0);
  ASSERT_EQ(r.unassigned_light.size(), 1u);
}

TEST(Vsa, SmallerCandidatesPairEvenWhenHeaviestCannot) {
  VsaFixture fx(4);
  const ktree::KTree tree(fx.ring, 2);
  const ktree::KtIndex leaf =
      tree.entry_leaf_for(fx.ring.node(fx.nodes[0]).servers[0]);
  VsaEntries entries;
  const chord::Key vs_a = fx.ring.node(fx.nodes[0]).servers[0];
  const chord::Key vs_b = fx.ring.node(fx.nodes[0]).servers[1];
  entries.heavy[leaf] = {{100.0, vs_a, fx.nodes[0]},
                         {2.0, vs_b, fx.nodes[0]}};
  entries.light[leaf] = {{3.0, fx.nodes[1]}};
  VsaParams params;
  params.rendezvous_threshold = 0;
  params.min_load = 1.0;
  const VsaResult r = run_vsa(tree, entries, params);
  ASSERT_EQ(r.assignments.size(), 1u);
  EXPECT_DOUBLE_EQ(r.assignments[0].load, 2.0);
  ASSERT_EQ(r.unassigned_heavy.size(), 1u);
  EXPECT_DOUBLE_EQ(r.unassigned_heavy[0].load, 100.0);
}

TEST(Vsa, ThresholdDefersPairingToAncestor) {
  VsaFixture fx(4, 121);
  const ktree::KTree tree(fx.ring, 2);
  const ktree::KtIndex leaf =
      tree.entry_leaf_for(fx.ring.node(fx.nodes[0]).servers[0]);
  VsaEntries entries;
  const chord::Key vs = fx.ring.node(fx.nodes[0]).servers[0];
  entries.heavy[leaf] = {{5.0, vs, fx.nodes[0]}};
  entries.light[leaf] = {{6.0, fx.nodes[1]}};
  VsaParams high_threshold;
  high_threshold.rendezvous_threshold = 30;  // 2 records never reach 30
  high_threshold.min_load = 1.0;
  const VsaResult deferred = run_vsa(tree, entries, high_threshold);
  ASSERT_EQ(deferred.assignments.size(), 1u);
  EXPECT_EQ(deferred.assignments[0].rendezvous_depth, 0u);  // at the root

  VsaParams zero_threshold;
  zero_threshold.rendezvous_threshold = 0;
  zero_threshold.min_load = 1.0;
  const VsaResult eager = run_vsa(tree, entries, zero_threshold);
  ASSERT_EQ(eager.assignments.size(), 1u);
  EXPECT_EQ(eager.assignments[0].rendezvous_depth, tree.node(leaf).depth);
}

TEST(Vsa, RecordsMustEnterAtLeaves) {
  VsaFixture fx(2, 122);
  const ktree::KTree tree(fx.ring, 2);
  // Find an interior node (the root, unless the tree is a single leaf).
  if (tree.size() == 1) GTEST_SKIP();
  VsaEntries entries;
  entries.light[tree.root()] = {{1.0, fx.nodes[0]}};
  VsaParams params;
  EXPECT_THROW((void)run_vsa(tree, entries, params), PreconditionError);
}

// --- Reporting ------------------------------------------------------------------------

TEST(Reporting, IgnorantUsesReporterVs) {
  const auto ring = random_loaded_ring(64, 5, 130);
  const ktree::KTree tree(ring, 2);
  Rng rng(131);
  const auto agg = aggregate_lbi(tree, rng);
  const auto classification = classify_all(ring, agg.system, 0.0);
  const auto entries =
      build_entries_ignorant(tree, classification, agg.reporter_vs);
  // Every heavy node's shed servers and every light node's delta appear.
  std::size_t expected_lights = classification.light_count;
  EXPECT_EQ(entries.light_count(), expected_lights);
  EXPECT_GT(entries.heavy_count(), 0u);
  // Heavy records reference servers owned by the declared source node.
  for (const auto& [leaf, records] : entries.heavy) {
    for (const auto& r : records) {
      EXPECT_EQ(ring.server(r.vs).owner, r.from);
      EXPECT_DOUBLE_EQ(ring.server(r.vs).load, r.load);
    }
  }
}

TEST(Reporting, ProximityUsesNodeKeys) {
  const auto ring = random_loaded_ring(32, 4, 132);
  const ktree::KTree tree(ring, 2);
  Rng rng(133);
  const auto agg = aggregate_lbi(tree, rng);
  const auto classification = classify_all(ring, agg.system, 0.0);
  // All nodes publish at the same key -> all records at one leaf.
  const std::vector<chord::Key> keys(ring.node_count(), 0x12345678u);
  const auto entries = build_entries_proximity(tree, classification, keys);
  const ktree::KtIndex expected_leaf = tree.leaf_containing(0x12345678u);
  for (const auto& [leaf, records] : entries.heavy)
    EXPECT_EQ(leaf, expected_leaf);
  for (const auto& [leaf, records] : entries.light)
    EXPECT_EQ(leaf, expected_leaf);
}

TEST(Reporting, ServerlessNodeEntersWhereItsLbiDid) {
  // A server-less node publishes under a hashed key; put a live VS of
  // another node exactly at that key.  aggregate_lbi picks the node's
  // leaf by the node (it has no servers), so its light record must enter
  // at that same leaf, not at the colliding VS's entry leaf.
  auto ring = random_loaded_ring(16, 2, 134);
  const chord::NodeIndex serverless = ring.add_node(1.0);
  chord::Key key = 0;
  {
    const ktree::KTree tree(ring, 2);
    Rng rng(135);
    key = aggregate_lbi(tree, rng).reporter_vs.at(serverless).key;
  }
  ASSERT_FALSE(ring.has_server(key));
  ring.add_virtual_server(0, key);
  ring.set_load(key, 0.1);

  const ktree::KTree tree(ring, 2);
  Rng rng(135);
  const auto agg = aggregate_lbi(tree, rng);
  ASSERT_EQ(agg.reporter_vs.at(serverless).key, key);
  const ktree::KtIndex lbi_leaf = tree.leaf_containing(key);
  EXPECT_EQ(agg.reporter_vs.at(serverless).leaf, lbi_leaf);
  // The fixture is not vacuous: the two rules pick different leaves.
  ASSERT_NE(lbi_leaf, tree.entry_leaf_for(key));

  const auto classification = classify_all(ring, agg.system, 0.0);
  const auto entries =
      build_entries_ignorant(tree, classification, agg.reporter_vs);
  std::vector<ktree::KtIndex> at;
  for (const auto& [leaf, records] : entries.light)
    for (const SpareCapacity& r : records)
      if (r.node == serverless) at.push_back(leaf);
  EXPECT_EQ(at, std::vector<ktree::KtIndex>{lbi_leaf});
}

// --- VST -------------------------------------------------------------------------------

TEST(Vst, AppliesAndSkipsStaleAssignments) {
  VsaFixture fx(3, 140);
  const chord::Key vs = fx.ring.node(fx.nodes[0]).servers[0];
  std::vector<Assignment> assignments{
      {vs, fx.nodes[0], fx.nodes[1], 1.0, 0}};
  EXPECT_EQ(apply_assignments(fx.ring, assignments), 1u);
  EXPECT_EQ(fx.ring.server(vs).owner, fx.nodes[1]);
  // Re-applying is a no-op: the VS no longer belongs to `from`.
  EXPECT_EQ(apply_assignments(fx.ring, assignments), 0u);
  // Dead destination is skipped.
  const chord::Key vs2 = fx.ring.node(fx.nodes[0]).servers[0];
  std::vector<Assignment> to_dead{{vs2, fx.nodes[0], fx.nodes[2], 1.0, 0}};
  fx.ring.remove_node(fx.nodes[2]);
  EXPECT_EQ(apply_assignments(fx.ring, to_dead), 0u);
}

// --- End-to-end balancer -----------------------------------------------------------------

class BalancerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BalancerSweep, EliminatesHeavyNodesAndConservesLoad) {
  auto ring = random_loaded_ring(512, 5, GetParam());
  const double load_before = ring.total_load();
  const std::size_t servers_before = ring.virtual_server_count();
  Rng rng(GetParam() + 7);
  BalancerConfig config;  // ignorant mode, K = 2, default eps = 0.05
  const BalanceReport report = run_balance_round(ring, config, rng);

  // The paper's headline: a large fraction of nodes start heavy...
  EXPECT_GT(report.before.heavy_fraction(), 0.5);
  // ...and one round eliminates all of them (default epsilon slack).
  EXPECT_EQ(report.after.heavy_count, 0u);
  EXPECT_TRUE(report.vsa.unassigned_heavy.empty());

  // Load and membership are conserved by transfers.
  EXPECT_NEAR(ring.total_load(), load_before, 1e-6 * load_before);
  EXPECT_EQ(ring.virtual_server_count(), servers_before);

  // Lights that received servers never became heavy.
  std::set<chord::NodeIndex> was_heavy;
  for (const auto& a : report.before.nodes)
    if (a.cls == NodeClass::kHeavy) was_heavy.insert(a.node);
  for (const auto& a : report.after.nodes) {
    if (a.cls == NodeClass::kHeavy) {
      EXPECT_TRUE(was_heavy.contains(a.node))
          << "node " << a.node << " became heavy by receiving load";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BalancerSweep,
                         ::testing::Values(201, 202, 203, 204));

TEST(Balancer, AlignsLoadWithCapacity) {
  auto ring = random_loaded_ring(512, 5, 210);
  Rng rng(211);
  BalancerConfig config;
  (void)run_balance_round(ring, config, rng);
  // Mean load per capacity class must be increasing in capacity.
  std::map<double, RunningStats> by_capacity;
  for (const chord::NodeIndex i : ring.live_nodes())
    by_capacity[ring.node(i).capacity].add(ring.node_load(i));
  double prev_mean = -1.0;
  for (const auto& [capacity, stats] : by_capacity) {
    if (stats.count() < 3) continue;  // skip sparse classes
    EXPECT_GT(stats.mean(), prev_mean)
        << "capacity class " << capacity << " carries less than a lower one";
    prev_mean = stats.mean();
  }
}

TEST(Balancer, EpsilonTradesMovedLoadForBalanceQuality) {
  // Among epsilons that fully place the shed load, a larger epsilon
  // moves less of it (the paper's stated trade-off).
  double moved_small = 0.0, moved_large = 0.0;
  for (const double eps : {0.05, 0.4}) {
    auto ring = random_loaded_ring(512, 5, 212);
    Rng rng(213);
    BalancerConfig config;
    config.epsilon = eps;
    const auto report = run_balance_round(ring, config, rng);
    (eps == 0.05 ? moved_small : moved_large) = report.vsa.assigned_load();
  }
  EXPECT_LT(moved_large, moved_small);
}

TEST(Balancer, ZeroEpsilonCannotPlaceEverything) {
  // With eps exactly 0, aggregate light spare is below the offered shed
  // load by construction (neutral hold-back + subset overshoot), so some
  // candidates stay unassigned no matter how many rounds run.
  auto ring = random_loaded_ring(512, 5, 220);
  Rng rng(221);
  BalancerConfig config;
  config.epsilon = 0.0;
  const auto report = run_balance_round(ring, config, rng);
  EXPECT_GT(report.vsa.unassigned_heavy.size(), 0u);
  // But the bulk of the heavy population is still resolved.
  EXPECT_LT(report.after.heavy_count, report.before.heavy_count / 3);
}

TEST(Balancer, DryRunLeavesRingUntouched) {
  auto ring = random_loaded_ring(128, 5, 214);
  std::vector<chord::NodeIndex> owners_before;
  ring.for_each_server([&](const chord::VirtualServer& vs) {
    owners_before.push_back(vs.owner);
  });
  Rng rng(215);
  BalancerConfig config;
  config.apply_transfers = false;
  const auto report = run_balance_round(ring, config, rng);
  EXPECT_GT(report.vsa.assignments.size(), 0u);
  EXPECT_EQ(report.transfers_applied, 0u);
  std::vector<chord::NodeIndex> owners_after;
  ring.for_each_server([&](const chord::VirtualServer& vs) {
    owners_after.push_back(vs.owner);
  });
  EXPECT_EQ(owners_before, owners_after);
}

TEST(Balancer, DegreeEightBehavesLikeDegreeTwo) {
  // The paper observed "similar results" for K = 8.
  for (const std::uint32_t k : {2u, 8u}) {
    auto ring = random_loaded_ring(256, 5, 216);
    Rng rng(217);
    BalancerConfig config;
    config.tree_degree = k;
    const auto report = run_balance_round(ring, config, rng);
    EXPECT_EQ(report.after.heavy_count, 0u) << "K = " << k;
  }
}

TEST(Balancer, ProximityModeRequiresKeys) {
  auto ring = random_loaded_ring(32, 3, 218);
  Rng rng(219);
  BalancerConfig config;
  config.mode = BalanceMode::kProximityAware;
  EXPECT_THROW((void)run_balance_round(ring, config, rng),
               PreconditionError);
}

}  // namespace
}  // namespace p2plb::lb
