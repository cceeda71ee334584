// Property (fuzz) tests for the VSA rendezvous sweep: conservation and
// capacity safety over randomized inputs, plus the timing invariants of
// the pairings a unit-latency lb::ProtocolRound stamps.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "chord/ring.h"
#include "common/rng.h"
#include "ktree/tree.h"
#include "lb/protocol_round.h"
#include "lb/vsa.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace p2plb::lb {
namespace {

struct Fuzzed {
  chord::Ring ring;
  VsaEntries entries;
  std::map<chord::Key, double> offered;          // vs -> load
  std::map<chord::NodeIndex, double> spare;      // light node -> delta
};

/// Build a random ring and random heavy/light records entering at random
/// leaves (optionally clustered under shared origin keys).
Fuzzed make_fuzzed(std::uint64_t seed, const ktree::KTree*& tree_out,
                   std::unique_ptr<ktree::KTree>& tree_holder) {
  Rng rng(seed);
  Fuzzed f;
  const std::size_t nodes = 8 + rng.below(24);
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto n = f.ring.add_node(1.0);
    const std::size_t servers = 1 + rng.below(5);
    for (std::size_t v = 0; v < servers; ++v)
      (void)f.ring.add_random_virtual_server(n, rng);
  }
  tree_holder = std::make_unique<ktree::KTree>(f.ring, 2);
  tree_out = tree_holder.get();
  const auto& tree = *tree_holder;

  // Collect candidate leaves.
  std::vector<ktree::KtIndex> leaves;
  for (ktree::KtIndex i = 0; i < tree.size(); ++i)
    if (tree.node(i).is_leaf()) leaves.push_back(i);

  const std::size_t heavy_records = 5 + rng.below(40);
  const std::size_t light_records = 5 + rng.below(40);
  std::set<chord::Key> used;
  const auto live = f.ring.live_nodes();
  for (std::size_t h = 0; h < heavy_records; ++h) {
    // Pick a VS not yet offered.
    const auto ids = f.ring.server_ids();
    const chord::Key vs = ids[rng.below(ids.size())];
    if (used.contains(vs)) continue;
    used.insert(vs);
    const double load = rng.uniform(0.5, 20.0);
    const auto origin = static_cast<chord::Key>(rng.below(4));  // clusters
    f.entries.heavy[leaves[rng.below(leaves.size())]].push_back(
        {load, vs, f.ring.server(vs).owner, origin});
    f.offered[vs] = load;
  }
  for (std::size_t l = 0; l < light_records; ++l) {
    const chord::NodeIndex node =
        live[rng.below(live.size())];
    if (f.spare.contains(node)) continue;
    const double delta = rng.uniform(0.5, 30.0);
    const auto origin = static_cast<chord::Key>(rng.below(4));
    f.entries.light[leaves[rng.below(leaves.size())]].push_back(
        {delta, node, origin});
    f.spare[node] = delta;
  }
  return f;
}

class VsaFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VsaFuzz, InvariantsHoldUnderRandomInputs) {
  const ktree::KTree* tree = nullptr;
  std::unique_ptr<ktree::KTree> holder;
  Fuzzed f = make_fuzzed(GetParam(), tree, holder);
  for (const std::size_t threshold : {std::size_t{0}, std::size_t{10},
                                      std::size_t{1000000}}) {
    VsaParams params;
    params.rendezvous_threshold = threshold;
    params.min_load = 0.5;
    const VsaResult r = run_vsa(*tree, f.entries, params);

    // (1) Each offered server is assigned at most once, and only offered
    //     servers appear.
    std::set<chord::Key> assigned;
    for (const Assignment& a : r.assignments) {
      EXPECT_TRUE(f.offered.contains(a.vs));
      EXPECT_TRUE(assigned.insert(a.vs).second)
          << "server assigned twice: " << a.vs;
      EXPECT_DOUBLE_EQ(a.load, f.offered.at(a.vs));
      EXPECT_EQ(a.from, f.ring.server(a.vs).owner);
    }
    // (2) assigned + unassigned == offered (nothing lost or invented).
    std::set<chord::Key> unassigned;
    for (const auto& u : r.unassigned_heavy) {
      EXPECT_TRUE(f.offered.contains(u.vs));
      EXPECT_TRUE(unassigned.insert(u.vs).second);
      EXPECT_FALSE(assigned.contains(u.vs));
    }
    EXPECT_EQ(assigned.size() + unassigned.size(), f.offered.size());
    // (3) No light node accepts more than its declared spare.
    std::map<chord::NodeIndex, double> accepted;
    for (const Assignment& a : r.assignments) accepted[a.to] += a.load;
    for (const auto& [node, total] : accepted) {
      ASSERT_TRUE(f.spare.contains(node));
      EXPECT_LE(total, f.spare.at(node) + 1e-9);
    }
    // (4) Depth histogram is consistent with the assignment list.
    std::size_t histogram_total = 0;
    for (const auto c : r.pairs_per_depth) histogram_total += c;
    EXPECT_EQ(histogram_total, r.assignments.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VsaFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15, 16));

/// One balancing round drained on a unit-latency network (one unit per
/// remote hop), with transfers off: only the pairing times matter.
BalanceReport timed_round(std::uint64_t seed, std::size_t threshold,
                          std::uint16_t& effective_height) {
  Rng rng(seed);
  chord::Ring ring = workload::build_ring(
      256, 5, workload::CapacityProfile::gnutella_like(), rng);
  workload::assign_loads(
      ring,
      workload::scaled_load_model(ring, workload::LoadDistribution::kGaussian,
                                  0.25, 1.0),
      rng);
  ProtocolRoundConfig config;
  config.balancer.rendezvous_threshold = threshold;
  config.balancer.apply_transfers = false;
  sim::Engine engine;
  sim::Network net(engine, sim::LatencyFn([](sim::Endpoint a,
                                             sim::Endpoint b) {
                     return a == b ? 0.0 : 1.0;
                   }));
  ProtocolRound round(net, ring, config, rng);
  round.start();
  engine.run();
  effective_height = round.tree().effective_height();
  return round.report();
}

TEST(VsaTiming, AssignmentsAvailableBeforeSweepCompletes) {
  std::uint16_t effective_height = 0;
  const BalanceReport r =
      timed_round(99, /*threshold=*/0, effective_height);  // pair deep
  ASSERT_FALSE(r.vsa.assignments.empty());
  for (const Assignment& a : r.vsa.assignments) {
    // A pair joins two nodes' records, so one of them crossed a remote hop.
    EXPECT_GE(a.available_at, 1.0);
    EXPECT_LE(a.available_at, r.vsa.sweep_completion_time);
  }
  // One unit for a record to reach its entry leaf, then one per host
  // change on the way up.
  EXPECT_LE(r.vsa.sweep_completion_time,
            static_cast<double>(effective_height) + 1.0);
}

TEST(VsaTiming, RootPairingsAreLatest) {
  std::uint16_t effective_height = 0;
  const BalanceReport r = timed_round(
      123, /*threshold=*/1000000, effective_height);  // all at the root
  ASSERT_FALSE(r.vsa.assignments.empty());
  for (const Assignment& a : r.vsa.assignments) {
    EXPECT_EQ(a.rendezvous_depth, 0u);
    EXPECT_DOUBLE_EQ(a.available_at, r.vsa.sweep_completion_time);
  }
}

TEST(VsaTiming, RunVsaLeavesTimesZero) {
  const ktree::KTree* tree = nullptr;
  std::unique_ptr<ktree::KTree> holder;
  Fuzzed f = make_fuzzed(321, tree, holder);
  VsaParams params;
  params.min_load = 0.5;
  const VsaResult r = run_vsa(*tree, f.entries, params);
  ASSERT_FALSE(r.assignments.empty());
  for (const Assignment& a : r.assignments)
    EXPECT_DOUBLE_EQ(a.available_at, 0.0);
  EXPECT_DOUBLE_EQ(r.sweep_completion_time, 0.0);
}

}  // namespace
}  // namespace p2plb::lb
