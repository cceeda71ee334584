// Unit and property tests for the distributed K-nary tree.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <tuple>

#include "chord/ring.h"
#include "common/error.h"
#include "common/rng.h"
#include "ktree/region.h"
#include "ktree/tree.h"

namespace p2plb::ktree {
namespace {

// --- Region ---------------------------------------------------------------------

TEST(Region, WholeSpace) {
  const Region whole = Region::whole();
  EXPECT_EQ(whole.lo, 0u);
  EXPECT_EQ(whole.len, chord::kSpaceSize);
  EXPECT_EQ(whole.midpoint(), 0x80000000u);
  EXPECT_TRUE(whole.contains(0));
  EXPECT_TRUE(whole.contains(0xFFFFFFFFu));
}

TEST(Region, ChildrenPartitionExactly) {
  for (const std::uint32_t k : {2u, 3u, 5u, 8u}) {
    const Region parent{100, 1000};
    std::uint64_t total = 0;
    chord::Key cursor = parent.lo;
    for (std::uint32_t i = 0; i < k; ++i) {
      const Region c = parent.child(i, k);
      EXPECT_EQ(c.lo, cursor);
      cursor = static_cast<chord::Key>(
          cursor + static_cast<std::uint32_t>(c.len));
      total += c.len;
    }
    EXPECT_EQ(total, parent.len);
  }
}

TEST(Region, ChildrenOfWholeSpace) {
  const Region whole = Region::whole();
  const Region left = whole.child(0, 2);
  const Region right = whole.child(1, 2);
  EXPECT_EQ(left.lo, 0u);
  EXPECT_EQ(left.len, chord::kSpaceSize / 2);
  EXPECT_EQ(right.lo, 0x80000000u);
  EXPECT_EQ(right.len, chord::kSpaceSize / 2);
}

TEST(Region, WrapAroundContains) {
  const Region r{0xFFFFFF00u, 0x200};
  EXPECT_TRUE(r.contains(0xFFFFFF00u));
  EXPECT_TRUE(r.contains(0));
  EXPECT_TRUE(r.contains(0xFFu));
  EXPECT_FALSE(r.contains(0x100u));
  EXPECT_EQ(r.midpoint(), 0u);
}

TEST(Region, TinyRegionsYieldEmptyChildren) {
  const Region r{10, 3};
  int nonzero = 0;
  for (std::uint32_t i = 0; i < 8; ++i)
    if (r.child(i, 8).len > 0) ++nonzero;
  EXPECT_EQ(nonzero, 3);
}

// --- KTree ------------------------------------------------------------------------

chord::Ring make_ring(std::size_t nodes, std::size_t vs_per_node,
                      std::uint64_t seed) {
  Rng rng(seed);
  chord::Ring ring;
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto n = ring.add_node(1.0);
    for (std::size_t v = 0; v < vs_per_node; ++v)
      (void)ring.add_random_virtual_server(n, rng);
  }
  return ring;
}

TEST(KTree, SingletonRingIsJustTheRoot) {
  chord::Ring ring;
  const auto n = ring.add_node(1.0);
  ring.add_virtual_server(n, 12345);
  const KTree tree(ring, 2);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 0u);
  EXPECT_EQ(tree.leaf_count(), 1u);
  EXPECT_TRUE(tree.node(tree.root()).is_leaf());
  EXPECT_EQ(tree.node(tree.root()).host_vs, 12345u);
  tree.check_invariants();
}

TEST(KTree, RejectsBadDegreeAndEmptyRing) {
  chord::Ring ring;
  const auto n = ring.add_node(1.0);
  ring.add_virtual_server(n, 1);
  EXPECT_THROW(KTree(ring, 1), PreconditionError);
  chord::Ring empty;
  (void)empty.add_node(1.0);
  EXPECT_THROW(KTree(empty, 2), PreconditionError);
  (void)n;
}

class KTreeSweep : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t, std::uint32_t>> {};

TEST_P(KTreeSweep, InvariantsHold) {
  const auto [nodes, vs_per_node, degree] = GetParam();
  const auto ring = make_ring(nodes, vs_per_node, 61);
  const KTree tree(ring, degree);
  tree.check_invariants();
  // An interior node at depth d has a region of ~2^32/K^d keys that is
  // strictly larger than its host's arc (>= the global minimum arc), so
  // the height is bounded by log_K(2^32 / min_arc) + rounding slack.
  std::uint64_t min_arc = chord::kSpaceSize;
  for (const chord::Key id : ring.server_ids())
    min_arc = std::min(min_arc, ring.arc_size(id));
  const double bound = std::log(static_cast<double>(chord::kSpaceSize) /
                                static_cast<double>(min_arc)) /
                       std::log(static_cast<double>(degree));
  EXPECT_LE(tree.height(), static_cast<std::uint16_t>(bound + 2.0));
  EXPECT_LE(tree.effective_height(), tree.height());
}

TEST_P(KTreeSweep, LeavesTileAndEveryServerHasAnEntryLeaf) {
  const auto [nodes, vs_per_node, degree] = GetParam();
  const auto ring = make_ring(nodes, vs_per_node, 62);
  const KTree tree(ring, degree);
  std::uint64_t covered = 0;
  std::size_t leaves_seen = 0;
  for (KtIndex i = 0; i < tree.size(); ++i) {
    if (!tree.node(i).is_leaf()) continue;
    covered += tree.node(i).region.len;
    ++leaves_seen;
  }
  EXPECT_EQ(covered, chord::kSpaceSize);
  EXPECT_EQ(leaves_seen, tree.leaf_count());
  std::size_t hosting = 0;
  for (const chord::Key id : ring.server_ids()) {
    const auto leaves = tree.leaves_of(id);
    if (!leaves.empty()) {
      ++hosting;
      EXPECT_EQ(tree.primary_leaf_of(id), leaves.front());
      for (const KtIndex leaf : leaves)
        EXPECT_EQ(tree.node(leaf).host_vs, id);
    }
    // Every server has an entry leaf even if it hosts none itself.
    const KtIndex entry = tree.entry_leaf_for(id);
    EXPECT_TRUE(tree.node(entry).is_leaf());
  }
  // Most servers host a leaf directly (the fallback is the exception).
  EXPECT_GE(hosting * 2, ring.virtual_server_count());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KTreeSweep,
    ::testing::Values(std::make_tuple(std::size_t{4}, std::size_t{1}, 2u),
                      std::make_tuple(std::size_t{16}, std::size_t{4}, 2u),
                      std::make_tuple(std::size_t{64}, std::size_t{5}, 2u),
                      std::make_tuple(std::size_t{64}, std::size_t{5}, 8u),
                      std::make_tuple(std::size_t{128}, std::size_t{3}, 3u),
                      std::make_tuple(std::size_t{256}, std::size_t{2}, 4u),
                      std::make_tuple(std::size_t{32}, std::size_t{8}, 16u)));

TEST(KTree, LeafContainingAgreesWithRegions) {
  const auto ring = make_ring(64, 4, 63);
  const KTree tree(ring, 2);
  Rng rng(64);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto key = static_cast<chord::Key>(rng() >> 32);
    const KtIndex leaf = tree.leaf_containing(key);
    EXPECT_TRUE(tree.node(leaf).is_leaf());
    EXPECT_TRUE(tree.node(leaf).region.contains(key));
  }
}

TEST(KTree, LevelsAreContiguousAndComplete) {
  const auto ring = make_ring(64, 4, 65);
  const KTree tree(ring, 2);
  std::size_t total = 0;
  for (std::uint16_t d = 0; d <= tree.height(); ++d) {
    const auto range = tree.level(d);
    EXPECT_LE(range.begin, range.end);
    for (KtIndex i = range.begin; i < range.end; ++i)
      EXPECT_EQ(tree.node(i).depth, d);
    total += range.end - range.begin;
  }
  EXPECT_EQ(total, tree.size());
  EXPECT_THROW((void)tree.level(static_cast<std::uint16_t>(tree.height() + 1)),
               PreconditionError);
}

TEST(KTree, RebuildAfterChurnStaysConsistent) {
  Rng rng(66);
  auto ring = make_ring(32, 4, 67);
  KTree tree(ring, 2);
  for (int round = 0; round < 10; ++round) {
    // Churn: remove one node, add one node with fresh servers.
    const auto live = ring.live_nodes();
    ring.remove_node(live[rng.below(live.size())]);
    const auto fresh = ring.add_node(1.0);
    for (int v = 0; v < 4; ++v)
      (void)ring.add_random_virtual_server(fresh, rng);
    tree.rebuild();
    tree.check_invariants();
  }
}

TEST(KTree, TransfersDoNotChangeStructure) {
  // Moving a VS between nodes changes hosting but not arcs, so the
  // converged tree must be identical.
  Rng rng(68);
  auto ring = make_ring(16, 4, 69);
  const KTree before(ring, 2);
  const auto ids = ring.server_ids();
  const auto live = ring.live_nodes();
  for (int i = 0; i < 20; ++i)
    ring.transfer_virtual_server(ids[rng.below(ids.size())],
                                 live[rng.below(live.size())]);
  const KTree after(ring, 2);
  ASSERT_EQ(before.size(), after.size());
  for (KtIndex i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before.node(i).region, after.node(i).region);
    EXPECT_EQ(before.node(i).host_vs, after.node(i).host_vs);
  }
}

TEST(KTree, HigherDegreeIsShallower) {
  const auto ring = make_ring(256, 4, 70);
  const KTree k2(ring, 2);
  const KTree k8(ring, 8);
  EXPECT_LT(k8.height(), k2.height());
  k8.check_invariants();
}

// --- Sorted id snapshot edge cases ------------------------------------------
//
// rebuild() plants nodes and sizes arcs from one sorted snapshot of the
// ring's ids; check_invariants() re-derives both through Ring::successor
// and Ring::arc_size, and leaves_of() is compared with a brute-force scan.

void expect_snapshot_consistent(const chord::Ring& ring, const KTree& tree) {
  tree.check_invariants();
  std::map<chord::Key, std::vector<KtIndex>> scan;
  for (KtIndex i = 0; i < tree.size(); ++i)
    if (tree.node(i).is_leaf()) scan[tree.node(i).host_vs].push_back(i);
  std::size_t listed = 0;
  for (const chord::Key id : ring.server_ids()) {
    const auto leaves = tree.leaves_of(id);
    const auto it = scan.find(id);
    EXPECT_EQ(std::vector<KtIndex>(leaves.begin(), leaves.end()),
              it == scan.end() ? std::vector<KtIndex>{} : it->second)
        << "server " << id;
    listed += leaves.size();
  }
  EXPECT_EQ(listed, tree.leaf_count());
}

class KTreeSnapshot : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KTreeSnapshot, ServersAtBothEndsOfTheIdSpace) {
  chord::Ring ring = make_ring(6, 3, 70);
  const auto n = ring.add_node(1.0);
  ring.add_virtual_server(n, 0);
  ring.add_virtual_server(n, 0xFFFFFFFFu);
  const KTree tree(ring, GetParam());
  expect_snapshot_consistent(ring, tree);
  // The wrap-around arc (0xFFFFFFFF, 0] is a single key.
  EXPECT_EQ(ring.arc_size(0), 1u);
  EXPECT_TRUE(tree.leaves_of(1).empty());  // not a server
}

TEST_P(KTreeSnapshot, TwoServerRing) {
  chord::Ring ring;
  const auto a = ring.add_node(1.0);
  const auto b = ring.add_node(1.0);
  ring.add_virtual_server(a, 0x10000000u);
  ring.add_virtual_server(b, 0x30000000u);
  const KTree tree(ring, GetParam());
  expect_snapshot_consistent(ring, tree);
  EXPECT_FALSE(tree.node(tree.root()).is_leaf());
}

TEST_P(KTreeSnapshot, OneServerRingOwnsTheWholeSpace) {
  chord::Ring ring;
  ring.add_virtual_server(ring.add_node(1.0), 0x12345678u);
  const KTree tree(ring, GetParam());
  expect_snapshot_consistent(ring, tree);
  EXPECT_EQ(tree.size(), 1u);
}

TEST_P(KTreeSnapshot, RebuildAfterRemoveAndAdd) {
  chord::Ring ring = make_ring(16, 4, 71);
  KTree tree(ring, GetParam());
  expect_snapshot_consistent(ring, tree);
  // Both mutations leave the ring's sorted order stale until the next
  // ordered query, which rebuild() is.
  const auto ids = ring.server_ids();
  ring.remove_virtual_server(ids[3]);
  ring.add_virtual_server(ring.server(ids[0]).owner, ids[3] + 1);
  tree.rebuild();
  expect_snapshot_consistent(ring, tree);
  EXPECT_TRUE(tree.leaves_of(ids[3]).empty());
  EXPECT_EQ(tree.size(), KTree(ring, GetParam()).size());
}

INSTANTIATE_TEST_SUITE_P(Degrees, KTreeSnapshot, ::testing::Values(2u, 8u));

}  // namespace
}  // namespace p2plb::ktree
