// Unit and property tests for the Chord substrate: identifier arithmetic,
// the ring with virtual servers, and finger-table routing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "chord/id.h"
#include "chord/ring.h"
#include "chord/router.h"
#include "common/error.h"
#include "common/rng.h"

namespace p2plb::chord {
namespace {

// --- id arithmetic -----------------------------------------------------------

TEST(Id, ClockwiseDistance) {
  EXPECT_EQ(distance_cw(0, 0), 0u);
  EXPECT_EQ(distance_cw(0, 1), 1u);
  EXPECT_EQ(distance_cw(1, 0), 0xFFFFFFFFull);
  EXPECT_EQ(distance_cw(0xFFFFFFFFu, 0), 1u);
}

TEST(Id, OpenClosedInterval) {
  EXPECT_TRUE(in_oc(10, 20, 15));
  EXPECT_TRUE(in_oc(10, 20, 20));
  EXPECT_FALSE(in_oc(10, 20, 10));
  EXPECT_FALSE(in_oc(10, 20, 25));
  // Wraparound.
  EXPECT_TRUE(in_oc(0xFFFFFF00u, 0x100u, 0u));
  EXPECT_TRUE(in_oc(0xFFFFFF00u, 0x100u, 0xFFFFFFFFu));
  EXPECT_FALSE(in_oc(0xFFFFFF00u, 0x100u, 0x200u));
  // Degenerate: whole ring.
  EXPECT_TRUE(in_oc(5, 5, 123));
  EXPECT_TRUE(in_oc(5, 5, 5));
}

TEST(Id, ClosedOpenAndOpenOpen) {
  EXPECT_FALSE(in_oo(10, 20, 10));
  EXPECT_FALSE(in_oo(10, 20, 20));
  EXPECT_TRUE(in_oo(10, 20, 11));
  EXPECT_TRUE(in_oo(5, 5, 6));    // whole ring minus the point
  EXPECT_FALSE(in_oo(5, 5, 5));
}

TEST(Id, ArcMidpoint) {
  EXPECT_EQ(arc_midpoint(0, kSpaceSize), 0x80000000u);
  EXPECT_EQ(arc_midpoint(10, 4), 12u);
  EXPECT_EQ(arc_midpoint(0xFFFFFFFEu, 4), 0u);  // wraps
}

// --- Ring ---------------------------------------------------------------------

TEST(Ring, AddAndQueryServers) {
  Ring ring;
  const NodeIndex a = ring.add_node(10.0);
  const NodeIndex b = ring.add_node(20.0);
  ring.add_virtual_server(a, 100);
  ring.add_virtual_server(a, 200);
  ring.add_virtual_server(b, 300);
  EXPECT_EQ(ring.virtual_server_count(), 3u);
  EXPECT_EQ(ring.server(100).owner, a);
  EXPECT_EQ(ring.successor(150).id, 200u);
  EXPECT_EQ(ring.successor(250).id, 300u);
  EXPECT_EQ(ring.successor(301).id, 100u);  // wraps
  EXPECT_EQ(ring.successor(100).id, 100u);  // inclusive
  EXPECT_EQ(ring.predecessor_key(100), 300u);
  EXPECT_EQ(ring.predecessor_key(200), 100u);
}

TEST(Ring, ArcSizesTileTheSpace) {
  Rng rng(21);
  Ring ring;
  const NodeIndex n = ring.add_node(1.0);
  for (int i = 0; i < 257; ++i) (void)ring.add_random_virtual_server(n, rng);
  std::uint64_t total = 0;
  for (const Key id : ring.server_ids()) total += ring.arc_size(id);
  EXPECT_EQ(total, kSpaceSize);
}

TEST(Ring, SingletonOwnsEverything) {
  Ring ring;
  const NodeIndex n = ring.add_node(1.0);
  ring.add_virtual_server(n, 42);
  EXPECT_EQ(ring.arc_size(42), kSpaceSize);
  EXPECT_DOUBLE_EQ(ring.arc_fraction(42), 1.0);
  EXPECT_EQ(ring.successor(7).id, 42u);
  EXPECT_EQ(ring.predecessor_key(42), 42u);
  EXPECT_TRUE(ring.arc_contains_region(42, 1234, 5678));
  EXPECT_TRUE(ring.arc_contains_region(42, 0, kSpaceSize));
}

TEST(Ring, ArcContainsRegion) {
  Ring ring;
  const NodeIndex n = ring.add_node(1.0);
  ring.add_virtual_server(n, 100);
  ring.add_virtual_server(n, 200);
  // Arc of 200 is (100, 200].
  EXPECT_TRUE(ring.arc_contains_region(200, 101, 100));   // [101,201) on ring? no: len 100 -> [101..200]
  EXPECT_TRUE(ring.arc_contains_region(200, 150, 10));
  EXPECT_FALSE(ring.arc_contains_region(200, 100, 10));   // 100 not in (100,200]
  EXPECT_FALSE(ring.arc_contains_region(200, 195, 10));   // spills past 200
  // Arc of 100 wraps: (200, 100].
  EXPECT_TRUE(ring.arc_contains_region(100, 0xFFFFFFF0u, 0x20));
  EXPECT_TRUE(ring.arc_contains_region(100, 201, 100));
  EXPECT_FALSE(ring.arc_contains_region(100, 150, 10));
}

TEST(Ring, TransferKeepsArcs) {
  Rng rng(22);
  Ring ring;
  const NodeIndex a = ring.add_node(1.0);
  const NodeIndex b = ring.add_node(1.0);
  ring.add_virtual_server(a, 100);
  ring.add_virtual_server(a, 5000);
  ring.add_virtual_server(b, 90000);
  const auto arc_before = ring.arc_size(5000);
  ring.set_load(5000, 7.5);
  ring.transfer_virtual_server(5000, b);
  EXPECT_EQ(ring.server(5000).owner, b);
  EXPECT_EQ(ring.arc_size(5000), arc_before);
  EXPECT_DOUBLE_EQ(ring.server(5000).load, 7.5);
  EXPECT_EQ(ring.node(a).servers.size(), 1u);
  EXPECT_EQ(ring.node(b).servers.size(), 2u);
  // Self-transfer is a no-op.
  ring.transfer_virtual_server(5000, b);
  EXPECT_EQ(ring.node(b).servers.size(), 2u);
}

TEST(Ring, LoadAccounting) {
  Ring ring;
  const NodeIndex a = ring.add_node(4.0);
  const NodeIndex b = ring.add_node(6.0);
  ring.add_virtual_server(a, 10);
  ring.add_virtual_server(a, 20);
  ring.add_virtual_server(b, 30);
  ring.set_load(10, 1.0);
  ring.set_load(20, 2.0);
  ring.set_load(30, 4.0);
  EXPECT_DOUBLE_EQ(ring.node_load(a), 3.0);
  EXPECT_DOUBLE_EQ(ring.node_load(b), 4.0);
  EXPECT_DOUBLE_EQ(ring.total_load(), 7.0);
  EXPECT_DOUBLE_EQ(ring.total_capacity(), 10.0);
  EXPECT_DOUBLE_EQ(ring.min_server_load(), 1.0);
  EXPECT_DOUBLE_EQ(*ring.node_min_server_load(a), 1.0);
}

TEST(Ring, RemoveNodeDropsServers) {
  Ring ring;
  const NodeIndex a = ring.add_node(1.0);
  const NodeIndex b = ring.add_node(1.0);
  ring.add_virtual_server(a, 100);
  ring.add_virtual_server(b, 200);
  ring.add_virtual_server(b, 300);
  ring.remove_node(b);
  EXPECT_EQ(ring.virtual_server_count(), 1u);
  EXPECT_EQ(ring.live_node_count(), 1u);
  EXPECT_FALSE(ring.node(b).alive);
  // The survivor's arc absorbed everything.
  EXPECT_EQ(ring.arc_size(100), kSpaceSize);
  EXPECT_THROW(ring.remove_node(b), PreconditionError);
  EXPECT_THROW(ring.add_virtual_server(b, 400), PreconditionError);
  EXPECT_FALSE(ring.node_min_server_load(b).has_value());
}

TEST(Ring, Preconditions) {
  Ring ring;
  EXPECT_THROW((void)ring.add_node(0.0), PreconditionError);
  const NodeIndex a = ring.add_node(1.0);
  ring.add_virtual_server(a, 7);
  EXPECT_THROW(ring.add_virtual_server(a, 7), PreconditionError);
  EXPECT_THROW(ring.set_load(8, 1.0), PreconditionError);
  EXPECT_THROW(ring.set_load(7, -1.0), PreconditionError);
  EXPECT_THROW((void)ring.server(8), PreconditionError);
  Ring empty;
  EXPECT_THROW((void)empty.successor(0), PreconditionError);
}

// Property: with random ids, arc fractions are approximately exponential
// with mean 1/V -- the distribution the paper's load models assume.
TEST(Ring, ArcFractionsLookExponential) {
  Rng rng(23);
  Ring ring;
  const NodeIndex n = ring.add_node(1.0);
  constexpr int kServers = 4096;
  for (int i = 0; i < kServers; ++i)
    (void)ring.add_random_virtual_server(n, rng);
  std::vector<double> fractions;
  for (const Key id : ring.server_ids())
    fractions.push_back(ring.arc_fraction(id));
  double mean = 0.0;
  for (const double f : fractions) mean += f;
  mean /= kServers;
  EXPECT_NEAR(mean, 1.0 / kServers, 1e-9);  // exact: they tile the ring
  // For Exp(mean): P(X > mean) = e^-1 ~ 0.368.
  int above = 0;
  for (const double f : fractions)
    if (f > mean) ++above;
  EXPECT_NEAR(static_cast<double>(above) / kServers, std::exp(-1.0), 0.03);
}

// --- Router ---------------------------------------------------------------------

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(24);
    for (int n = 0; n < 64; ++n) {
      const NodeIndex node = ring_.add_node(1.0);
      for (int v = 0; v < 4; ++v)
        (void)ring_.add_random_virtual_server(node, rng);
    }
  }
  Ring ring_;
};

TEST_F(RouterTest, LookupFindsResponsibleServer) {
  const Router router(ring_);
  Rng rng(25);
  const auto ids = ring_.server_ids();
  for (int trial = 0; trial < 500; ++trial) {
    const Key key = static_cast<Key>(rng() >> 32);
    const Key start = ids[rng.below(ids.size())];
    const LookupResult r = router.lookup(start, key);
    EXPECT_EQ(r.responsible, ring_.successor(key).id);
  }
}

TEST_F(RouterTest, HopsAreLogarithmic) {
  const Router router(ring_);
  Rng rng(26);
  const auto ids = ring_.server_ids();
  double total_hops = 0.0;
  constexpr int kTrials = 1000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const Key key = static_cast<Key>(rng() >> 32);
    const Key start = ids[rng.below(ids.size())];
    total_hops += router.lookup(start, key).hops;
  }
  // 256 virtual servers: expected ~0.5*log2(256) = 4 hops; allow slack.
  EXPECT_LT(total_hops / kTrials, 8.0);
  EXPECT_GT(total_hops / kTrials, 2.0);
}

TEST_F(RouterTest, LocalKeyIsZeroHops) {
  const Router router(ring_);
  const auto ids = ring_.server_ids();
  const Key vs = ids.front();
  const LookupResult r = router.lookup(vs, vs);  // own id -> owned locally
  EXPECT_EQ(r.responsible, vs);
  EXPECT_EQ(r.hops, 0u);
}

TEST_F(RouterTest, PathIsConsistent) {
  const Router router(ring_);
  Rng rng(27);
  const auto ids = ring_.server_ids();
  for (int trial = 0; trial < 100; ++trial) {
    const Key key = static_cast<Key>(rng() >> 32);
    const Key start = ids[rng.below(ids.size())];
    const LookupResult r = router.lookup(start, key);
    ASSERT_FALSE(r.path.empty());
    EXPECT_EQ(r.path.front(), start);
    EXPECT_EQ(r.path.back(), r.responsible);
    EXPECT_EQ(r.path.size(), static_cast<std::size_t>(r.hops) + 1);
  }
}

TEST(Router, SingletonRing) {
  Ring ring;
  const NodeIndex n = ring.add_node(1.0);
  ring.add_virtual_server(n, 1000);
  const Router router(ring);
  const LookupResult r = router.lookup(1000, 55);
  EXPECT_EQ(r.responsible, 1000u);
  EXPECT_EQ(r.hops, 0u);
}

TEST(Router, EmptyRingRejected) {
  Ring ring;
  EXPECT_THROW(Router router(ring), PreconditionError);
}

}  // namespace
}  // namespace p2plb::chord
