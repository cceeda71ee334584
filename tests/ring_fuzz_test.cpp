// Fuzz tests: random operation sequences against the Ring, checking
// structural invariants after every step, plus histogram/CDF behaviour
// against brute-force recomputation.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "chord/ring.h"
#include "common/histogram.h"
#include "common/rng.h"

namespace p2plb {
namespace {

/// The Ring's global invariants, checked O(V log V).
void check_ring_invariants(const chord::Ring& ring) {
  // Arc sizes tile the identifier space exactly.
  if (ring.virtual_server_count() > 0) {
    std::uint64_t total = 0;
    for (const chord::Key id : ring.server_ids()) {
      total += ring.arc_size(id);
      // Owner cross-consistency: the owner's server list contains it.
      const auto& servers = ring.node(ring.server(id).owner).servers;
      EXPECT_NE(std::find(servers.begin(), servers.end(), id),
                servers.end());
      EXPECT_TRUE(ring.node(ring.server(id).owner).alive);
    }
    EXPECT_EQ(total, chord::kSpaceSize);
  }
  // Node-side consistency: every listed server exists and points back.
  std::size_t listed = 0;
  for (const chord::NodeIndex i : ring.live_nodes()) {
    for (const chord::Key id : ring.node(i).servers) {
      ASSERT_TRUE(ring.has_server(id));
      EXPECT_EQ(ring.server(id).owner, i);
      ++listed;
    }
  }
  EXPECT_EQ(listed, ring.virtual_server_count());
}

class RingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingFuzz, InvariantsSurviveRandomOperations) {
  Rng rng(GetParam());
  chord::Ring ring;
  // Seed membership so operations have something to act on.
  for (int i = 0; i < 4; ++i) {
    const auto n = ring.add_node(rng.uniform(1.0, 100.0));
    for (int v = 0; v < 2; ++v)
      (void)ring.add_random_virtual_server(n, rng);
  }
  for (int step = 0; step < 400; ++step) {
    const auto op = rng.below(100);
    const auto live = ring.live_nodes();
    if (op < 20) {  // add node (+servers)
      const auto n = ring.add_node(rng.uniform(1.0, 100.0));
      const auto servers = 1 + rng.below(4);
      for (std::uint64_t v = 0; v < servers; ++v)
        (void)ring.add_random_virtual_server(n, rng);
    } else if (op < 40 && !live.empty()) {  // add server to existing node
      (void)ring.add_random_virtual_server(
          live[rng.below(live.size())], rng);
    } else if (op < 55 && ring.virtual_server_count() > 1) {  // remove VS
      const auto ids = ring.server_ids();
      ring.remove_virtual_server(ids[rng.below(ids.size())]);
    } else if (op < 70 && live.size() > 1) {  // transfer VS
      const auto ids = ring.server_ids();
      if (!ids.empty())
        ring.transfer_virtual_server(ids[rng.below(ids.size())],
                                     live[rng.below(live.size())]);
    } else if (op < 80 && live.size() > 2) {  // crash node
      ring.remove_node(live[rng.below(live.size())]);
    } else if (ring.virtual_server_count() > 0) {  // set load
      const auto ids = ring.server_ids();
      ring.set_load(ids[rng.below(ids.size())], rng.uniform(0.0, 50.0));
    }
    if (step % 40 == 0) check_ring_invariants(ring);
  }
  check_ring_invariants(ring);
}

/// Successor of `k` in a sorted id set (wrapping), with its arc size.
chord::Ring::SuccessorArc model_successor_arc(const std::set<chord::Key>& ids,
                                              chord::Key k) {
  auto it = ids.lower_bound(k);
  if (it == ids.end()) it = ids.begin();
  const chord::Key pred =
      it == ids.begin() ? *ids.rbegin() : *std::prev(it);
  return {*it, pred == *it ? chord::kSpaceSize : chord::distance_cw(pred, *it)};
}

TEST_P(RingFuzz, OrderedQueriesMatchSortedModelAcrossBatches) {
  // Batches of adds, removes and re-adds land between two ordered
  // queries, so the order index must merge new slots into the survivors
  // while dropping removed ones -- including slots freed and reused, with
  // a new id or the same one, inside one batch.
  Rng rng(GetParam());
  chord::Ring ring;
  std::set<chord::Key> model;
  std::vector<chord::NodeIndex> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back(ring.add_node(1.0));
  const auto add = [&](chord::Key id) {
    ring.add_virtual_server(nodes[rng.below(nodes.size())], id);
    model.insert(id);
  };
  const auto add_random = [&] {
    const chord::NodeIndex owner = nodes[rng.below(nodes.size())];
    model.insert(ring.add_random_virtual_server(owner, rng));
  };
  const auto random_id = [&] {
    return *std::next(model.begin(),
                      static_cast<std::ptrdiff_t>(rng.below(model.size())));
  };
  for (int v = 0; v < 16; ++v) add_random();

  for (int step = 0; step < 150; ++step) {
    const std::uint64_t batch = 1 + rng.below(8);
    for (std::uint64_t b = 0; b < batch; ++b) {
      const auto op = rng.below(100);
      if (op < 35 || model.size() < 3) {
        add_random();
      } else if (op < 65) {  // remove; the next add reuses its slot
        const chord::Key id = random_id();
        ring.remove_virtual_server(id);
        model.erase(id);
      } else if (op < 85) {  // remove and re-add the same id at once
        const chord::Key id = random_id();
        ring.remove_virtual_server(id);
        add(id);
      } else if (op < 92) {  // a node joins with servers
        nodes.push_back(ring.add_node(1.0));
        for (int v = 0; v < 3; ++v) add_random();
      } else if (nodes.size() > 2) {  // a node leaves with its servers
        const std::size_t victim = rng.below(nodes.size());
        for (const chord::Key id : ring.node(nodes[victim]).servers)
          model.erase(id);
        ring.remove_node(nodes[victim]);
        nodes.erase(nodes.begin() + static_cast<std::ptrdiff_t>(victim));
      }
    }
    if (model.empty()) continue;
    // Alternate which ordered query observes the batch first.
    if (step % 2 == 0) {
      ASSERT_EQ(ring.server_ids(),
                std::vector<chord::Key>(model.begin(), model.end()));
    }
    for (int q = 0; q < 8; ++q) {
      const auto k = static_cast<chord::Key>(rng() >> 32);
      const chord::Ring::SuccessorArc want = model_successor_arc(model, k);
      const chord::Ring::SuccessorArc got = ring.successor_arc(k);
      ASSERT_EQ(got.id, want.id) << "step " << step << " key " << k;
      ASSERT_EQ(got.arc, want.arc) << "step " << step << " key " << k;
      ASSERT_EQ(ring.successor(k).id, want.id);
      ASSERT_EQ(ring.arc_size(want.id), want.arc);
      const chord::Key id = random_id();
      ASSERT_EQ(ring.arc_size(id), model_successor_arc(model, id).arc);
    }
    ASSERT_EQ(ring.server_ids(),
              std::vector<chord::Key>(model.begin(), model.end()));
  }
  check_ring_invariants(ring);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --- histogram / CDF vs brute force --------------------------------------------

class HistogramFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramFuzz, MatchesBruteForce) {
  Rng rng(GetParam());
  const std::size_t bins = 1 + rng.below(12);
  const double lo = rng.uniform(-10.0, 0.0);
  const double hi = lo + rng.uniform(1.0, 30.0);
  Histogram h = Histogram::uniform(lo, hi, bins);
  std::vector<double> values, weights;
  const std::size_t n = 50 + rng.below(500);
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(rng.uniform(lo - 5.0, hi + 5.0));
    weights.push_back(rng.uniform(0.0, 3.0));
    h.add(values.back(), weights.back());
  }
  // Brute-force per-bin totals.
  double total = 0.0;
  for (const double w : weights) total += w;
  EXPECT_NEAR(h.total(), total, 1e-9);
  for (std::size_t b = 0; b < h.bin_count(); ++b) {
    double expected = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      if (values[i] >= h.bin_lo(b) && values[i] < h.bin_hi(b))
        expected += weights[i];
    EXPECT_NEAR(h.count(b), expected, 1e-9) << "bin " << b;
  }
  // CDF at each sample point matches weight_fraction_below.
  const auto cdf = weighted_cdf(values, weights);
  for (const auto& point : cdf) {
    EXPECT_NEAR(point.fraction,
                weight_fraction_below(values, weights, point.x), 1e-9);
  }
  // The CDF is non-decreasing and ends at 1.
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LT(cdf[i - 1].x, cdf[i].x);
    EXPECT_LE(cdf[i - 1].fraction, cdf[i].fraction + 1e-12);
  }
  if (!cdf.empty()) {
    EXPECT_NEAR(cdf.back().fraction, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramFuzz,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace p2plb
