// Fuzz tests: random operation sequences against the Ring, checking
// structural invariants after every step, its key -> slot index against a
// std::map model on keys chosen to collide and wrap, plus histogram/CDF
// behaviour against brute-force recomputation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "chord/ring.h"
#include "common/error.h"
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

// --- key -> slot index vs a std::map model --------------------------------------

struct ModelServer {
  chord::NodeIndex owner = 0;
  double load = 0.0;
};
using RingModel = std::map<chord::Key, ModelServer>;

/// Home entry of `key` in a table of 2^16 entries or fewer: the top 16
/// bits of the index's Fibonacci hash (ring.h).  Two keys with the same
/// value here share a home entry at every table size the tests reach, and
/// a key whose value is 0xFFFF homes on the table's last entry.
std::uint32_t home16(chord::Key key) {
  return static_cast<std::uint32_t>((std::uint64_t{key} *
                                     0x9E3779B97F4A7C15ull) >> 48);
}

/// Up to `count` keys whose home16 is `home`, from a scan upward of `from`.
std::vector<chord::Key> keys_homed_at(std::uint32_t home, std::size_t count,
                                      chord::Key from = 0) {
  std::vector<chord::Key> out;
  for (chord::Key k = from; out.size() < count; ++k)
    if (home16(k) == home) out.push_back(k);
  return out;
}

/// Keys that stress linear probing: consecutive ids, multiples of 2^16 and
/// 2^24, a cluster sharing one home entry, and runs homed on the table's
/// last and first entries, which wrap past its end into each other.
std::vector<chord::Key> adversarial_keys() {
  std::vector<chord::Key> keys;
  for (chord::Key k = 1000; k < 1064; ++k) keys.push_back(k);
  for (chord::Key i = 1; i <= 48; ++i) keys.push_back(i << 16);
  for (chord::Key i = 1; i <= 48; ++i) keys.push_back(i << 24);
  for (const chord::Key k : keys_homed_at(home16(12345), 24, 12346))
    keys.push_back(k);
  for (const chord::Key k : keys_homed_at(0xFFFF, 24)) keys.push_back(k);
  for (const chord::Key k : keys_homed_at(0, 24, 1)) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// Every point query, the ring order and every arc agree with `model`;
/// `absent` keys are not found (and the first few absent ones are
/// rejected by a checked read).
void expect_matches_model(const chord::Ring& ring, const RingModel& model,
                          std::span<const chord::Key> absent = {}) {
  ASSERT_EQ(ring.virtual_server_count(), model.size());
  std::vector<chord::Key> ids;
  for (const auto& [id, vs] : model) {
    ASSERT_TRUE(ring.has_server(id)) << id;
    ASSERT_EQ(ring.server_owner(id), vs.owner) << id;
    ASSERT_EQ(ring.find_owner(id), vs.owner) << id;
    ASSERT_EQ(ring.server_load(id), vs.load) << id;
    ids.push_back(id);
  }
  ASSERT_EQ(ring.server_ids(), ids);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const chord::Key pred = ids[i == 0 ? ids.size() - 1 : i - 1];
    ASSERT_EQ(ring.arc_size(ids[i]), ids.size() == 1
                                         ? chord::kSpaceSize
                                         : chord::distance_cw(pred, ids[i]));
  }
  int checked_reads = 0;
  for (const chord::Key id : absent) {
    if (model.contains(id)) continue;
    ASSERT_FALSE(ring.has_server(id)) << id;
    ASSERT_EQ(ring.find_owner(id), std::nullopt) << id;
    if (++checked_reads <= 3) {
      ASSERT_THROW((void)ring.server_load(id), PreconditionError) << id;
    }
  }
}

class RingIndex : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RingIndex, MatchesMapModelOnAdversarialKeys) {
  // Seeded add/remove/transfer/set_load/remove_node sequences over keys
  // that collide, cluster and wrap in the index, checked against the
  // model after every step.
  Rng rng(GetParam());
  const std::vector<chord::Key> pool = adversarial_keys();
  chord::Ring ring;
  RingModel model;
  std::vector<chord::NodeIndex> live;
  for (int i = 0; i < 3; ++i) live.push_back(ring.add_node(1.0));
  const auto pick = [&](const auto& v) { return v[rng.below(v.size())]; };
  const auto random_present = [&] {
    return std::next(model.begin(),
                     static_cast<std::ptrdiff_t>(rng.below(model.size())))
        ->first;
  };
  for (int step = 0; step < 1500; ++step) {
    const auto op = rng.below(100);
    if (op < 40 || model.size() < 4) {  // add a pool key
      const chord::Key id = pick(pool);
      if (model.contains(id)) {
        ASSERT_THROW(ring.add_virtual_server(pick(live), id),
                     PreconditionError);
      } else {
        const chord::NodeIndex owner = pick(live);
        ring.add_virtual_server(owner, id);
        model[id] = {owner, 0.0};
      }
    } else if (op < 70) {  // remove; most pool keys sit inside probe runs
      const chord::Key id = random_present();
      ring.remove_virtual_server(id);
      model.erase(id);
    } else if (op < 80) {
      const chord::Key id = random_present();
      const chord::NodeIndex to = pick(live);
      ring.transfer_virtual_server(id, to);
      model[id].owner = to;
    } else if (op < 90) {
      const chord::Key id = random_present();
      const double load = rng.uniform(0.0, 10.0);
      ring.set_load(id, load);
      model[id].load = load;
    } else if (op < 95 || live.size() < 3) {
      live.push_back(ring.add_node(1.0));
    } else {  // a node leaves with all its servers
      const std::size_t victim = rng.below(live.size());
      ring.remove_node(live[victim]);
      std::erase_if(model, [&](const auto& entry) {
        return entry.second.owner == live[victim];
      });
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    expect_matches_model(ring, model, pool);
    if (HasFatalFailure()) FAIL() << "step " << step;
  }
  // Removing an absent key is rejected and changes nothing.
  const auto absent = std::find_if(pool.begin(), pool.end(), [&](auto id) {
    return !model.contains(id);
  });
  ASSERT_NE(absent, pool.end());
  EXPECT_THROW(ring.remove_virtual_server(*absent), PreconditionError);
  expect_matches_model(ring, model, pool);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RingIndex, ::testing::Values(3, 14, 15, 92));

TEST(RingIndexGrowth, KeysSurviveSeveralDoublings) {
  // Consecutive ids and a presized ring both grow past several table
  // doublings; every key stays findable across each one.
  for (const std::size_t reserved : {std::size_t{0}, std::size_t{100}}) {
    chord::Ring ring;
    ring.reserve_servers(reserved);
    const chord::NodeIndex a = ring.add_node(1.0);
    const chord::NodeIndex b = ring.add_node(1.0);
    RingModel model;
    for (chord::Key k = 0; k < 5000; ++k) {
      const chord::Key id = k * 7;  // evenly spaced, like test fixtures
      ring.add_virtual_server(k % 2 == 0 ? a : b, id);
      model[id] = {k % 2 == 0 ? a : b, 0.0};
      if (std::has_single_bit(k + 1) || std::has_single_bit(k)) {
        expect_matches_model(ring, model);
        ASSERT_FALSE(HasFatalFailure()) << "after " << k + 1 << " keys";
      }
    }
    // Empty it from the middle outwards, then refill it.
    for (chord::Key k = 2500; k < 5000; ++k) {
      ring.remove_virtual_server(k * 7);
      model.erase(k * 7);
      ring.remove_virtual_server((4999 - k) * 7);
      model.erase((4999 - k) * 7);
    }
    expect_matches_model(ring, model, std::vector<chord::Key>{0, 7, 17500});
    for (chord::Key k = 0; k < 64; ++k) {
      ring.add_virtual_server(a, k << 24);
      model[k << 24] = {a, 0.0};
    }
    expect_matches_model(ring, model);
  }
}

TEST(RingIndexCopy, MutatingACopyLeavesTheOriginalIntact) {
  // p2plb_bench's traced op balances a copy of the ring it built.
  const std::vector<chord::Key> pool = adversarial_keys();
  chord::Ring original;
  RingModel model;
  const chord::NodeIndex a = original.add_node(1.0);
  const chord::NodeIndex b = original.add_node(2.0);
  for (std::size_t i = 0; i < pool.size(); i += 2) {
    original.add_virtual_server(i % 4 == 0 ? a : b, pool[i]);
    original.set_load(pool[i], static_cast<double>(i));
    model[pool[i]] = {i % 4 == 0 ? a : b, static_cast<double>(i)};
  }
  chord::Ring copy = original;
  RingModel copy_model = model;
  for (std::size_t i = 0; i < pool.size(); i += 2) {
    if (i % 6 == 0) {
      copy.remove_virtual_server(pool[i]);
      copy_model.erase(pool[i]);
    } else {
      copy.transfer_virtual_server(pool[i], a);
      copy_model[pool[i]].owner = a;
    }
  }
  for (std::size_t i = 1; i < pool.size(); i += 2) {
    copy.add_virtual_server(b, pool[i]);
    copy_model[pool[i]] = {b, 0.0};
  }
  copy.remove_node(a);
  std::erase_if(copy_model,
                [&](const auto& entry) { return entry.second.owner == a; });
  expect_matches_model(copy, copy_model, pool);
  expect_matches_model(original, model, pool);
}

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
