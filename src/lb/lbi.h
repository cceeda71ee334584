// Load Balancing Information (LBI) aggregation and dissemination
// (Section 3.2).
//
// Each DHT node i reports <L_i, C_i, L_i,min> (total load, capacity,
// minimum virtual-server load) through exactly one of its virtual servers
// to exactly one KT leaf; interior KT nodes fold the triples of their K
// children (summing L and C, taking the min of L_min) until the root
// holds the system-wide <L, C, L_min>, which is then disseminated back
// down to every node.  Both sweeps take O(log_K N) rounds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "chord/ring.h"
#include "common/rng.h"
#include "ktree/tree.h"

namespace p2plb::lb {

/// One node's (or one subtree's) load-balancing information triple.
struct Lbi {
  double load = 0.0;       ///< L: total load of all virtual servers
  double capacity = 0.0;   ///< C: total capacity
  double min_load = std::numeric_limits<double>::infinity();  ///< L_min

  /// Fold another triple into this one (the KT-node aggregation step).
  void merge(const Lbi& other) noexcept {
    load += other.load;
    capacity += other.capacity;
    min_load = std::min(min_load, other.min_load);
  }
};

/// Where one node reports, decided once by aggregate_lbi and reused by
/// the VSA phase, so a node reports both phases through the same channel.
struct Reporter {
  /// The id of the node's randomly chosen reporting VS.  A node that hosts
  /// none (it shed everything) still participates by publishing at a
  /// hashed key -- any DHT node can route a message to a key owner, it
  /// does not need an identity of its own.
  chord::Key key = 0;
  /// The leaf its LBI triple and VSA records enter at; kNoKtNode for a
  /// node that did not report (a dead one).
  ktree::KtIndex leaf = ktree::kNoKtNode;
};

/// Result of one aggregation sweep.
struct LbiAggregation {
  /// The system-wide triple held by the KT root after the sweep.
  Lbi system;
  /// Number of bottom-up rounds (== tree height + 1): the O(log_K N)
  /// quantity the paper bounds.
  std::uint32_t rounds = 0;
  /// Each node's Reporter, indexed by NodeIndex.
  std::vector<Reporter> reporter_vs;
};

/// The key a node hosting no virtual server reports under: a hash of its
/// index.  aggregate_lbi routes such a node's triple to the owner of this
/// key.
[[nodiscard]] inline chord::Key fallback_report_key(
    chord::NodeIndex i) noexcept {
  std::uint64_t h = 0xB10C0DE5ULL + i;
  return static_cast<chord::Key>(splitmix64(h) >> 32);
}

/// Run one LBI aggregation sweep over the converged tree.
///
/// `rng` picks each node's reporting virtual server (the paper's "randomly
/// chooses one of its virtual servers") and the node enters at its entry
/// leaf.  A node hosting no servers (it shed them all in earlier rounds)
/// reports through the leaf covering a hash of its identity instead, so
/// its capacity still counts toward C and it can still volunteer as a
/// transfer destination.
[[nodiscard]] LbiAggregation aggregate_lbi(const ktree::KTree& tree, Rng& rng);

/// Dissemination (Section 3.3): the root triple travels top-down to every
/// leaf and on to every node.  Returns the number of top-down rounds
/// (== tree height + 1).
struct LbiDissemination {
  std::uint32_t rounds = 0;
};
[[nodiscard]] LbiDissemination disseminate_lbi(const ktree::KTree& tree);

/// Ground-truth system triple computed directly from the ring -- the test
/// oracle the tree-based sweep must match exactly.
[[nodiscard]] Lbi ground_truth_lbi(const chord::Ring& ring);

}  // namespace p2plb::lb
