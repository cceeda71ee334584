// The distributed K-nary tree built on top of the DHT (Section 3.1).
//
// Every KT node is responsible for a region of the identifier space and
// is planted in the virtual server owning the region's center point.  A
// KT node stops growing children -- is a leaf -- when its region is no
// larger than its hosting VS's arc (the paper's periodic check: "its
// responsible region is smaller or equal to that of the hosting virtual
// server").  This size rule is what bounds the height by O(log_K N): the
// strict-containment reading of Section 3.1 degenerates on a discrete
// identifier space, because an arc boundary that is not dyadic-aligned
// forces subdivision all the way to single keys (height 32 regardless of
// N).  See DESIGN.md "Substitutions" for the full discussion.
//
// One consequence: a virtual server with an unusually small arc may host
// no leaf.  The paper's reporting step ("each KT leaf asks its hosting
// virtual server") is therefore generalized by entry_leaf_for(), which
// falls back to the leaf whose region covers the server's own id -- a
// one-hop indirection that keeps every DHT node able to report.
//
// This class materializes the *converged* tree for the current ring
// membership, the state the paper's periodic checking protocol reaches in
// O(log_K N) rounds; ktree/protocol.h simulates the rounds themselves.
// Storage is flat (children of one node are contiguous) and nodes are
// laid out in BFS order, so level-by-level bottom-up sweeps are cheap.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chord/ring.h"
#include "ktree/region.h"

namespace p2plb::ktree {

/// Index of a KT node inside a KTree (BFS order; root is 0).
using KtIndex = std::uint32_t;

/// Sentinel for "no node" (the root's parent).
inline constexpr KtIndex kNoKtNode = 0xFFFFFFFFu;

/// One node of the materialized K-nary tree.
struct KtNode {
  Region region;
  /// Id of the virtual server this KT node is planted in.
  chord::Key host_vs = 0;
  KtIndex parent = kNoKtNode;
  KtIndex first_child = kNoKtNode;
  std::uint16_t child_count = 0;
  std::uint16_t depth = 0;

  [[nodiscard]] bool is_leaf() const noexcept { return child_count == 0; }
};

/// Materialized converged K-nary tree over a ring snapshot.
class KTree {
 public:
  /// Build the converged tree for the ring's current membership.
  /// degree (K) must be >= 2.  The ring must be non-empty and must
  /// outlive the tree; rebuild() refreshes after membership changes.
  KTree(const chord::Ring& ring, std::uint32_t degree);

  /// Re-derive the tree from the ring's current membership.
  void rebuild();

  [[nodiscard]] std::uint32_t degree() const noexcept { return degree_; }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  /// Depth of the deepest node (root = 0).  O(log_K N) in expectation.
  [[nodiscard]] std::uint16_t height() const noexcept { return height_; }
  /// Maximum number of host *changes* along any root-to-leaf path: the
  /// number of remote hops a bottom-up sweep pays on its longest path
  /// (parent-child edges on the same host are free).
  [[nodiscard]] std::uint16_t effective_height() const noexcept {
    return effective_height_;
  }
  [[nodiscard]] std::size_t leaf_count() const noexcept { return leaf_count_; }

  [[nodiscard]] const KtNode& node(KtIndex i) const {
    P2PLB_REQUIRE(i < nodes_.size());
    return nodes_[i];
  }
  [[nodiscard]] KtIndex root() const noexcept { return 0; }

  /// Children of node i, as a contiguous index range.
  [[nodiscard]] std::span<const KtNode> children(KtIndex i) const;

  /// All node indices at the given depth (BFS layout: contiguous).
  struct LevelRange {
    KtIndex begin = 0;
    KtIndex end = 0;
  };
  [[nodiscard]] LevelRange level(std::uint16_t depth) const;

  /// Leaves planted in the given virtual server, ascending by index: a
  /// span into one flat array grouped by host, found by a binary search
  /// of the id snapshot taken at the last rebuild().  May be empty for
  /// servers with unusually small arcs (see the class comment) and for
  /// ids that were not servers then; use entry_leaf_for() when a leaf is
  /// always required.
  [[nodiscard]] std::span<const KtIndex> leaves_of(chord::Key vs) const;

  /// The designated leaf a virtual server reports through (the paper has
  /// the VS report to "only one of its KT leaf nodes"): the first one.
  /// Throws if the server hosts no leaf.
  [[nodiscard]] KtIndex primary_leaf_of(chord::Key vs) const;

  /// The leaf a virtual server's reports enter the tree at: its primary
  /// leaf when it hosts one, otherwise the leaf covering its own id
  /// (one extra overlay hop in the real protocol).  `vs_id` must be a
  /// server of the ring.
  [[nodiscard]] KtIndex entry_leaf_for(chord::Key vs_id) const;

  /// The leaf whose region contains the key.  O(height) descent.
  [[nodiscard]] KtIndex leaf_containing(chord::Key key) const;

  /// Underlying ring (the snapshot authority).
  [[nodiscard]] const chord::Ring& ring() const noexcept { return ring_; }

  /// Verify structural invariants (children partition parents, leaves
  /// tile the space, hosting is correct).  Throws InvariantError on
  /// violation.  O(size).  Used by tests and debug assertions.
  void check_invariants() const;

 private:
  const chord::Ring& ring_;
  std::uint32_t degree_;
  std::vector<KtNode> nodes_;
  std::vector<LevelRange> levels_;
  /// The ring's sorted server ids at the last rebuild().
  std::vector<chord::Key> server_ids_;
  /// CSR over server_ids_: the leaves planted in server_ids_[p] are
  /// leaves_by_vs_[leaf_offsets_[p], leaf_offsets_[p + 1]), ascending.
  std::vector<std::uint32_t> leaf_offsets_;
  std::vector<KtIndex> leaves_by_vs_;
  std::uint16_t height_ = 0;
  std::uint16_t effective_height_ = 0;
  std::size_t leaf_count_ = 0;
};

}  // namespace p2plb::ktree
