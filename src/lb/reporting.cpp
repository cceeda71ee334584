#include "lb/reporting.h"

#include "common/error.h"

namespace p2plb::lb {

namespace {

/// Shared record construction; `entry_of(assessment)` decides where each
/// node's records enter the tree and under which published key (the only
/// difference between the two schemes).
template <typename EntryOf>
VsaEntries build_entries(const ktree::KTree& tree,
                         const Classification& classification,
                         SelectionPolicy policy, EntryOf&& entry_of) {
  const chord::Ring& ring = tree.ring();
  VsaEntries entries;
  for (const NodeAssessment& a : classification.nodes) {
    if (a.cls == NodeClass::kNeutral) continue;
    ktree::KtIndex leaf = ktree::kNoKtNode;
    chord::Key origin_key = 0;
    if (!entry_of(a, leaf, origin_key)) continue;  // node cannot report
    P2PLB_ASSERT(tree.node(leaf).is_leaf());
    if (a.cls == NodeClass::kHeavy) {
      const double excess = a.load - a.target;
      for (const chord::Key vs :
           select_servers_to_shed(ring, a.node, excess, policy)) {
        entries.heavy[leaf].push_back(
            {ring.server_load(vs), vs, a.node, origin_key});
      }
    } else {
      entries.light[leaf].push_back({a.delta, a.node, origin_key});
    }
  }
  return entries;
}

}  // namespace

VsaEntries build_entries_ignorant(
    const ktree::KTree& tree, const Classification& classification,
    const std::unordered_map<chord::NodeIndex, chord::Key>& reporter_vs,
    SelectionPolicy policy) {
  return build_entries(
      tree, classification, policy,
      [&](const NodeAssessment& a, ktree::KtIndex& leaf,
          chord::Key& origin_key) {
        const auto it = reporter_vs.find(a.node);
        if (it == reporter_vs.end()) return false;
        // Server-less nodes report under a hashed key (see aggregate_lbi),
        // which may even collide with some other node's VS id: pick the
        // leaf by the node, exactly as aggregate_lbi does, so a node's
        // LBI triple and its records enter at the same leaf.
        leaf = tree.ring().node(a.node).servers.empty()
                   ? tree.leaf_containing(it->second)
                   : tree.entry_leaf_for(it->second);
        origin_key = it->second;  // per-node unique: no key-local pairing
        return true;
      });
}

VsaEntries build_entries_proximity(const ktree::KTree& tree,
                                   const Classification& classification,
                                   std::span<const chord::Key> node_keys,
                                   SelectionPolicy policy) {
  return build_entries(
      tree, classification, policy,
      [&](const NodeAssessment& a, ktree::KtIndex& leaf,
          chord::Key& origin_key) {
        P2PLB_REQUIRE_MSG(a.node < node_keys.size(),
                          "missing Hilbert key for node");
        leaf = tree.leaf_containing(node_keys[a.node]);
        origin_key = node_keys[a.node];
        return true;
      });
}

}  // namespace p2plb::lb
