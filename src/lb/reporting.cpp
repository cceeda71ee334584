#include "lb/reporting.h"

#include "common/error.h"

namespace p2plb::lb {

namespace {

/// Shared record construction; `entry_of(assessment)` returns the Reporter
/// that decides where each node's records enter the tree and under which
/// published key (the only difference between the two schemes).
template <typename EntryOf>
VsaEntries build_entries(const ktree::KTree& tree,
                         const Classification& classification,
                         SelectionPolicy policy, EntryOf&& entry_of) {
  const chord::Ring& ring = tree.ring();
  VsaEntries entries;
  for (const NodeAssessment& a : classification.nodes) {
    if (a.cls == NodeClass::kNeutral) continue;
    const Reporter entry = entry_of(a);
    const ktree::KtIndex leaf = entry.leaf;
    P2PLB_ASSERT(tree.node(leaf).is_leaf());
    if (a.cls == NodeClass::kHeavy) {
      const double excess = a.load - a.target;
      for (const chord::Key vs :
           select_servers_to_shed(ring, a.node, excess, policy)) {
        entries.heavy[leaf].push_back(
            {ring.server_load(vs), vs, a.node, entry.key});
      }
    } else {
      entries.light[leaf].push_back({a.delta, a.node, entry.key});
    }
  }
  return entries;
}

}  // namespace

VsaEntries build_entries_ignorant(
    const ktree::KTree& tree, const Classification& classification,
    std::span<const Reporter> reporter_vs, SelectionPolicy policy) {
  return build_entries(
      tree, classification, policy,
      [&](const NodeAssessment& a) {
        P2PLB_REQUIRE_MSG(a.node < reporter_vs.size() &&
                              reporter_vs[a.node].leaf != ktree::kNoKtNode,
                          "node did not report in the LBI sweep");
        return reporter_vs[a.node];  // per-node key: no key-local pairing
      });
}

VsaEntries build_entries_proximity(const ktree::KTree& tree,
                                   const Classification& classification,
                                   std::span<const chord::Key> node_keys,
                                   SelectionPolicy policy) {
  return build_entries(
      tree, classification, policy,
      [&](const NodeAssessment& a) {
        P2PLB_REQUIRE_MSG(a.node < node_keys.size(),
                          "missing Hilbert key for node");
        const chord::Key key = node_keys[a.node];
        return Reporter{key, tree.leaf_containing(key)};
      });
}

}  // namespace p2plb::lb
