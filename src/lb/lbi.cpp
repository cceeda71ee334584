#include "lb/lbi.h"

namespace p2plb::lb {

LbiAggregation aggregate_lbi(const ktree::KTree& tree, Rng& rng) {
  const chord::Ring& ring = tree.ring();
  LbiAggregation result;

  // Phase 1: every node picks one reporting VS and delivers its triple to
  // that VS's designated leaf (one message per reporting node).
  std::vector<Lbi> scratch(tree.size());
  result.reporter_vs.resize(ring.node_count());
  for (const chord::NodeIndex i : ring.live_nodes()) {
    const chord::Node& n = ring.node(i);
    Lbi lbi;
    lbi.load = ring.node_load(i);
    lbi.capacity = n.capacity;
    Reporter& r = result.reporter_vs[i];
    if (n.servers.empty()) {
      // No identity of its own: publish at a hash of the node index.
      r.key = fallback_report_key(i);
      r.leaf = tree.leaf_containing(r.key);
      // min_load stays +inf: the node contributes no server to L_min.
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.below(n.servers.size()));
      r.key = n.servers[pick];
      r.leaf = tree.entry_leaf_for(r.key);
      lbi.min_load = *ring.node_min_server_load(i);
    }
    scratch[r.leaf].merge(lbi);
  }

  // Phase 2: bottom-up fold, one round per tree level.
  for (std::uint16_t d = tree.height(); d > 0; --d) {
    const auto range = tree.level(d);
    for (ktree::KtIndex i = range.begin; i < range.end; ++i) {
      const ktree::KtIndex parent = tree.node(i).parent;
      scratch[parent].merge(scratch[i]);
    }
  }
  result.rounds = static_cast<std::uint32_t>(tree.height()) + 1;
  result.system = scratch[tree.root()];
  if (result.system.min_load == std::numeric_limits<double>::infinity())
    result.system.min_load = 0.0;  // no node reported
  return result;
}

LbiDissemination disseminate_lbi(const ktree::KTree& tree) {
  // Top-down, one round per level: each interior node forwards the root
  // triple to its children; each leaf forwards it to its hosting VS's node.
  return {static_cast<std::uint32_t>(tree.height()) + 1};
}

Lbi ground_truth_lbi(const chord::Ring& ring) {
  Lbi lbi;
  lbi.load = ring.total_load();
  lbi.capacity = ring.total_capacity();
  lbi.min_load = ring.virtual_server_count() == 0
                     ? 0.0
                     : ring.min_server_load();
  return lbi;
}

}  // namespace p2plb::lb
