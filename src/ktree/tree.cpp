#include "ktree/tree.h"

#include <algorithm>
#include <limits>
#include <numeric>

namespace p2plb::ktree {

KTree::KTree(const chord::Ring& ring, std::uint32_t degree)
    : ring_(ring), degree_(degree) {
  P2PLB_REQUIRE_MSG(degree_ >= 2, "K-nary tree degree must be >= 2");
  P2PLB_REQUIRE_MSG(degree_ <= 256, "unreasonable K-nary tree degree");
  rebuild();
}

void KTree::rebuild() {
  P2PLB_REQUIRE_MSG(ring_.virtual_server_count() > 0,
                    "cannot build a K-nary tree over an empty ring");
  nodes_.clear();
  levels_.clear();
  leaf_count_ = 0;

  // One sorted id snapshot serves every node: a single lower_bound over
  // contiguous keys gives the VS a key is planted in (Ring::successor),
  // and the previous id gives that VS's arc (Ring::arc_size).
  server_ids_ = ring_.server_ids();
  const auto server_count = static_cast<std::uint32_t>(server_ids_.size());
  std::vector<std::uint32_t> host_pos;  // per node: its host's snapshot slot
  // Presized so a build does not reallocate these multi-megabyte arrays
  // through every doubling: converged trees hold about 2.25 KT nodes per
  // server at K = 2 (fewer at larger K), and a larger tree still grows.
  const std::size_t expected_nodes = std::size_t{5} * server_count / 2;
  nodes_.reserve(expected_nodes);
  host_pos.reserve(expected_nodes);
  const auto plant = [&](chord::Key key) {
    const auto it =
        std::lower_bound(server_ids_.begin(), server_ids_.end(), key);
    const auto pos = static_cast<std::uint32_t>(it - server_ids_.begin());
    host_pos.push_back(pos == server_count ? 0 : pos);
    return server_ids_[host_pos.back()];
  };
  const auto host_arc = [&](std::uint32_t pos) -> std::uint64_t {
    if (server_count == 1) return chord::kSpaceSize;
    const chord::Key pred = server_ids_[pos == 0 ? server_count - 1 : pos - 1];
    return chord::distance_cw(pred, server_ids_[pos]);
  };

  // BFS construction: process one level at a time so children of a node
  // are contiguous and levels_ ranges are exact.
  const Region whole = Region::whole();
  nodes_.push_back(
      KtNode{whole, plant(whole.midpoint()), kNoKtNode, kNoKtNode, 0, 0});
  KtIndex level_begin = 0;
  std::uint16_t depth = 0;
  while (level_begin < nodes_.size()) {
    const auto level_end = static_cast<KtIndex>(nodes_.size());
    levels_.push_back({level_begin, level_end});
    height_ = depth;
    for (KtIndex i = level_begin; i < level_end; ++i) {
      // Leaf iff the region is no larger than the hosting VS's arc (the
      // paper's size check; see the class comment).
      const Region region = nodes_[i].region;
      if (region.len <= host_arc(host_pos[i])) {
        continue;  // leaf: no children
      }
      P2PLB_ASSERT_MSG(region.len >= 2,
                       "a length-1 region is always covered by an arc");
      nodes_[i].first_child = static_cast<KtIndex>(nodes_.size());
      std::uint16_t created = 0;
      for (std::uint32_t c = 0; c < degree_; ++c) {
        const Region child = region.child(c, degree_);
        if (child.len == 0) continue;  // region smaller than the degree
        P2PLB_ASSERT(nodes_.size() <
                     std::numeric_limits<KtIndex>::max() - 1);
        nodes_.push_back(KtNode{child, plant(child.midpoint()), i, kNoKtNode,
                                0, static_cast<std::uint16_t>(depth + 1)});
        ++created;
      }
      nodes_[i].child_count = created;
    }
    level_begin = level_end;
    ++depth;
  }

  // Effective (communication) depth: count host changes along each path.
  // Leaves are counted per host slot on the way, for the CSR below.
  std::vector<std::uint16_t> eff(nodes_.size(), 0);
  effective_height_ = 0;
  leaf_offsets_.assign(static_cast<std::size_t>(server_count) + 1, 0);
  for (KtIndex i = 0; i < nodes_.size(); ++i) {
    if (i != root()) {
      const KtNode& parent = nodes_[nodes_[i].parent];
      eff[i] = static_cast<std::uint16_t>(
          eff[nodes_[i].parent] +
          (parent.host_vs == nodes_[i].host_vs ? 0 : 1));
      effective_height_ = std::max(effective_height_, eff[i]);
    }
    if (nodes_[i].is_leaf()) {
      ++leaf_offsets_[host_pos[i] + 1];
      ++leaf_count_;
    }
  }
  // Leaves grouped by host in ring order, ascending KtIndex per host.
  std::partial_sum(leaf_offsets_.begin(), leaf_offsets_.end(),
                   leaf_offsets_.begin());
  std::vector<std::uint32_t> cursor(leaf_offsets_.begin(),
                                    leaf_offsets_.end() - 1);
  leaves_by_vs_.resize(leaf_count_);
  for (KtIndex i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].is_leaf()) leaves_by_vs_[cursor[host_pos[i]]++] = i;
}

std::span<const KtNode> KTree::children(KtIndex i) const {
  const KtNode& n = node(i);
  if (n.is_leaf()) return {};
  return {nodes_.data() + n.first_child, n.child_count};
}

KTree::LevelRange KTree::level(std::uint16_t depth) const {
  P2PLB_REQUIRE(depth < levels_.size());
  return levels_[depth];
}

std::span<const KtIndex> KTree::leaves_of(chord::Key vs) const {
  const auto it = std::lower_bound(server_ids_.begin(), server_ids_.end(), vs);
  if (it == server_ids_.end() || *it != vs) return {};
  const auto pos = static_cast<std::size_t>(it - server_ids_.begin());
  return std::span<const KtIndex>(leaves_by_vs_)
      .subspan(leaf_offsets_[pos], leaf_offsets_[pos + 1] - leaf_offsets_[pos]);
}

KtIndex KTree::primary_leaf_of(chord::Key vs) const {
  const auto leaves = leaves_of(vs);
  P2PLB_REQUIRE_MSG(!leaves.empty(), "virtual server hosts no leaf");
  return leaves.front();
}

KtIndex KTree::entry_leaf_for(chord::Key vs_id) const {
  P2PLB_REQUIRE_MSG(ring_.has_server(vs_id), "unknown virtual server");
  const auto leaves = leaves_of(vs_id);
  if (!leaves.empty()) return leaves.front();
  return leaf_containing(vs_id);
}

KtIndex KTree::leaf_containing(chord::Key key) const {
  KtIndex i = root();
  while (!nodes_[i].is_leaf()) {
    const KtIndex first = nodes_[i].first_child;
    KtIndex next = kNoKtNode;
    for (std::uint16_t c = 0; c < nodes_[i].child_count; ++c) {
      if (nodes_[first + c].region.contains(key)) {
        next = first + c;
        break;
      }
    }
    P2PLB_ASSERT_MSG(next != kNoKtNode,
                     "children must partition the parent region");
    i = next;
  }
  return i;
}

void KTree::check_invariants() const {
  P2PLB_ASSERT(!nodes_.empty());
  P2PLB_ASSERT(nodes_[0].region == Region::whole());
  std::uint64_t leaf_coverage = 0;
  for (KtIndex i = 0; i < nodes_.size(); ++i) {
    const KtNode& n = nodes_[i];
    // Hosting: the VS planted at the region midpoint.
    P2PLB_ASSERT(n.host_vs == ring_.successor(n.region.midpoint()).id);
    if (n.is_leaf()) {
      P2PLB_ASSERT_MSG(n.region.len <= ring_.arc_size(n.host_vs),
                       "leaf region must fit in its hosting VS arc");
      leaf_coverage += n.region.len;
      continue;
    }
    P2PLB_ASSERT_MSG(n.region.len > ring_.arc_size(n.host_vs),
                     "interior node should have been a leaf");
    // Children partition the parent region exactly, in order.
    std::uint64_t covered = 0;
    chord::Key cursor = n.region.lo;
    for (std::uint16_t c = 0; c < n.child_count; ++c) {
      const KtNode& child = nodes_[n.first_child + c];
      P2PLB_ASSERT(child.parent == i);
      P2PLB_ASSERT(child.depth == n.depth + 1);
      P2PLB_ASSERT(child.region.lo == cursor);
      cursor = static_cast<chord::Key>(
          cursor + static_cast<std::uint32_t>(child.region.len));
      covered += child.region.len;
    }
    P2PLB_ASSERT_MSG(covered == n.region.len,
                     "children must cover the parent region exactly");
  }
  P2PLB_ASSERT_MSG(leaf_coverage == chord::kSpaceSize,
                   "leaf regions must tile the identifier space");
  // Every VS has a well-defined entry leaf (its own, or the covering one).
  for (const chord::Key id : ring_.server_ids())
    P2PLB_ASSERT(node(entry_leaf_for(id)).is_leaf());
}

}  // namespace p2plb::ktree
