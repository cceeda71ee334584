#include "lb/vst.h"

#include "common/error.h"

namespace p2plb::lb {

std::size_t apply_assignments(chord::Ring& ring,
                              std::span<const Assignment> assignments) {
  std::size_t applied = 0;
  for (const Assignment& a : assignments) {
    if (ring.find_owner(a.vs) != a.from) continue;  // gone or already moved
    if (!ring.node(a.to).alive) continue;
    ring.transfer_virtual_server(a.vs, a.to);
    ++applied;
  }
  return applied;
}

std::vector<Transfer> transfer_costs(const chord::Ring& ring,
                                     std::span<const Assignment> assignments,
                                     topo::DistanceOracle& oracle) {
  // Batch by source: one Dijkstra per distinct source attachment.
  std::vector<std::pair<topo::Vertex, topo::Vertex>> pairs;
  pairs.reserve(assignments.size());
  for (const Assignment& a : assignments) {
    const std::uint32_t from_at = ring.node(a.from).attachment;
    const std::uint32_t to_at = ring.node(a.to).attachment;
    P2PLB_REQUIRE_MSG(from_at != chord::Node::kNoAttachment &&
                          to_at != chord::Node::kNoAttachment,
                      "transfer cost needs topology attachments");
    pairs.emplace_back(from_at, to_at);
  }
  const std::vector<double> distances = oracle.distances(pairs);
  std::vector<Transfer> out;
  out.reserve(assignments.size());
  for (std::size_t i = 0; i < assignments.size(); ++i)
    out.push_back({assignments[i], distances[i]});
  return out;
}

}  // namespace p2plb::lb
