#include "lb/proximity.h"

#include <algorithm>
#include <map>
#include <vector>

#include "common/error.h"
#include "topo/distance_oracle.h"

namespace p2plb::lb {

ProximityMap build_proximity_map(const chord::Ring& ring,
                                 const topo::TransitStubTopology& topology,
                                 const ProximityConfig& config, Rng& rng) {
  P2PLB_REQUIRE(config.landmark_count >= 1);
  ProximityMap map;
  map.landmarks = topo::select_landmarks(topology, config.landmark_count,
                                         config.strategy, rng);
  const topo::LandmarkVectors vectors(topology.graph, map.landmarks);
  const hilbert::CurveSpec spec{
      static_cast<std::uint32_t>(config.landmark_count),
      config.bits_per_dimension};
  const hilbert::GridQuantizer quantizer(spec, vectors.max_distance());

  map.node_keys.resize(ring.node_count(), 0);
  map.hilbert_numbers.resize(ring.node_count(), 0);
  const double recenter = vectors.max_distance() / 2.0;

  // Batch path: gather live nodes' vectors into dimension-major columns,
  // then quantize and Hilbert-encode whole columns at once.  Per-point
  // arithmetic (centering order, clamp/scale, curve transform) matches the
  // scalar quantizer/encoder exactly.
  std::vector<chord::NodeIndex> live;
  live.reserve(ring.node_count());
  for (std::size_t i = 0; i < ring.node_count(); ++i) {
    const chord::Node& n = ring.node(static_cast<chord::NodeIndex>(i));
    if (!n.alive) continue;
    P2PLB_REQUIRE_MSG(n.attachment != chord::Node::kNoAttachment,
                      "proximity mapping needs topology attachments");
    P2PLB_REQUIRE(n.attachment < vectors.vertex_count());
    live.push_back(static_cast<chord::NodeIndex>(i));
  }
  const std::size_t dims = vectors.dimension();
  const std::size_t count = live.size();
  std::vector<std::vector<double>> cols(dims, std::vector<double>(count));
  for (std::size_t d = 0; d < dims; ++d) {
    const std::span<const double> row = vectors.row(d);
    for (std::size_t p = 0; p < count; ++p)
      cols[d][p] = row[ring.node(live[p]).attachment];
  }
  if (config.center_vectors) {
    // mean over dimensions (ascending d, like the scalar loop), then the
    // same `value + (recenter - mean)` shift per element.
    std::vector<double> adj(count, 0.0);
    for (std::size_t d = 0; d < dims; ++d)
      for (std::size_t p = 0; p < count; ++p) adj[p] += cols[d][p];
    for (std::size_t p = 0; p < count; ++p)
      adj[p] = recenter - adj[p] / static_cast<double>(dims);
    for (std::size_t d = 0; d < dims; ++d)
      for (std::size_t p = 0; p < count; ++p) cols[d][p] += adj[p];
  }
  std::vector<std::vector<std::uint32_t>> grid(dims);
  for (std::size_t d = 0; d < dims; ++d)
    quantizer.quantize_column(cols[d], grid[d]);
  hilbert::BatchEncoder encoder(spec);
  std::vector<hilbert::Index> numbers;
  encoder.encode(grid, numbers);
  for (std::size_t p = 0; p < count; ++p) {
    map.hilbert_numbers[live[p]] = numbers[p];
    map.node_keys[live[p]] = quantizer.scale_to_key(numbers[p]);
  }
  return map;
}

ClusteringQuality measure_clustering_quality(
    const chord::Ring& ring, const topo::TransitStubTopology& topology,
    const ProximityMap& map, double near_radius, std::size_t sample_pairs,
    Rng& rng) {
  P2PLB_REQUIRE(near_radius >= 0.0);
  P2PLB_REQUIRE(sample_pairs >= 1);
  P2PLB_REQUIRE(map.hilbert_numbers.size() >= ring.node_count());

  // Group live nodes by Hilbert number.
  std::map<hilbert::Index, std::vector<chord::NodeIndex>> groups;
  std::vector<chord::NodeIndex> live;
  for (chord::NodeIndex i = 0; i < ring.node_count(); ++i) {
    if (!ring.node(i).alive) continue;
    live.push_back(i);
    groups[map.hilbert_numbers[i]].push_back(i);
  }
  P2PLB_REQUIRE_MSG(live.size() >= 2, "need at least two live nodes");

  // Sample same-number pairs uniformly over groups with >= 2 members.
  std::vector<const std::vector<chord::NodeIndex>*> multi;
  for (const auto& [number, members] : groups)
    if (members.size() >= 2) multi.push_back(&members);

  ClusteringQuality q;
  topo::DistanceOracle oracle(topology.graph);
  auto attachment = [&](chord::NodeIndex i) {
    const auto at = ring.node(i).attachment;
    P2PLB_REQUIRE_MSG(at != chord::Node::kNoAttachment,
                      "clustering quality needs attachments");
    return at;
  };

  double same_sum = 0.0;
  std::size_t false_pairs = 0;
  if (!multi.empty()) {
    for (std::size_t s = 0; s < sample_pairs; ++s) {
      const auto& members = *multi[rng.below(multi.size())];
      const auto a = members[rng.below(members.size())];
      auto b = a;
      while (b == a) b = members[rng.below(members.size())];
      const double d = oracle.distance(attachment(a), attachment(b));
      same_sum += d;
      if (d > near_radius) ++false_pairs;
      ++q.same_number_pairs;
    }
    q.false_clustering_rate =
        static_cast<double>(false_pairs) /
        static_cast<double>(q.same_number_pairs);
    q.mean_same_number_distance =
        same_sum / static_cast<double>(q.same_number_pairs);
  }

  double random_sum = 0.0;
  for (std::size_t s = 0; s < sample_pairs; ++s) {
    const auto a = live[rng.below(live.size())];
    auto b = a;
    while (b == a) b = live[rng.below(live.size())];
    random_sum += oracle.distance(attachment(a), attachment(b));
  }
  q.mean_random_distance = random_sum / static_cast<double>(sample_pairs);
  return q;
}

}  // namespace p2plb::lb
