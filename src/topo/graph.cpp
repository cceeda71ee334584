#include "topo/graph.h"

#include <algorithm>
#include <bit>
#include <queue>

namespace p2plb::topo {

void Graph::add_edge(Vertex a, Vertex b, double weight) {
  P2PLB_REQUIRE(a < adjacency_.size());
  P2PLB_REQUIRE(b < adjacency_.size());
  P2PLB_REQUIRE_MSG(a != b, "self-loops are not allowed");
  P2PLB_REQUIRE(weight > 0.0);
  P2PLB_REQUIRE_MSG(!has_edge(a, b), "parallel edge");
  adjacency_[a].push_back({b, weight});
  adjacency_[b].push_back({a, weight});
  ++edge_count_;
}

bool Graph::has_edge(Vertex a, Vertex b) const {
  P2PLB_REQUIRE(a < adjacency_.size());
  P2PLB_REQUIRE(b < adjacency_.size());
  // Scan the smaller adjacency list.
  const auto& list =
      adjacency_[a].size() <= adjacency_[b].size() ? adjacency_[a]
                                                   : adjacency_[b];
  const Vertex other = adjacency_[a].size() <= adjacency_[b].size() ? b : a;
  return std::any_of(list.begin(), list.end(),
                     [other](const HalfEdge& e) { return e.to == other; });
}

bool Graph::is_connected() const {
  if (adjacency_.empty()) return true;
  const auto hops = bfs_hops(*this, 0);
  return std::none_of(hops.begin(), hops.end(), [](std::uint32_t h) {
    return h == std::numeric_limits<std::uint32_t>::max();
  });
}

std::size_t RadixHeap::bucket_of(std::uint64_t key,
                                 std::uint64_t last) noexcept {
  if (key == last) return 0;
  return static_cast<std::size_t>(64 - std::countl_zero(key ^ last));
}

void RadixHeap::push(double key, Vertex v) {
  const auto bits = std::bit_cast<std::uint64_t>(key);
  buckets_[bucket_of(bits, last_)].push_back({bits, v});
  ++size_;
}

std::pair<double, Vertex> RadixHeap::pop() {
  if (buckets_[0].empty()) {
    std::size_t i = 1;
    while (buckets_[i].empty()) ++i;
    std::vector<Item>& from = buckets_[i];
    last_ = std::min_element(from.begin(), from.end(),
                             [](const Item& a, const Item& b) {
                               return a.key < b.key;
                             })->key;
    for (const Item& item : from)
      buckets_[bucket_of(item.key, last_)].push_back(item);
    from.clear();
  }
  const Item item = buckets_[0].back();
  buckets_[0].pop_back();
  --size_;
  return {std::bit_cast<double>(item.key), item.vertex};
}

void RadixHeap::clear() noexcept {
  for (std::vector<Item>& bucket : buckets_) bucket.clear();
  last_ = 0;
  size_ = 0;
}

void shortest_paths_into(const Graph& graph, Vertex source,
                         std::span<double> dist, RadixHeap& heap,
                         std::optional<Vertex> target) {
  P2PLB_REQUIRE(source < graph.vertex_count());
  P2PLB_REQUIRE(dist.size() == graph.vertex_count());
  dist[source] = 0.0;
  heap.push(0.0, source);
  while (!heap.empty()) {
    const auto [d, v] = heap.pop();
    if (d > dist[v]) continue;  // stale entry
    if (v == target) break;
    for (const HalfEdge& e : graph.neighbors(v)) {
      const double nd = d + e.weight;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        heap.push(nd, e.to);
      }
    }
  }
  heap.clear();
}

std::vector<double> shortest_paths(const Graph& graph, Vertex source) {
  std::vector<double> dist(graph.vertex_count(), kUnreachable);
  RadixHeap heap;
  shortest_paths_into(graph, source, dist, heap);
  return dist;
}

double shortest_path_distance(const Graph& graph, Vertex from, Vertex to) {
  P2PLB_REQUIRE(from < graph.vertex_count());
  P2PLB_REQUIRE(to < graph.vertex_count());
  if (from == to) return 0.0;
  std::vector<double> dist(graph.vertex_count(), kUnreachable);
  RadixHeap heap;
  shortest_paths_into(graph, from, dist, heap, to);
  return dist[to];
}

std::vector<std::uint32_t> bfs_hops(const Graph& graph, Vertex source) {
  P2PLB_REQUIRE(source < graph.vertex_count());
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> hops(graph.vertex_count(), kInf);
  std::queue<Vertex> frontier;
  hops[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    const Vertex v = frontier.front();
    frontier.pop();
    for (const HalfEdge& e : graph.neighbors(v)) {
      if (hops[e.to] == kInf) {
        hops[e.to] = hops[v] + 1;
        frontier.push(e.to);
      }
    }
  }
  return hops;
}

}  // namespace p2plb::topo
