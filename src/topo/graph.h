// Weighted undirected graph with single-source shortest paths.
//
// The graph is the physical-network substrate: vertices are routers/hosts,
// edge weights are latency units (1 per intradomain hop, 3 per interdomain
// hop in the paper's model).  Vertex ids are dense [0, n).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"

namespace p2plb::topo {

/// Dense vertex identifier.
using Vertex = std::uint32_t;

/// Distance value; unreachable vertices report `kUnreachable`.
inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Outgoing half-edge.
struct HalfEdge {
  Vertex to = 0;
  double weight = 0.0;
};

/// Undirected weighted graph (adjacency-list storage).
class Graph {
 public:
  explicit Graph(std::size_t vertex_count) : adjacency_(vertex_count) {}

  [[nodiscard]] std::size_t vertex_count() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edge_count_; }

  /// Add an undirected edge (a != b, weight > 0).  Parallel edges are
  /// rejected so generators cannot silently double-connect vertices.
  void add_edge(Vertex a, Vertex b, double weight);

  [[nodiscard]] bool has_edge(Vertex a, Vertex b) const;

  [[nodiscard]] std::span<const HalfEdge> neighbors(Vertex v) const {
    P2PLB_REQUIRE(v < adjacency_.size());
    return adjacency_[v];
  }

  [[nodiscard]] std::size_t degree(Vertex v) const {
    return neighbors(v).size();
  }

  /// True iff every vertex is reachable from vertex 0 (or the graph is
  /// empty).
  [[nodiscard]] bool is_connected() const;

 private:
  std::vector<std::vector<HalfEdge>> adjacency_;
  std::size_t edge_count_ = 0;
};

/// Dijkstra's priority queue: a monotone radix heap over non-negative
/// distances.
///
/// The key is the IEEE-754 bit pattern of the distance: for non-negative
/// doubles (+inf included) the unsigned order of the bits is the numeric
/// order, so the heap needs no integer weights.  An item lives in bucket
/// 0 when its key equals the last popped key, else in bucket
/// 1 + (highest bit where it differs from that key).  Pushes may not go
/// below the last popped key -- Dijkstra never does, because
/// fl(d + w) >= d for w > 0.  A pop that finds bucket 0 empty moves the
/// lowest non-empty bucket's minimum into `last` and redistributes that
/// bucket; every item then lands in a strictly lower bucket, so each item
/// moves at most 64 times and a pop is amortised O(1).
///
/// Exactness: the row Dijkstra computes is the least fixed point
/// d[v] = min over edges (u, v) of fl(d[u] + w).  fl(d + w) is
/// non-decreasing in d and never below d, so any label-setting pass that
/// settles vertices in non-decreasing key order computes that same fixed
/// point, whatever order it breaks ties in.  This heap and a binary heap
/// therefore produce bit-identical rows for any positive weights, even
/// where additions round or absorb (1e16 + 1e-9 == 1e16).
class RadixHeap {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Insert `v` at distance `key` (not below the last popped key).
  void push(double key, Vertex v);

  /// Remove and return an item with the smallest key.  Requires !empty().
  std::pair<double, Vertex> pop();

  /// Drop every item and restart from key 0 (keeps bucket capacity).
  void clear() noexcept;

 private:
  struct Item {
    std::uint64_t key = 0;
    Vertex vertex = 0;
  };
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t key,
                                             std::uint64_t last) noexcept;

  std::array<std::vector<Item>, 65> buckets_;
  std::uint64_t last_ = 0;
  std::size_t size_ = 0;
};

/// Dijkstra from `source` into `dist`, which must hold vertex_count()
/// entries, all kUnreachable: the kernel for any positive weights, and
/// the DistanceOracle's for double rows (its 8- and 16-bit rows, on
/// integer weights, run a bucket-queue Dijkstra over a flat adjacency;
/// see distance_oracle.h).  `heap` is reusable scratch (empty on entry and
/// on return), so a caller filling many rows allocates its buckets once.  With a `target`, the search stops as soon as the target is
/// settled and only dist[target] is final.
void shortest_paths_into(const Graph& graph, Vertex source,
                         std::span<double> dist, RadixHeap& heap,
                         std::optional<Vertex> target = std::nullopt);

/// Dijkstra single-source shortest path distances from `source`.
[[nodiscard]] std::vector<double> shortest_paths(const Graph& graph,
                                                 Vertex source);

/// Shortest-path distance between two vertices (one Dijkstra run,
/// early-exit when the target is settled).
[[nodiscard]] double shortest_path_distance(const Graph& graph, Vertex from,
                                            Vertex to);

/// Unweighted hop counts from `source` (BFS) -- used as a test oracle for
/// Dijkstra on unit-weight graphs.
[[nodiscard]] std::vector<std::uint32_t> bfs_hops(const Graph& graph,
                                                  Vertex source);

}  // namespace p2plb::topo
