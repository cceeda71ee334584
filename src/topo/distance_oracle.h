// Cached pairwise shortest-path queries.
//
// Every hop of a timed round over a topology costs one shortest-path
// distance, so the oracle keeps whole source rows (one Dijkstra each) and
// answers a query with one row read.  It has two modes:
//
//   dense  capacity >= vertex count: one row slot per vertex, filled on
//          first use and never evicted, so a lookup is an index and a
//          read with no hashing.  The benchmarks and drivers run in this
//          mode and fill every attachment's row up front.
//   LRU    smaller capacities keep at most `capacity` rows and evict the
//          least recently used one.
//
// Row width.  The constructor picks one element type for every row.  If
// every edge weight is an integer and max_weight * (vertex_count - 1) is
// below 0xFFFF, a row holds uint16_t distances with 0xFFFF meaning
// unreachable; otherwise it holds doubles.  Both transit-stub presets
// (weights 1 and 3, about 5,000 vertices) take the 16-bit rows.  They are
// exact: with integer weights every sum Dijkstra forms is an integer far
// below 2^53, so no addition rounds, and a shortest path has at most
// vertex_count - 1 edges, so every finite distance is an integer below
// 0xFFFF.  Narrowing keeps it, and widening returns the double Dijkstra
// computed bit for bit.
//
// distances() resolves a batch grouped by source and fills its missing
// rows in parallel: the calling thread claims them (LRU order and run
// count), then up to hardware_concurrency workers run one Dijkstra per
// row, each with its own heap, and allocate the rows they fill.  A 16-bit
// row is narrowed from the worker's reusable double scratch row; a double
// row is the Dijkstra row itself.  A row is a pure function of (graph,
// source), so the values, dijkstra_runs() and the cache contents are
// those of filling the rows one at a time, whatever the worker count.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "topo/graph.h"

namespace p2plb::topo {

/// Pairwise shortest-path distance oracle with per-source caching.
class DistanceOracle {
 public:
  /// `graph` must outlive the oracle.  `max_cached_sources` bounds memory
  /// at max_cached_sources * vertex_count * 8 bytes (2 bytes per entry
  /// with 16-bit rows).
  explicit DistanceOracle(const Graph& graph,
                          std::size_t max_cached_sources = 64);

  /// Distance between two vertices (kUnreachable if disconnected).
  [[nodiscard]] double distance(Vertex from, Vertex to);

  /// Resolve many pairs, grouping by source so each distinct source costs
  /// exactly one Dijkstra regardless of cache size.  Missing rows are
  /// filled in parallel; every vertex is range-checked before any row
  /// work.
  [[nodiscard]] std::vector<double> distances(
      std::span<const std::pair<Vertex, Vertex>> pairs);

  /// Number of Dijkstra runs performed so far (for perf assertions).
  [[nodiscard]] std::uint64_t dijkstra_runs() const noexcept { return runs_; }

  /// Bytes held by the cached rows (2 or 8 per entry, by the width rule).
  [[nodiscard]] std::size_t row_bytes() const noexcept;

  /// Adapt the oracle into the network's flat latency callable: endpoints
  /// are attachment vertices (the node_endpoint convention for
  /// topology-attached rings) and a hop's latency is the weighted
  /// shortest-path distance.  Same endpoint costs 0 without a query; a
  /// disconnected pair costs `unreachable` (finite, >= 0) instead of
  /// infinity so the simulation stays finite.  The oracle must outlive the
  /// returned callable (whose ctx is the oracle itself, and whose function
  /// is bound to the row width -- no allocation, no type erasure and no
  /// width test on the per-send path).
  [[nodiscard]] sim::Latency latency(double unreachable = 1e6);

 private:
  /// The cached rows of one element type (double, or uint16_t under the
  /// width rule above).  A row is empty until it is filled.
  template <typename T>
  struct Rows {
    using Lru = std::list<std::pair<Vertex, std::vector<T>>>;
    // Dense mode (capacity >= vertex count): one lazily filled row per
    // vertex, no eviction, no per-query hashing.
    std::vector<std::vector<T>> dense;
    // LRU: most recently used at the front.
    Lru lru;
    std::unordered_map<Vertex, typename Lru::iterator> index;
  };

  template <typename T>
  Rows<T>& rows() noexcept;
  template <typename T>
  const std::vector<T>& row(Vertex source);
  /// The cache slot of `source`, refreshed in LRU order.  An empty slot
  /// (a missing row is inserted empty, evicting the least recently used
  /// row in LRU mode) is counted as a Dijkstra run and reported via
  /// `fresh`; the caller fills it before reading it.
  template <typename T>
  std::vector<T>& slot(Vertex source, bool& fresh);
  template <typename T>
  double distance_as(Vertex from, Vertex to);
  template <typename T>
  std::vector<double> distances_as(
      std::span<const std::pair<Vertex, Vertex>> pairs);
  template <typename T>
  static sim::Time hop(void* ctx, sim::Endpoint from, sim::Endpoint to);

  const Graph& graph_;
  std::size_t capacity_;
  std::uint64_t runs_ = 0;
  double unreachable_latency_ = 1e6;
  bool narrow_ = false;  ///< 16-bit rows (fixed at construction)
  Rows<std::uint16_t> narrow_rows_;
  Rows<double> wide_rows_;
};

}  // namespace p2plb::topo
