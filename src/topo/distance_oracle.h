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
// distances() resolves a batch grouped by source and fills its missing
// rows in parallel: the calling thread allocates them, then up to
// hardware_concurrency workers run one Dijkstra per row, each into its
// own row with its own heap.  A row is a pure function of (graph,
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
  /// at max_cached_sources * vertex_count * 8 bytes.
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

  /// Adapt the oracle into the network's flat latency callable: endpoints
  /// are attachment vertices (the node_endpoint convention for
  /// topology-attached rings) and a hop's latency is the weighted
  /// shortest-path distance.  Same endpoint costs 0 without a query; a
  /// disconnected pair costs `unreachable` instead of infinity so the
  /// simulation stays finite.  The oracle must outlive the returned
  /// callable (whose ctx is the oracle itself -- no allocation, no type
  /// erasure on the per-send path).
  [[nodiscard]] sim::Latency latency(double unreachable = 1e6);

 private:
  const std::vector<double>& row(Vertex source);
  /// The cache slot of `source`, refreshed in LRU order.  A missing row
  /// is inserted (all kUnreachable, evicting the least recently used row
  /// in LRU mode), counted as a Dijkstra run and reported via `fresh`; the
  /// caller fills it before reading it.
  std::vector<double>& slot(Vertex source, bool& fresh);

  const Graph& graph_;
  std::size_t capacity_;
  std::uint64_t runs_ = 0;
  double unreachable_latency_ = 1e6;
  // Dense mode (capacity >= vertex count): one lazily filled row per
  // vertex, no eviction, no per-query hashing.  Empty row = not computed.
  std::vector<std::vector<double>> dense_;
  // LRU: most recently used at the front.
  std::list<std::pair<Vertex, std::vector<double>>> rows_;
  std::unordered_map<Vertex, decltype(rows_)::iterator> index_;
};

}  // namespace p2plb::topo
