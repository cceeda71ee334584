// Cached pairwise shortest-path queries.
//
// Every hop of a timed round over a topology costs one shortest-path
// distance, so the oracle keeps whole source rows (one single-source
// shortest-path run each) and answers a query with one row read.  The
// rows live in one contiguous V x V table plus a per-row filled flag.
// The table is allocated without value-initialising it, so a row never
// filled is never touched and never becomes resident.  A lookup is the
// flag test and one read at table[from * V + to], with no hashing.  The
// table reserves V * V entries of address space (30 MB at 8 bits for the
// 5,469-vertex ts5k-small).  The benchmarks and drivers fill every
// attachment's row up front.  There is no eviction and no capacity knob;
// the two-argument constructor only checks that a capacity covers every
// vertex, for the one benchmark call that still passes one.
//
// Row width.  The first use that needs it (distance, distances or
// latency) picks one element type for every row, and with it builds the
// flat adjacency and allocates the row table, so that work is timed
// with the first fill.  If every edge weight is an integer, a bound B on
// every shortest path decides: uint8_t rows if B < 0xFF, uint16_t rows if
// B < 0xFFFF, each with its maximum meaning unreachable; otherwise, and
// for any fractional weight, double rows.  B is max_weight times the
// edges a shortest path may need: vertex_count - 1, or, when a BFS from
// vertex 0 reaches every vertex of a graph of at most 0x10000 vertices,
// at most twice vertex 0's hop eccentricity (the path through vertex 0
// has that many edges).  The vertex cap keeps every target within a flat
// half-edge's 16 bits; the BFS is not a shortest-path row and is not
// counted in dijkstra_runs().  Both transit-stub presets take the 8-bit
// rows (B = 48 on ts5k-large, 84 on ts5k-small, at topology seed 2004).
// Integer rows are exact: every finite distance is an integer at most B,
// so widening it returns the double that Dijkstra over the graph's
// doubles computes, bit for bit.
//
// Kernels.  An integer row comes from Dial's bucket-queue Dijkstra over a
// flat adjacency (CSR offsets, each half-edge a 16-bit target and a
// 16-bit weight in one uint32): the queue is a ring of power-of-two size
// above the largest weight, indexed by distance & mask, and the kernel,
// one template over the row type, writes its distances straight into the
// row.  A double row comes from shortest_paths_into (graph.h) and its
// radix heap.
//
// distances() fills a batch's missing rows in parallel: the calling
// thread collects them, then up to hardware_concurrency workers run one
// shortest-path search per row, each with its own queue, writing into the
// table row.  The calling thread marks the rows filled once every worker
// has joined.  A row is a pure function of (graph, source), so the
// values, dijkstra_runs() and the filled rows are those of filling the
// rows one at a time, whatever the worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/network.h"
#include "topo/graph.h"

namespace p2plb::topo {

/// Pairwise shortest-path distance oracle with per-source caching.
class DistanceOracle {
 public:
  /// `graph` must outlive the oracle and not change while it lives.
  explicit DistanceOracle(const Graph& graph);
  /// The same oracle; `capacity` must be at least the vertex count.
  /// Exists only for the end-to-end benchmark's
  /// `emplace(graph, graph.vertex_count())` call, and goes when that
  /// benchmark moves to the one-argument constructor.
  DistanceOracle(const Graph& graph, std::size_t capacity);

  /// Distance between two vertices (kUnreachable if disconnected).
  [[nodiscard]] double distance(Vertex from, Vertex to);

  /// Resolve many pairs: each distinct source without a row costs
  /// exactly one shortest-path run, and the missing rows are filled in
  /// parallel.  Every vertex is range-checked before any row work.
  [[nodiscard]] std::vector<double> distances(
      std::span<const std::pair<Vertex, Vertex>> pairs);

  /// Rows filled so far, one single-source run each (for perf
  /// assertions).
  [[nodiscard]] std::uint64_t dijkstra_runs() const noexcept { return runs_; }

  /// Bytes held by the filled rows: rows x vertex_count x 1, 2 or 8, by
  /// the width rule (an unfilled row is never resident).
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

  /// The integer-weight graph as flat arrays, built with the width
  /// choice when it picks integer rows: vertex v's half-edges are
  /// edges[offsets[v], offsets[v + 1]), each `target << 16 | weight` in
  /// one uint32.  The width rule makes both fit 16 bits (every weight is
  /// at most B < 0xFFFF, and every vertex with an edge is below 0x10000),
  /// so a half-edge is 4 bytes, a quarter of a HalfEdge, and the offsets
  /// fit uint32.
  struct FlatAdjacency {
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> edges;
    /// Bucket-ring size - 1: the ring holds bit_ceil(max_weight + 1)
    /// buckets, so a distance's bucket is `distance & mask`.
    std::uint32_t mask = 0;
  };

 private:
  /// Pick the row width, and build what it needs: the flat adjacency for
  /// integer rows and the row table.  Runs once, on the first use that
  /// needs the width.
  void prepare();
  /// `f(T{})` for the row type T, preparing it first if need be.
  template <typename F>
  decltype(auto) with_row_type(F&& f);
  /// The row table of element type T (null unless T is the chosen one):
  /// row s is table<T>()[s * V, (s + 1) * V), valid iff filled_[s].
  template <typename T>
  T* table() noexcept {
    return std::get<std::unique_ptr<T[]>>(tables_).get();
  }
  /// Fill the rows of `sources` (distinct, none filled yet) in parallel,
  /// then mark them filled and count the runs.
  template <typename T>
  void fill(std::span<const Vertex> sources);
  template <typename T>
  double distance_as(Vertex from, Vertex to);
  template <typename T>
  std::vector<double> distances_as(
      std::span<const std::pair<Vertex, Vertex>> pairs);
  template <typename T>
  static sim::Time hop(void* ctx, sim::Endpoint from, sim::Endpoint to);

  const Graph& graph_;
  std::size_t vertex_count_;
  std::uint64_t runs_ = 0;
  double unreachable_latency_ = 1e6;
  std::uint8_t width_ = 0;  ///< bytes per entry: 1, 2 or 8; 0 until chosen
  FlatAdjacency adjacency_;  ///< integer rows only
  std::vector<std::uint8_t> filled_;  ///< per source: its row is filled
  std::tuple<std::unique_ptr<std::uint8_t[]>, std::unique_ptr<std::uint16_t[]>,
             std::unique_ptr<double[]>>
      tables_;
};

}  // namespace p2plb::topo
