// Unit and property tests for the topology substrate: graph algorithms,
// the transit-stub generator, landmark vectors and the distance oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <queue>
#include <set>

#include "common/error.h"
#include "common/rng.h"
#include "topo/distance_oracle.h"
#include "topo/graph.h"
#include "topo/landmarks.h"
#include "topo/transit_stub.h"

namespace p2plb::topo {
namespace {

// --- Graph / shortest paths ---------------------------------------------------

TEST(Graph, EdgesAndDegrees) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, RejectsBadEdges) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(0, 0, 1.0), PreconditionError);
  EXPECT_THROW(g.add_edge(0, 1, 0.0), PreconditionError);
  EXPECT_THROW(g.add_edge(0, 5, 1.0), PreconditionError);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(g.add_edge(1, 0, 2.0), PreconditionError);  // parallel
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2, 1.0);
  EXPECT_TRUE(g.is_connected());
  EXPECT_TRUE(Graph(0).is_connected());
  EXPECT_TRUE(Graph(1).is_connected());
}

TEST(ShortestPaths, HandComputed) {
  //    0 --1-- 1 --1-- 2
  //     \---5---------/
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 2, 5.0);
  const auto d = shortest_paths(g, 0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);  // via 1, not the direct 5.0 edge
  EXPECT_DOUBLE_EQ(shortest_path_distance(g, 0, 2), 2.0);
  EXPECT_DOUBLE_EQ(shortest_path_distance(g, 2, 2), 0.0);
}

TEST(ShortestPaths, UnreachableIsInfinity) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto d = shortest_paths(g, 0);
  EXPECT_EQ(d[2], kUnreachable);
  EXPECT_EQ(shortest_path_distance(g, 0, 2), kUnreachable);
}

TEST(ShortestPaths, MatchesBfsOnUnitWeights) {
  Rng rng(31);
  Graph g(200);
  // Random connected unit-weight graph.
  for (Vertex v = 1; v < 200; ++v)
    g.add_edge(v, static_cast<Vertex>(rng.below(v)), 1.0);
  for (int extra = 0; extra < 300; ++extra) {
    const auto a = static_cast<Vertex>(rng.below(200));
    const auto b = static_cast<Vertex>(rng.below(200));
    if (a != b && !g.has_edge(a, b)) g.add_edge(a, b, 1.0);
  }
  const auto dij = shortest_paths(g, 7);
  const auto bfs = bfs_hops(g, 7);
  for (Vertex v = 0; v < 200; ++v)
    EXPECT_DOUBLE_EQ(dij[v], static_cast<double>(bfs[v]));
}

/// Textbook lazy-deletion Dijkstra over std::priority_queue: the
/// independent reference for the radix-heap kernel.
std::vector<double> binary_heap_dijkstra(const Graph& g, Vertex source) {
  std::vector<double> dist(g.vertex_count(), kUnreachable);
  using Entry = std::pair<double, Vertex>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > dist[v]) continue;
    for (const HalfEdge& e : g.neighbors(v)) {
      const double nd = d + e.weight;
      if (nd < dist[e.to]) {
        dist[e.to] = nd;
        heap.push({nd, e.to});
      }
    }
  }
  return dist;
}

/// Random graph with real-valued weights spanning 1e-9 .. 1e16 (so some
/// additions round and some absorb) and a third of the vertices cut off
/// from the rest (some of them isolated).
Graph mixed_weight_graph(Rng& rng, Vertex n) {
  Graph g(n);
  g.add_edge(0, 1, 1e16);
  const Vertex cut = n - n / 3;
  const auto add = [&](Vertex a, Vertex b) {
    if (a == b || g.has_edge(a, b)) return;
    double w = rng.uniform(0.1, 10.0);
    const std::uint64_t kind = rng.below(8);
    if (kind == 0) w *= 1e-9;
    if (kind == 1) w *= 1e6;
    if (kind == 2) w = std::pow(10.0, rng.uniform(-9.0, 16.0));
    g.add_edge(a, b, w);
  };
  for (Vertex v = 1; v < cut; ++v) add(v, static_cast<Vertex>(rng.below(v)));
  for (Vertex i = 0; i < 2 * n; ++i)
    add(static_cast<Vertex>(rng.below(cut)),
        static_cast<Vertex>(rng.below(cut)));
  for (Vertex i = 0; i < n / 4; ++i)
    add(cut + static_cast<Vertex>(rng.below(n - cut)),
        cut + static_cast<Vertex>(rng.below(n - cut)));
  return g;
}

/// Row equality down to the bit pattern (EXPECT_EQ on doubles would let
/// 0.0 and -0.0 pass, and DOUBLE_EQ several ulps).
void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0)
    return;  // equal bits: skip the per-vertex report
  for (std::size_t v = 0; v < got.size(); ++v)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[v]),
              std::bit_cast<std::uint64_t>(want[v]))
        << "vertex " << v << ": " << got[v] << " vs " << want[v];
}

TEST(ShortestPaths, RadixHeapMatchesBinaryHeapBitwise) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(100 + seed);
    const Graph g = mixed_weight_graph(rng, 120 + static_cast<Vertex>(seed));
    for (int trial = 0; trial < 6; ++trial) {
      const auto source = static_cast<Vertex>(rng.below(g.vertex_count()));
      const std::vector<double> want = binary_heap_dijkstra(g, source);
      expect_bitwise_equal(shortest_paths(g, source), want);
      const auto target = static_cast<Vertex>(rng.below(g.vertex_count()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    shortest_path_distance(g, source, target)),
                std::bit_cast<std::uint64_t>(want[target]));
    }
  }
}

// --- Transit-stub generator ----------------------------------------------------

class TransitStubSweep : public ::testing::TestWithParam<int> {};

TEST_P(TransitStubSweep, StructureIsSound) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  TransitStubParams params;
  params.transit_domains = 4;
  params.transit_nodes_per_domain = 3;
  params.stub_domains_per_transit = 2;
  params.stub_nodes_mean = 8;
  const auto topo = generate_transit_stub(params, rng, "sweep");

  EXPECT_TRUE(topo.graph.is_connected());
  const auto transit = topo.transit_vertices();
  const auto stub = topo.stub_vertices();
  EXPECT_EQ(transit.size(), 12u);
  EXPECT_EQ(topo.stub_domain_count(), 24u);
  EXPECT_EQ(transit.size() + stub.size(), topo.graph.vertex_count());
  // Stub-domain sizes average around the mean (uniform [4, 12]).
  EXPECT_GE(stub.size(), 24u * 4);
  EXPECT_LE(stub.size(), 24u * 12);

  // Every stub vertex's gateway is a transit vertex; domains are coherent.
  for (const Vertex v : stub) {
    const VertexInfo& info = topo.vertices[v];
    EXPECT_EQ(topo.vertices[info.gateway_transit].kind, VertexKind::kTransit);
    EXPECT_GE(info.domain, params.transit_domains);
  }
  for (const Vertex v : transit) {
    EXPECT_LT(topo.vertices[v].domain, params.transit_domains);
    EXPECT_EQ(topo.vertices[v].gateway_transit, v);
  }
}

TEST_P(TransitStubSweep, EdgeWeightsFollowDomainRule) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  TransitStubParams params;
  params.transit_domains = 3;
  params.transit_nodes_per_domain = 2;
  params.stub_domains_per_transit = 2;
  params.stub_nodes_mean = 4;
  const auto topo = generate_transit_stub(params, rng, "weights");
  for (Vertex v = 0; v < topo.graph.vertex_count(); ++v) {
    for (const HalfEdge& e : topo.graph.neighbors(v)) {
      const bool same_domain =
          topo.vertices[v].domain == topo.vertices[e.to].domain;
      EXPECT_DOUBLE_EQ(e.weight, same_domain ? params.intra_domain_weight
                                             : params.inter_domain_weight)
          << "edge " << v << "-" << e.to;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitStubSweep,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(TransitStub, PaperPresetsHaveRoughlyFiveThousandNodes) {
  Rng rng(32);
  const auto large =
      generate_transit_stub(TransitStubParams::ts5k_large(), rng, "large");
  // 15 transit + 75 stub domains x ~60 = ~4.5k.
  EXPECT_GT(large.graph.vertex_count(), 3000u);
  EXPECT_LT(large.graph.vertex_count(), 8000u);
  EXPECT_EQ(large.transit_vertices().size(), 15u);
  EXPECT_TRUE(large.graph.is_connected());

  const auto small =
      generate_transit_stub(TransitStubParams::ts5k_small(), rng, "small");
  // 600 transit + 2400 stub domains x ~2 = ~5.4k.
  EXPECT_GT(small.graph.vertex_count(), 4000u);
  EXPECT_LT(small.graph.vertex_count(), 9000u);
  EXPECT_EQ(small.transit_vertices().size(), 600u);
  EXPECT_TRUE(small.graph.is_connected());
}

TEST(TransitStub, SameStubDomainIsCloserThanCrossDomain) {
  Rng rng(33);
  const auto topo =
      generate_transit_stub(TransitStubParams::ts5k_large(), rng, "large");
  // Average intra-stub-domain distance must be well below the average
  // cross-domain distance (this is the locality Figure 7 exploits).
  std::vector<Vertex> stub = topo.stub_vertices();
  double intra = 0.0, cross = 0.0;
  int intra_n = 0, cross_n = 0;
  Rng pick(34);
  for (int trial = 0; trial < 60; ++trial) {
    const Vertex a = stub[pick.below(stub.size())];
    const auto dist = shortest_paths(topo.graph, a);
    for (int j = 0; j < 40; ++j) {
      const Vertex b = stub[pick.below(stub.size())];
      if (a == b) continue;
      if (topo.vertices[a].domain == topo.vertices[b].domain) {
        intra += dist[b];
        ++intra_n;
      } else {
        cross += dist[b];
        ++cross_n;
      }
    }
  }
  ASSERT_GT(cross_n, 0);
  if (intra_n > 0) {
    EXPECT_LT(intra / intra_n, 0.5 * cross / cross_n);
  }
}

TEST(TransitStub, RejectsBadParams) {
  Rng rng(35);
  TransitStubParams params;
  params.transit_domains = 0;
  EXPECT_THROW((void)generate_transit_stub(params, rng), PreconditionError);
}

// --- Landmarks -------------------------------------------------------------------

TEST(Landmarks, TransitSpreadCoversDomains) {
  Rng rng(36);
  const auto topo =
      generate_transit_stub(TransitStubParams::ts5k_large(), rng, "large");
  const auto lms =
      select_landmarks(topo, 15, LandmarkStrategy::kTransitSpread, rng);
  EXPECT_EQ(lms.size(), 15u);
  std::set<Vertex> unique(lms.begin(), lms.end());
  EXPECT_EQ(unique.size(), 15u);
  // 15 = all transit vertices; they must cover all 5 transit domains.
  std::set<std::uint32_t> domains;
  for (const Vertex v : lms) {
    EXPECT_EQ(topo.vertices[v].kind, VertexKind::kTransit);
    domains.insert(topo.vertices[v].domain);
  }
  EXPECT_EQ(domains.size(), 5u);
}

TEST(Landmarks, RandomStrategiesRespectPools) {
  Rng rng(37);
  TransitStubParams params;
  params.transit_domains = 2;
  params.transit_nodes_per_domain = 2;
  params.stub_domains_per_transit = 2;
  params.stub_nodes_mean = 5;
  const auto topo = generate_transit_stub(params, rng, "t");
  const auto stubs =
      select_landmarks(topo, 6, LandmarkStrategy::kRandomStub, rng);
  for (const Vertex v : stubs)
    EXPECT_EQ(topo.vertices[v].kind, VertexKind::kStub);
  const auto any = select_landmarks(topo, 6, LandmarkStrategy::kRandomAny, rng);
  EXPECT_EQ(any.size(), 6u);
  EXPECT_THROW(
      (void)select_landmarks(topo, 99, LandmarkStrategy::kTransitSpread, rng),
      PreconditionError);
}

TEST(LandmarkVectors, MatchDirectDijkstra) {
  Rng rng(38);
  TransitStubParams params;
  params.transit_domains = 2;
  params.transit_nodes_per_domain = 2;
  params.stub_domains_per_transit = 2;
  params.stub_nodes_mean = 6;
  const auto topo = generate_transit_stub(params, rng, "t");
  const auto lms = select_landmarks(topo, 3, LandmarkStrategy::kRandomAny, rng);
  const LandmarkVectors lv(topo.graph, lms);
  EXPECT_EQ(lv.dimension(), 3u);
  for (std::size_t i = 0; i < lms.size(); ++i) {
    const auto direct = shortest_paths(topo.graph, lms[i]);
    for (Vertex v = 0; v < topo.graph.vertex_count(); ++v)
      EXPECT_DOUBLE_EQ(lv.distance(i, v), direct[v]);
  }
  const auto vec = lv.vector_of(0);
  EXPECT_EQ(vec.size(), 3u);
  EXPECT_GT(lv.max_distance(), 0.0);
}

TEST(LandmarkVectors, SameStubDomainHasSimilarVectors) {
  Rng rng(39);
  const auto topo =
      generate_transit_stub(TransitStubParams::ts5k_large(), rng, "large");
  const auto lms =
      select_landmarks(topo, 15, LandmarkStrategy::kTransitSpread, rng);
  const LandmarkVectors lv(topo.graph, lms);
  // Two nodes in the same stub domain: vectors differ by at most the stub
  // domain diameter in every coordinate.
  const auto stubs = topo.stub_vertices();
  Vertex a = stubs[0];
  Vertex b = a;
  for (const Vertex v : stubs)
    if (v != a && topo.vertices[v].domain == topo.vertices[a].domain) {
      b = v;
      break;
    }
  ASSERT_NE(a, b);
  const auto va = lv.vector_of(a);
  const auto vb = lv.vector_of(b);
  for (std::size_t d = 0; d < va.size(); ++d)
    EXPECT_LE(std::abs(va[d] - vb[d]), 12.0);
}

// --- DistanceOracle -----------------------------------------------------------------

TEST(DistanceOracle, MatchesDirectComputation) {
  Rng rng(40);
  TransitStubParams params;
  params.transit_domains = 2;
  params.transit_nodes_per_domain = 2;
  params.stub_domains_per_transit = 2;
  params.stub_nodes_mean = 6;
  const auto topo = generate_transit_stub(params, rng, "t");
  DistanceOracle oracle(topo.graph, 4);
  for (int trial = 0; trial < 50; ++trial) {
    const auto a = static_cast<Vertex>(rng.below(topo.graph.vertex_count()));
    const auto b = static_cast<Vertex>(rng.below(topo.graph.vertex_count()));
    EXPECT_DOUBLE_EQ(oracle.distance(a, b),
                     shortest_path_distance(topo.graph, a, b));
  }
}

TEST(DistanceOracle, BatchGroupsBySource) {
  Rng rng(41);
  Graph g(50);
  for (Vertex v = 1; v < 50; ++v)
    g.add_edge(v, static_cast<Vertex>(rng.below(v)), 1.0);
  DistanceOracle oracle(g, 2);  // tiny cache
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (int i = 0; i < 200; ++i)
    pairs.emplace_back(static_cast<Vertex>(rng.below(5)),   // 5 sources
                       static_cast<Vertex>(rng.below(50)));
  const auto d = oracle.distances(pairs);
  ASSERT_EQ(d.size(), pairs.size());
  // Grouping means at most one Dijkstra per distinct source despite the
  // 2-row cache.
  EXPECT_LE(oracle.dijkstra_runs(), 5u);
  for (std::size_t i = 0; i < pairs.size(); ++i)
    EXPECT_DOUBLE_EQ(
        d[i], shortest_path_distance(g, pairs[i].first, pairs[i].second));
}

TEST(DistanceOracle, CachesRepeatSources) {
  Rng rng(42);
  Graph g(30);
  for (Vertex v = 1; v < 30; ++v)
    g.add_edge(v, static_cast<Vertex>(rng.below(v)), 1.0);
  DistanceOracle oracle(g, 8);
  (void)oracle.distance(3, 10);
  (void)oracle.distance(3, 20);
  (void)oracle.distance(3, 29);
  EXPECT_EQ(oracle.dijkstra_runs(), 1u);
  EXPECT_DOUBLE_EQ(oracle.distance(7, 7), 0.0);
}

TEST(DistanceOracle, BatchRejectsOutOfRangePairs) {
  Graph g(10);
  for (Vertex v = 1; v < 10; ++v) g.add_edge(v - 1, v, 1.0);
  for (const std::size_t capacity : {std::size_t{10}, std::size_t{2}}) {
    DistanceOracle oracle(g, capacity);  // dense, then LRU
    const std::vector<std::pair<Vertex, Vertex>> bad_source = {{1, 2},
                                                              {10, 3}};
    const std::vector<std::pair<Vertex, Vertex>> bad_target = {{1, 2},
                                                              {3, 10}};
    EXPECT_THROW((void)oracle.distances(bad_source), PreconditionError);
    EXPECT_THROW((void)oracle.distances(bad_target), PreconditionError);
    // Checked before any row work: the valid pair ahead of the bad one
    // ran no Dijkstra.
    EXPECT_EQ(oracle.dijkstra_runs(), 0u);
  }
}

/// Pairs from every stub of a small transit-stub graph, several targets
/// per source, in shuffled order.
std::vector<std::pair<Vertex, Vertex>> stub_pairs(
    const TransitStubTopology& topo, Rng& rng) {
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (const Vertex s : topo.stub_vertices()) {
    pairs.emplace_back(s, s);
    for (int j = 0; j < 3; ++j)
      pairs.emplace_back(
          s, static_cast<Vertex>(rng.below(topo.graph.vertex_count())));
  }
  for (std::size_t i = pairs.size(); i > 1; --i)
    std::swap(pairs[i - 1], pairs[rng.below(i)]);
  return pairs;
}

TransitStubTopology parallel_batch_topology() {
  Rng rng(43);
  TransitStubParams params;
  params.transit_domains = 3;
  params.transit_nodes_per_domain = 3;
  params.stub_domains_per_transit = 3;
  params.stub_nodes_mean = 8;
  return generate_transit_stub(params, rng, "batch");
}

/// A batch equals a fresh oracle's one-pair-at-a-time answers bit for
/// bit, and costs exactly one Dijkstra per distinct source.
void expect_batch_matches_lazy_rows(const TransitStubTopology& topo,
                                    DistanceOracle& batch,
                                    std::size_t capacity) {
  Rng rng(44);
  const auto pairs = stub_pairs(topo, rng);
  const std::vector<double> got = batch.distances(pairs);
  EXPECT_EQ(batch.dijkstra_runs(), topo.stub_vertices().size());
  DistanceOracle lazy(topo.graph, capacity);
  ASSERT_EQ(got.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(
                  lazy.distance(pairs[i].first, pairs[i].second)))
        << pairs[i].first << " -> " << pairs[i].second;
}

TEST(DistanceOracle, ParallelBatchMatchesLazyRows) {
  const auto topo = parallel_batch_topology();
  const std::size_t n = topo.graph.vertex_count();
  DistanceOracle oracle(topo.graph, n);  // dense mode
  expect_batch_matches_lazy_rows(topo, oracle, n);
  const std::uint64_t runs = oracle.dijkstra_runs();
  Rng rng(44);
  (void)oracle.distances(stub_pairs(topo, rng));
  EXPECT_EQ(oracle.dijkstra_runs(), runs);  // every row already cached
}

TEST(DistanceOracle, ParallelBatchMatchesLazyRowsLru) {
  const auto topo = parallel_batch_topology();
  constexpr std::size_t kCapacity = 7;
  DistanceOracle oracle(topo.graph, kCapacity);
  std::vector<Vertex> ascending = topo.stub_vertices();
  std::sort(ascending.begin(), ascending.end());
  ASSERT_GT(ascending.size(), 3 * kCapacity);  // several chunks
  expect_batch_matches_lazy_rows(topo, oracle, kCapacity);
  // The cache ends as a one-row-at-a-time walk over the ascending
  // sources leaves it: the last `kCapacity` sources stay, the rest went.
  const std::uint64_t runs = oracle.dijkstra_runs();
  for (std::size_t i = ascending.size() - kCapacity; i < ascending.size(); ++i)
    (void)oracle.distance(ascending[i], ascending[0]);
  EXPECT_EQ(oracle.dijkstra_runs(), runs);
  (void)oracle.distance(ascending[0], ascending[1]);
  EXPECT_EQ(oracle.dijkstra_runs(), runs + 1);
}

// --- Compact rows ------------------------------------------------------------

/// `source`'s full row, read one distance() at a time.
std::vector<double> row_by_distance(DistanceOracle& oracle, std::size_t n,
                                    Vertex source) {
  std::vector<double> row(n);
  for (Vertex v = 0; v < n; ++v) row[v] = oracle.distance(source, v);
  return row;
}

/// Full rows of `sources`, answered by one distances() batch (row i is
/// out[i * n, (i + 1) * n)).
std::vector<double> rows_by_batch(DistanceOracle& oracle, std::size_t n,
                                  std::span<const Vertex> sources) {
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (const Vertex s : sources)
    for (Vertex v = 0; v < n; ++v) pairs.emplace_back(s, v);
  return oracle.distances(pairs);
}

/// Every read path of the oracle -- distance() and a parallel distances()
/// prefill on a dense oracle, both on an LRU one -- gives `sources`' rows
/// bit for bit as shortest_paths does.
void expect_rows_match_dijkstra(const Graph& g,
                                std::span<const Vertex> sources) {
  const std::size_t n = g.vertex_count();
  constexpr std::size_t kLruCapacity = 3;  // several chunks per batch
  DistanceOracle dense(g, n);
  DistanceOracle lru(g, kLruCapacity);
  const std::vector<double> dense_batch = rows_by_batch(dense, n, sources);
  const std::vector<double> lru_batch = rows_by_batch(lru, n, sources);
  DistanceOracle lazy(g, n);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "source " << sources[i]);
    const std::vector<double> want = shortest_paths(g, sources[i]);
    const auto slice = [&](const std::vector<double>& batch) {
      const std::span<const double> row(batch.data() + i * n, n);
      return std::vector<double>(row.begin(), row.end());
    };
    expect_bitwise_equal(slice(dense_batch), want);
    expect_bitwise_equal(slice(lru_batch), want);
    expect_bitwise_equal(row_by_distance(lazy, n, sources[i]), want);
    expect_bitwise_equal(row_by_distance(lru, n, sources[i]), want);
  }
}

TEST(DistanceOracle, CompactRowsMatchDijkstraOnPresets) {
  for (const bool large : {true, false}) {
    SCOPED_TRACE(large ? "ts5k-large" : "ts5k-small");
    Rng topo_rng(2004);  // the end-to-end benchmark's topology seed
    const auto topo = generate_transit_stub(
        large ? TransitStubParams::ts5k_large()
              : TransitStubParams::ts5k_small(),
        topo_rng, "preset");
    const Graph& g = topo.graph;
    const std::size_t n = g.vertex_count();
    Rng rng(45);
    std::vector<Vertex> sources;
    for (const std::size_t i : rng.sample_indices(n, 6))
      sources.push_back(static_cast<Vertex>(i));
    expect_rows_match_dijkstra(g, sources);
    // Both presets take the 8-bit rows: one byte per entry.
    DistanceOracle oracle(g, n);
    (void)rows_by_batch(oracle, n, sources);
    EXPECT_EQ(oracle.row_bytes(), sources.size() * n * sizeof(std::uint8_t));
  }
}

/// Every row the end-to-end benchmark fills on a preset, bit for bit
/// against shortest_paths: the parallel distances() fill of all stub
/// rows, and a fresh oracle filling each row lazily on its first
/// distance().  Also pins the benchmark's topo.dijkstra_runs digest, one
/// run per stub row.  (Its own suite keeps it out of the TSan job, where
/// its ~9,400 reference runs took over ten minutes; the DistanceOracle.*
/// tests there cover the threaded fill.)
void expect_every_stub_row_matches_dijkstra(bool large,
                                            std::size_t stub_count) {
  Rng topo_rng(2004);  // the end-to-end benchmark's topology seed
  const auto topo = generate_transit_stub(
      large ? TransitStubParams::ts5k_large()
            : TransitStubParams::ts5k_small(),
      topo_rng, "preset");
  const Graph& g = topo.graph;
  const std::size_t n = g.vertex_count();
  const std::vector<Vertex> stubs = topo.stub_vertices();
  ASSERT_EQ(stubs.size(), stub_count);
  std::vector<std::pair<Vertex, Vertex>> sources;
  for (const Vertex s : stubs) sources.emplace_back(s, s);
  DistanceOracle batch(g, n);
  (void)batch.distances(sources);
  EXPECT_EQ(batch.dijkstra_runs(), stub_count);
  EXPECT_EQ(batch.row_bytes(), stub_count * n * sizeof(std::uint8_t));
  DistanceOracle lazy(g, n);
  for (const Vertex s : stubs) {
    SCOPED_TRACE(::testing::Message() << "source " << s);
    const std::vector<double> want = shortest_paths(g, s);
    expect_bitwise_equal(row_by_distance(batch, n, s), want);
    expect_bitwise_equal(row_by_distance(lazy, n, s), want);
  }
  EXPECT_EQ(batch.dijkstra_runs(), stub_count);  // the reads ran nothing
  EXPECT_EQ(lazy.dijkstra_runs(), stub_count);
}

TEST(OracleRows, EveryStubRowMatchesDijkstraOnTs5kLarge) {
  expect_every_stub_row_matches_dijkstra(true, 4556);
}

TEST(OracleRows, EveryStubRowMatchesDijkstraOnTs5kSmall) {
  expect_every_stub_row_matches_dijkstra(false, 4869);
}

/// A random graph with integer weights in [1, max_weight] whose last
/// quarter of vertices is cut off from vertex 0's part, or, with
/// `connected`, a connected one.
Graph integer_weight_graph(Rng& rng, Vertex n, std::uint64_t max_weight,
                           bool connected = false) {
  Graph g(n);
  const Vertex cut = connected ? n : n - n / 4;
  const auto add = [&](Vertex a, Vertex b) {
    if (a == b || g.has_edge(a, b)) return;
    g.add_edge(a, b, static_cast<double>(1 + rng.below(max_weight)));
  };
  for (Vertex v = 1; v < cut; ++v) add(v, static_cast<Vertex>(rng.below(v)));
  for (Vertex i = 0; i < n; ++i)
    add(static_cast<Vertex>(rng.below(cut)),
        static_cast<Vertex>(rng.below(cut)));
  for (Vertex v = cut + 1; v < n; ++v)
    add(v, cut + static_cast<Vertex>(rng.below(v - cut)));
  return g;
}

TEST(DistanceOracle, BucketRingWrapsAtTheMaxWeight) {
  // The integer kernel's bucket ring holds bit_ceil(max_weight + 1)
  // buckets: 2, 8, 8 and 16 here.  At max weight 7 a relaxation lands a
  // full ring lap minus one ahead; at 4 and 8 the ring is not full.  The
  // labels wrap the ring many times.  With a cut-off part, which stays
  // unreachable, the bound is max_weight * 239: 8-bit rows at max weight
  // 1, 16-bit rows above.  A connected graph is bounded through vertex
  // 0's hop eccentricity instead, which takes 8-bit rows throughout.
  for (const bool connected : {false, true}) {
    Rng rng(connected ? 48 : 47);
    for (const std::uint64_t max_weight : {1u, 4u, 7u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << (connected ? "connected, " : "") << "max weight "
                   << max_weight);
      const Graph g = integer_weight_graph(rng, 240, max_weight, connected);
      const std::vector<Vertex> sources = {0, 1, 100, 200, 239};
      expect_rows_match_dijkstra(g, sources);
      DistanceOracle oracle(g, g.vertex_count());
      EXPECT_EQ(oracle.distance(0, 239) == kUnreachable, !connected);
      const std::size_t width = connected || max_weight == 1
                                    ? sizeof(std::uint8_t)
                                    : sizeof(std::uint16_t);
      EXPECT_EQ(oracle.row_bytes(), g.vertex_count() * width);
    }
  }
}

TEST(DistanceOracle, SingleVertex) {
  const Graph g(1);
  DistanceOracle oracle(g, 1);  // dense: one 1 x 1 table
  EXPECT_EQ(oracle.distance(0, 0), 0.0);
  const std::vector<std::pair<Vertex, Vertex>> pairs = {{0, 0}};
  EXPECT_EQ(oracle.distances(pairs), std::vector<double>{0.0});
  EXPECT_EQ(oracle.dijkstra_runs(), 1u);  // the batch filled its row
  EXPECT_EQ(oracle.row_bytes(), sizeof(std::uint8_t));
  EXPECT_EQ(oracle.latency()(0, 0), 0.0);
  EXPECT_THROW((void)oracle.distance(0, 1), PreconditionError);
}

TEST(DistanceOracle, NonIntegralWeightsKeepDoubleRows) {
  // Weights from 1e-9 to 1e16 (additions round and absorb), then small
  // fractional weights whose bound alone would fit 16 bits.
  Rng rng(46);
  Graph fractional(5);
  fractional.add_edge(0, 1, 0.1);
  fractional.add_edge(1, 2, 0.2);
  fractional.add_edge(0, 2, 0.3);
  fractional.add_edge(2, 3, 1.5);
  for (const Graph& g : {mixed_weight_graph(rng, 150), fractional}) {
    const std::vector<Vertex> sources = {
        0, 1, 3, static_cast<Vertex>(g.vertex_count() - 1)};
    expect_rows_match_dijkstra(g, sources);
    DistanceOracle oracle(g, g.vertex_count());
    (void)rows_by_batch(oracle, g.vertex_count(), sources);
    EXPECT_EQ(oracle.row_bytes(),
              sources.size() * g.vertex_count() * sizeof(double));
  }
}

/// A path of `edges` edges of one weight with vertex 0 at position
/// edges / 2 and the other path vertices in path order around it, so its
/// end points, 1 and `edges`, are edges * weight apart; then `leaves`
/// more vertices, each one edge from vertex 0.
Graph centred_path(Vertex edges, double weight, Vertex leaves = 0) {
  const Vertex centre = edges / 2;
  const auto at = [centre](Vertex p) {
    return p == centre ? 0 : p < centre ? p + 1 : p;
  };
  Graph g(edges + 1 + leaves);
  for (Vertex p = 1; p <= edges; ++p) g.add_edge(at(p - 1), at(p), weight);
  for (Vertex v = edges + 1; v <= edges + leaves; ++v)
    g.add_edge(0, v, weight);
  return g;
}

TEST(DistanceOracle, WidthRuleHoldsAtTheBound) {
  // Vertex 0's hop eccentricity on a path of `edges` edges is
  // ceil(edges / 2), so B = weight * min(2 * ceil(edges / 2), edges +
  // leaves).  217 * 302 == 0xFFFE is the largest bound 16-bit rows take
  // (0xFFFF marks unreachable); 257 * 255 == 0xFFFF falls back to double
  // rows.  254 unit edges and 8 leaves give B = min(2 * 127, 262) = 0xFE,
  // the largest bound 8-bit rows take; 255 unit edges give
  // B = min(256, 255) = 0xFF, and the distance 0xFF between the ends
  // needs 16-bit rows.
  struct Case {
    Vertex edges;
    double weight;
    Vertex leaves;
    std::size_t width;
  };
  for (const Case c : {Case{217, 302.0, 0, sizeof(std::uint16_t)},
                       Case{257, 255.0, 0, sizeof(double)},
                       Case{254, 1.0, 8, sizeof(std::uint8_t)},
                       Case{255, 1.0, 0, sizeof(std::uint16_t)}}) {
    SCOPED_TRACE(::testing::Message() << c.edges << " edges of " << c.weight);
    // On the integer paths, the far end's relaxation back along it forms
    // a label past the unreachable entry (0xFFFE + 302, or 0xFE + 1 ==
    // 0xFF): it must lose, not wrap.
    const Graph g = centred_path(c.edges, c.weight, c.leaves);
    const std::vector<Vertex> sources = {1, 0, c.edges / 2, c.edges};
    expect_rows_match_dijkstra(g, sources);
    DistanceOracle oracle(g, g.vertex_count());
    const double farthest = c.edges * c.weight;
    EXPECT_EQ(oracle.distance(1, c.edges), farthest);
    EXPECT_EQ(oracle.distance(c.edges, 1), farthest);
    EXPECT_EQ(oracle.row_bytes(), 2 * g.vertex_count() * c.width);
  }
}

TEST(DistanceOracle, UnreachedVertexKeepsTheVertexCountBound) {
  // A unit star of 300 leaves around vertex 0 has B = min(2 * 1, 300):
  // 8-bit rows.  One isolated vertex more and the BFS from vertex 0 no
  // longer reaches every vertex, so B = 1 * 301 and the rows take 16 bits.
  for (const bool isolated : {false, true}) {
    SCOPED_TRACE(isolated ? "with an isolated vertex" : "connected");
    Graph g(isolated ? 302 : 301);
    for (Vertex v = 1; v <= 300; ++v) g.add_edge(0, v, 1.0);
    const auto last = static_cast<Vertex>(g.vertex_count() - 1);
    const std::vector<Vertex> sources = {0, 1, 300, last};
    expect_rows_match_dijkstra(g, sources);
    for (const std::size_t capacity : {g.vertex_count(), std::size_t{2}}) {
      DistanceOracle oracle(g, capacity);  // dense, then LRU
      EXPECT_EQ(oracle.distance(1, 300), 2.0);
      EXPECT_EQ(oracle.distance(0, last), isolated ? kUnreachable : 1.0);
      EXPECT_EQ(oracle.row_bytes(),
                2 * g.vertex_count() *
                    (isolated ? sizeof(std::uint16_t) : sizeof(std::uint8_t)));
    }
  }
}

TEST(DistanceOracle, DisconnectedIntegerGraphIsUnreachable) {
  // Two components and an isolated vertex, integer weights: 8-bit rows
  // (B = 3 * 5).
  Graph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 3.0);
  g.add_edge(3, 4, 1.0);
  for (const std::size_t capacity : {std::size_t{6}, std::size_t{2}}) {
    DistanceOracle oracle(g, capacity);  // dense, then LRU
    EXPECT_EQ(oracle.distance(0, 2), 4.0);
    EXPECT_EQ(oracle.distance(0, 3), kUnreachable);
    EXPECT_EQ(oracle.distance(5, 0), kUnreachable);
    const std::vector<std::pair<Vertex, Vertex>> pairs = {{2, 4}, {3, 4}};
    EXPECT_EQ(oracle.distances(pairs),
              (std::vector<double>{kUnreachable, 1.0}));
    const sim::Latency latency = oracle.latency(50.0);
    EXPECT_EQ(latency(0, 3), 50.0);
    EXPECT_EQ(latency(4, 5), 50.0);
    EXPECT_EQ(latency(2, 0), 4.0);
    EXPECT_EQ(latency(5, 5), 0.0);
  }
}

}  // namespace
}  // namespace p2plb::topo
