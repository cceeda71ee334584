#include "topo/distance_oracle.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <concepts>
#include <future>
#include <limits>
#include <numeric>
#include <thread>
#include <type_traits>

namespace p2plb::topo {

namespace {

/// An integer row's unreachable entry: its type's maximum, which no
/// distance reaches (see the width rule in the header).
template <typename T>
constexpr T kUnreached = std::numeric_limits<T>::max();

/// The width rule: bytes per row entry, 1 or 2 when every weight is an
/// integer and B, max_weight times the edges a shortest path may need, is
/// below that width's kUnreached; else 8.
std::uint8_t row_width(const Graph& graph) {
  const std::size_t n = graph.vertex_count();
  double max_weight = 0.0;
  for (Vertex v = 0; v < n; ++v)
    for (const HalfEdge& e : graph.neighbors(v)) {
      if (e.weight != std::floor(e.weight)) return sizeof(double);
      max_weight = std::max(max_weight, e.weight);
    }
  if (n < 2) return sizeof(std::uint8_t);
  // A shortest path has at most n - 1 edges.  If vertex 0 reaches every
  // vertex within `ecc` hops, the path through vertex 0 bounds every pair
  // by 2 * ecc edges.  (Past 0x10000 vertices a target would not fit a
  // flat half-edge; there n - 1 alone rules out integer rows unless the
  // graph has no edge at all.)
  std::size_t edges = n - 1;
  if (n <= 0x10000) {
    const std::vector<std::uint32_t> hops = bfs_hops(graph, 0);
    const std::uint32_t ecc = *std::max_element(hops.begin(), hops.end());
    if (ecc != std::numeric_limits<std::uint32_t>::max())
      edges = std::min<std::size_t>(edges, 2 * std::size_t{ecc});
  }
  const double bound = max_weight * static_cast<double>(edges);
  if (bound < kUnreached<std::uint8_t>) return sizeof(std::uint8_t);
  if (bound < kUnreached<std::uint16_t>) return sizeof(std::uint16_t);
  return sizeof(double);
}

/// `graph` as flat arrays.  Requires integer rows under the width rule:
/// every weight is an integer in [1, 0xFFFF) and every vertex with an
/// edge is below 0x10000.
DistanceOracle::FlatAdjacency flatten(const Graph& graph) {
  DistanceOracle::FlatAdjacency adj;
  const std::size_t n = graph.vertex_count();
  adj.offsets.reserve(n + 1);
  adj.edges.reserve(2 * graph.edge_count());
  std::uint32_t max_weight = 0;
  for (Vertex v = 0; v < n; ++v) {
    adj.offsets.push_back(static_cast<std::uint32_t>(adj.edges.size()));
    for (const HalfEdge& e : graph.neighbors(v)) {
      const auto w = static_cast<std::uint32_t>(e.weight);
      adj.edges.push_back(e.to << 16 | w);
      max_weight = std::max(max_weight, w);
    }
  }
  adj.offsets.push_back(static_cast<std::uint32_t>(adj.edges.size()));
  adj.mask = std::bit_ceil(max_weight + 1) - 1;
  return adj;
}

/// An integer entry (or a double one) as the distance.  Exact under the
/// width rule.
template <std::unsigned_integral T>
double widen(T d) noexcept {
  return d == kUnreached<T> ? kUnreachable : d;
}
double widen(double d) noexcept { return d; }

/// One worker's reusable queue: Dial's bucket ring for integer rows, the
/// radix heap for double rows.
struct Scratch {
  std::vector<std::vector<Vertex>> buckets;
  RadixHeap heap;
};

/// Dial's algorithm: Dijkstra over integer weights with a ring of
/// mask + 1 buckets, where bucket d & mask holds the vertices labelled d.
/// Every weight w is in [1, mask], so a relaxation from distance d lands
/// d + w in another bucket than d's, less than one lap ahead: the bucket
/// being scanned never grows, and a label never shares a bucket with a
/// larger one.  Labels are formed in uint32, so one at or past
/// kUnreached<T> never beats an entry (none is larger) instead of
/// wrapping, and every true distance is below it (width rule): `dist`
/// ends exact, with kUnreached<T> left on unreachable vertices.
template <typename T>
void dial_row(const DistanceOracle::FlatAdjacency& adj, Vertex source,
              T* dist, std::vector<std::vector<Vertex>>& buckets) {
  const std::uint32_t mask = adj.mask;
  buckets.resize(mask + 1);
  std::fill(dist, dist + (adj.offsets.size() - 1), kUnreached<T>);
  const std::uint32_t* const offsets = adj.offsets.data();
  const std::uint32_t* const edges = adj.edges.data();
  dist[source] = 0;
  buckets[0].push_back(source);
  std::size_t queued = 1;  // entries in the ring, stale ones included
  for (std::uint32_t d = 0; queued > 0; ++d) {
    std::vector<Vertex>& bucket = buckets[d & mask];
    queued -= bucket.size();
    for (const Vertex v : bucket) {
      if (dist[v] != d) continue;  // stale: v settled below d
      for (std::uint32_t e = offsets[v]; e < offsets[v + 1]; ++e) {
        const std::uint32_t edge = edges[e];
        const std::uint32_t nd = d + (edge & 0xFFFF);
        const Vertex u = edge >> 16;
        if (nd < dist[u]) {
          dist[u] = static_cast<T>(nd);
          buckets[nd & mask].push_back(u);
          ++queued;
        }
      }
    }
    bucket.clear();
  }
}

/// Fill `row` (vertex_count entries) with the distances from `source`.
template <typename T>
void fill_row(const Graph& graph, const DistanceOracle::FlatAdjacency& adj,
              Vertex source, T* row, Scratch& scratch) {
  if constexpr (std::is_same_v<T, double>) {
    const std::span<double> dist(row, graph.vertex_count());
    std::fill(dist.begin(), dist.end(), kUnreachable);
    shortest_paths_into(graph, source, dist, scratch.heap);
  } else {
    dial_row(adj, source, row, scratch.buckets);
  }
}

}  // namespace

DistanceOracle::DistanceOracle(const Graph& graph,
                               std::size_t max_cached_sources)
    : graph_(graph),
      vertex_count_(graph.vertex_count()),
      capacity_(max_cached_sources) {
  P2PLB_REQUIRE(capacity_ >= 1);
}

template <typename F>
decltype(auto) DistanceOracle::with_row_type(F&& f) {
  if (width_ == 0) prepare();
  switch (width_) {
    case sizeof(std::uint8_t):
      return f(std::uint8_t{});
    case sizeof(std::uint16_t):
      return f(std::uint16_t{});
    default:
      return f(double{});
  }
}

void DistanceOracle::prepare() {
  width_ = row_width(graph_);
  // Built here, with the width, so its cost is part of the first fill
  // (and an oracle that is never used skips it).
  if (width_ != sizeof(double)) adjacency_ = flatten(graph_);
  // When every row fits there is nothing to evict: switch to the dense
  // table and skip the hash lookup and LRU splice per query (this lookup
  // sits on the per-send latency path of timed rounds).  The table is
  // left uninitialised, so its pages become resident only as rows fill.
  if (capacity_ >= vertex_count_)
    with_row_type([this](auto zero) {
      Rows<decltype(zero)>& cache = rows<decltype(zero)>();
      cache.table = std::make_unique_for_overwrite<decltype(zero)[]>(
          vertex_count_ * vertex_count_);
      cache.filled.assign(vertex_count_, 0);
    });
}

template <typename T>
bool DistanceOracle::claim(Vertex source, RowJob<T>& job) {
  Rows<T>& cache = rows<T>();
  job.source = source;
  if (cache.table != nullptr) {
    job.row = cache.table.get() + source * vertex_count_;
    return cache.filled[source] == 0;
  }
  if (const auto it = cache.index.find(source); it != cache.index.end()) {
    cache.lru.splice(cache.lru.begin(), cache.lru, it->second);  // refresh
  } else {
    cache.lru.emplace_front(source, std::vector<T>{});
    cache.index[source] = cache.lru.begin();
    if (cache.lru.size() > capacity_) {
      cache.index.erase(cache.lru.back().first);
      cache.lru.pop_back();
    }
  }
  job.lru_row = &cache.lru.front().second;
  return job.lru_row->empty();
}

template <typename T>
void DistanceOracle::fill(std::span<const RowJob<T>> jobs) {
  if (jobs.empty()) return;
  // min(hardware_concurrency, jobs) workers, the calling thread among
  // them.  Each claims the next job and owns its scratch; rows are
  // disjoint, so workers share nothing else.  A helper's exception (out
  // of memory) is rethrown here once all joined.
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    Scratch scratch;
    for (std::size_t j = next++; j < jobs.size(); j = next++) {
      const RowJob<T>& job = jobs[j];
      T* out = job.row;
      if (out == nullptr) {
        job.lru_row->resize(vertex_count_);
        out = job.lru_row->data();
      }
      fill_row(graph_, adjacency_, job.source, out, scratch);
    }
  };
  // A lone row (a lazy fill) skips the hardware_concurrency query.
  const std::size_t workers =
      jobs.size() == 1
          ? 1
          : std::min<std::size_t>(
                std::max(1u, std::thread::hardware_concurrency()),
                jobs.size());
  {
    // Declared after `next`: futures from std::async join on destruction,
    // so no helper outlives the state it reads, even when work() throws.
    std::vector<std::future<void>> helpers;
    for (std::size_t w = 1; w < workers; ++w)
      helpers.push_back(std::async(std::launch::async, work));
    work();
    for (std::future<void>& helper : helpers) helper.get();
  }
  Rows<T>& cache = rows<T>();
  for (const RowJob<T>& job : jobs)
    if (job.row != nullptr) cache.filled[job.source] = 1;
  runs_ += jobs.size();
}

template <typename T>
const T* DistanceOracle::row(Vertex source) {
  RowJob<T> job;
  if (claim<T>(source, job)) fill<T>(std::span<const RowJob<T>>(&job, 1));
  return job.data();
}

template <typename T>
double DistanceOracle::distance_as(Vertex from, Vertex to) {
  P2PLB_REQUIRE(from < vertex_count_);
  P2PLB_REQUIRE(to < vertex_count_);
  if (from == to) return 0.0;
  // The per-send path: a filled dense row is one flag test and one read.
  const Rows<T>& cache = rows<T>();
  return widen(cache.table != nullptr && cache.filled[from] != 0
                   ? cache.table[from * vertex_count_ + to]
                   : row<T>(from)[to]);
}

double DistanceOracle::distance(Vertex from, Vertex to) {
  return with_row_type([&](auto zero) {
    return distance_as<decltype(zero)>(from, to);
  });
}

std::vector<double> DistanceOracle::distances(
    std::span<const std::pair<Vertex, Vertex>> pairs) {
  for (const auto& [from, to] : pairs) {
    P2PLB_REQUIRE(from < vertex_count_);
    P2PLB_REQUIRE(to < vertex_count_);
  }
  return with_row_type(
      [&](auto zero) { return distances_as<decltype(zero)>(pairs); });
}

template <typename T>
std::vector<double> DistanceOracle::distances_as(
    std::span<const std::pair<Vertex, Vertex>> pairs) {
  std::vector<double> out(pairs.size());
  // Group query indices by source: one run per distinct source even when
  // the cache cannot hold all rows.
  std::vector<std::size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pairs[a].first < pairs[b].first;
  });
  // Walk the sources in ascending order a chunk at a time.  Claiming a
  // chunk's rows in order does the LRU bookkeeping of a one-row-at-a-time
  // walk; then its missing rows are filled in parallel and its pairs
  // answered.  A chunk holds at most `capacity_` sources, so claiming
  // never evicts a row of the same chunk.
  const std::size_t chunk = std::min(capacity_, vertex_count_);
  std::vector<RowJob<T>> chunk_rows;  // one per source of the chunk
  std::vector<RowJob<T>> fresh_rows;  // the ones still to fill
  std::size_t k = 0;
  while (k < order.size()) {
    const std::size_t chunk_begin = k;
    chunk_rows.clear();
    fresh_rows.clear();
    while (k < order.size() && chunk_rows.size() < chunk) {
      const Vertex source = pairs[order[k]].first;
      RowJob<T>& job = chunk_rows.emplace_back();
      if (claim<T>(source, job)) fresh_rows.push_back(job);
      while (k < order.size() && pairs[order[k]].first == source) ++k;
    }
    fill<T>(fresh_rows);
    std::size_t g = 0;  // index into `chunk_rows` of the current source
    for (std::size_t i = chunk_begin; i < k; ++i) {
      const auto [from, to] = pairs[order[i]];
      if (i > chunk_begin && from != pairs[order[i - 1]].first) ++g;
      out[order[i]] = to == from ? 0.0 : widen(chunk_rows[g].data()[to]);
    }
  }
  return out;
}

std::size_t DistanceOracle::row_bytes() const noexcept {
  std::size_t total = 0;
  const auto add = [&](const auto& cache) {
    const std::size_t width = sizeof(cache.table[0]);
    total += width * vertex_count_ *
             static_cast<std::size_t>(
                 std::count(cache.filled.begin(), cache.filled.end(), 1));
    for (const auto& entry : cache.lru)
      total += entry.second.capacity() * width;
  };
  std::apply([&](const auto&... cache) { (add(cache), ...); }, rows_);
  return total;
}

template <typename T>
sim::Time DistanceOracle::hop(void* ctx, sim::Endpoint from,
                              sim::Endpoint to) {
  auto& oracle = *static_cast<DistanceOracle*>(ctx);
  const double d = oracle.distance_as<T>(from, to);
  return d == kUnreachable ? oracle.unreachable_latency_ : d;
}

sim::Latency DistanceOracle::latency(double unreachable) {
  // A latency is a delay the engine schedules after: infinity (or NaN)
  // would be a firing time the engine rejects at the first such send.
  P2PLB_REQUIRE(std::isfinite(unreachable) && unreachable >= 0.0);
  unreachable_latency_ = unreachable;
  return sim::Latency{
      this, with_row_type([](auto zero) { return &hop<decltype(zero)>; })};
}

}  // namespace p2plb::topo
