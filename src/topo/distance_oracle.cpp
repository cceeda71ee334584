#include "topo/distance_oracle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <numeric>
#include <thread>
#include <type_traits>

namespace p2plb::topo {

namespace {

/// A 16-bit row's unreachable entry (no distance reaches it, see the
/// width rule in the header).
constexpr std::uint16_t kNarrowUnreachable = 0xFFFF;

/// The width rule: 16-bit rows iff every weight is an integer and
/// max_weight * (vertex_count - 1), a bound on every shortest path, is
/// below kNarrowUnreachable.
bool fits_narrow(const Graph& graph) {
  const std::size_t n = graph.vertex_count();
  double max_weight = 0.0;
  for (Vertex v = 0; v < n; ++v)
    for (const HalfEdge& e : graph.neighbors(v)) {
      if (e.weight != std::floor(e.weight)) return false;
      max_weight = std::max(max_weight, e.weight);
    }
  return n < 2 ||
         max_weight * static_cast<double>(n - 1) < kNarrowUnreachable;
}

/// A Dijkstra distance as a 16-bit entry, and an entry (of either width)
/// as the distance.  Exact under the width rule.
std::uint16_t narrow(double d) noexcept {
  return d == kUnreachable ? kNarrowUnreachable : static_cast<std::uint16_t>(d);
}
double widen(std::uint16_t d) noexcept {
  return d == kNarrowUnreachable ? kUnreachable : d;
}
double widen(double d) noexcept { return d; }

/// One worker's reusable scratch: its Dijkstra heap and the double row a
/// 16-bit row is narrowed from.
struct Scratch {
  RadixHeap heap;
  std::vector<double> dist;
};

/// Dijkstra from `source` into `out` (empty on entry), allocating it.  A
/// double row is the Dijkstra row itself; a 16-bit row is narrowed from
/// `scratch.dist`, exactly (see the header).
template <typename T>
void fill_row(const Graph& graph, Vertex source, std::vector<T>& out,
              Scratch& scratch) {
  if constexpr (std::is_same_v<T, double>) {
    out.assign(graph.vertex_count(), kUnreachable);
    shortest_paths_into(graph, source, out, scratch.heap);
  } else {
    scratch.dist.assign(graph.vertex_count(), kUnreachable);
    shortest_paths_into(graph, source, scratch.dist, scratch.heap);
    out.resize(scratch.dist.size());
    std::transform(scratch.dist.begin(), scratch.dist.end(), out.begin(),
                   narrow);
  }
}

/// One row to fill: its source and its slot (empty).
template <typename T>
using RowJob = std::pair<Vertex, std::vector<T>*>;

/// Run one Dijkstra per job on min(hardware_concurrency, jobs) workers,
/// the calling thread among them.  Each worker claims the next job and
/// owns its scratch; rows are disjoint, so workers share nothing else.  A
/// helper's exception (out of memory) is rethrown here once all joined.
template <typename T>
void fill_rows(const Graph& graph, std::span<const RowJob<T>> jobs) {
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    Scratch scratch;
    for (std::size_t j = next++; j < jobs.size(); j = next++)
      fill_row(graph, jobs[j].first, *jobs[j].second, scratch);
  };
  const std::size_t workers = std::min<std::size_t>(
      std::max(1u, std::thread::hardware_concurrency()), jobs.size());
  // Declared after `next`: futures from std::async join on destruction,
  // so no helper outlives the state it reads, even when work() throws.
  std::vector<std::future<void>> helpers;
  for (std::size_t w = 1; w < workers; ++w)
    helpers.push_back(std::async(std::launch::async, work));
  work();
  for (std::future<void>& helper : helpers) helper.get();
}

}  // namespace

DistanceOracle::DistanceOracle(const Graph& graph,
                               std::size_t max_cached_sources)
    : graph_(graph),
      capacity_(max_cached_sources),
      narrow_(fits_narrow(graph)) {
  P2PLB_REQUIRE(capacity_ >= 1);
  // When every row fits there is nothing to evict: switch to a dense
  // per-vertex table and skip the hash lookup and LRU splice per query
  // (this lookup sits on the per-send latency path of timed rounds).
  if (capacity_ >= graph_.vertex_count()) {
    if (narrow_)
      narrow_rows_.dense.resize(graph_.vertex_count());
    else
      wide_rows_.dense.resize(graph_.vertex_count());
  }
}

template <typename T>
DistanceOracle::Rows<T>& DistanceOracle::rows() noexcept {
  if constexpr (std::is_same_v<T, double>)
    return wide_rows_;
  else
    return narrow_rows_;
}

template <typename T>
std::vector<T>& DistanceOracle::slot(Vertex source, bool& fresh) {
  Rows<T>& cache = rows<T>();
  std::vector<T>* r = nullptr;
  if (!cache.dense.empty()) {
    r = &cache.dense[source];
  } else if (const auto it = cache.index.find(source);
             it != cache.index.end()) {
    cache.lru.splice(cache.lru.begin(), cache.lru, it->second);  // refresh
    r = &cache.lru.front().second;
  } else {
    cache.lru.emplace_front(source, std::vector<T>{});
    cache.index[source] = cache.lru.begin();
    if (cache.lru.size() > capacity_) {
      cache.index.erase(cache.lru.back().first);
      cache.lru.pop_back();
    }
    r = &cache.lru.front().second;
  }
  fresh = r->empty();
  if (fresh) ++runs_;
  return *r;
}

template <typename T>
const std::vector<T>& DistanceOracle::row(Vertex source) {
  Rows<T>& cache = rows<T>();
  // The per-send path: a filled dense row is one index and one test.
  if (!cache.dense.empty() && !cache.dense[source].empty())
    return cache.dense[source];
  bool fresh = false;
  std::vector<T>& r = slot<T>(source, fresh);
  if (fresh) {
    Scratch scratch;
    fill_row(graph_, source, r, scratch);
  }
  return r;
}

template <typename T>
double DistanceOracle::distance_as(Vertex from, Vertex to) {
  P2PLB_REQUIRE(from < graph_.vertex_count());
  P2PLB_REQUIRE(to < graph_.vertex_count());
  if (from == to) return 0.0;
  return widen(row<T>(from)[to]);
}

double DistanceOracle::distance(Vertex from, Vertex to) {
  return narrow_ ? distance_as<std::uint16_t>(from, to)
                 : distance_as<double>(from, to);
}

std::vector<double> DistanceOracle::distances(
    std::span<const std::pair<Vertex, Vertex>> pairs) {
  for (const auto& [from, to] : pairs) {
    P2PLB_REQUIRE(from < graph_.vertex_count());
    P2PLB_REQUIRE(to < graph_.vertex_count());
  }
  return narrow_ ? distances_as<std::uint16_t>(pairs)
                 : distances_as<double>(pairs);
}

template <typename T>
std::vector<double> DistanceOracle::distances_as(
    std::span<const std::pair<Vertex, Vertex>> pairs) {
  std::vector<double> out(pairs.size());
  // Group query indices by source: one Dijkstra per distinct source even
  // when the cache cannot hold all rows.
  std::vector<std::size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pairs[a].first < pairs[b].first;
  });
  // Walk the sources in ascending order a chunk at a time.  Claiming a
  // chunk's slots in order does the LRU bookkeeping and run counting of
  // a one-row-at-a-time walk; then its fresh rows are allocated and
  // filled in parallel and its pairs answered.  A chunk holds at most
  // `capacity_` sources, so claiming never evicts a row of the same chunk.
  const Rows<T>& cache = rows<T>();
  const std::size_t chunk =
      cache.dense.empty() ? capacity_ : cache.dense.size();
  std::vector<const std::vector<T>*> chunk_rows;
  std::vector<RowJob<T>> fresh_rows;
  std::size_t k = 0;
  while (k < order.size()) {
    const std::size_t chunk_begin = k;
    chunk_rows.clear();
    fresh_rows.clear();
    while (k < order.size() && chunk_rows.size() < chunk) {
      const Vertex source = pairs[order[k]].first;
      bool fresh = false;
      std::vector<T>& r = slot<T>(source, fresh);
      if (fresh) fresh_rows.emplace_back(source, &r);
      chunk_rows.push_back(&r);
      while (k < order.size() && pairs[order[k]].first == source) ++k;
    }
    fill_rows<T>(graph_, fresh_rows);
    std::size_t g = 0;  // index into `chunk_rows` of the current source
    for (std::size_t i = chunk_begin; i < k; ++i) {
      const auto [from, to] = pairs[order[i]];
      if (i > chunk_begin && from != pairs[order[i - 1]].first) ++g;
      out[order[i]] = to == from ? 0.0 : widen((*chunk_rows[g])[to]);
    }
  }
  return out;
}

std::size_t DistanceOracle::row_bytes() const noexcept {
  std::size_t total = 0;
  const auto add = [&total](const auto& cache) {
    for (const auto& r : cache.dense)
      total += r.capacity() * sizeof(r.data()[0]);
    for (const auto& entry : cache.lru)
      total += entry.second.capacity() * sizeof(entry.second.data()[0]);
  };
  add(narrow_rows_);
  add(wide_rows_);
  return total;
}

template <typename T>
sim::Time DistanceOracle::hop(void* ctx, sim::Endpoint from,
                              sim::Endpoint to) {
  if (from == to) return 0.0;
  auto& oracle = *static_cast<DistanceOracle*>(ctx);
  const double d = oracle.distance_as<T>(from, to);
  return d == kUnreachable ? oracle.unreachable_latency_ : d;
}

sim::Latency DistanceOracle::latency(double unreachable) {
  // A latency is a delay the engine schedules after: infinity (or NaN)
  // would be a firing time the engine rejects at the first such send.
  P2PLB_REQUIRE(std::isfinite(unreachable) && unreachable >= 0.0);
  unreachable_latency_ = unreachable;
  return sim::Latency{this, narrow_ ? &hop<std::uint16_t> : &hop<double>};
}

}  // namespace p2plb::topo
