#include "topo/distance_oracle.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <numeric>
#include <thread>

namespace p2plb::topo {

namespace {

/// One row to fill: its source and its slot (all kUnreachable).
using RowJob = std::pair<Vertex, std::vector<double>*>;

/// Run one Dijkstra per job on min(hardware_concurrency, jobs) workers,
/// the calling thread among them.  Each worker claims the next job and
/// owns its heap; rows are disjoint, so workers share nothing else.  A
/// helper's exception (out of memory) is rethrown here once all joined.
void fill_rows(const Graph& graph, std::span<const RowJob> jobs) {
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    RadixHeap heap;
    for (std::size_t j = next++; j < jobs.size(); j = next++)
      shortest_paths_into(graph, jobs[j].first, *jobs[j].second, heap);
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
    : graph_(graph), capacity_(max_cached_sources) {
  P2PLB_REQUIRE(capacity_ >= 1);
  // When every row fits there is nothing to evict: switch to a dense
  // per-vertex table and skip the hash lookup and LRU splice per query
  // (this lookup sits on the per-send latency path of timed rounds).
  if (capacity_ >= graph_.vertex_count())
    dense_.resize(graph_.vertex_count());
}

std::vector<double>& DistanceOracle::slot(Vertex source, bool& fresh) {
  fresh = false;
  if (!dense_.empty()) {
    std::vector<double>& r = dense_[source];
    if (r.empty()) {
      fresh = true;
      ++runs_;
      r.assign(graph_.vertex_count(), kUnreachable);
    }
    return r;
  }
  if (const auto it = index_.find(source); it != index_.end()) {
    rows_.splice(rows_.begin(), rows_, it->second);  // refresh LRU position
    return rows_.front().second;
  }
  fresh = true;
  ++runs_;
  rows_.emplace_front(source,
                      std::vector<double>(graph_.vertex_count(), kUnreachable));
  index_[source] = rows_.begin();
  if (rows_.size() > capacity_) {
    index_.erase(rows_.back().first);
    rows_.pop_back();
  }
  return rows_.front().second;
}

const std::vector<double>& DistanceOracle::row(Vertex source) {
  // The per-send path: a filled dense row is one index and one test.
  if (!dense_.empty() && !dense_[source].empty()) return dense_[source];
  bool fresh = false;
  std::vector<double>& r = slot(source, fresh);
  if (fresh) {
    RadixHeap heap;
    shortest_paths_into(graph_, source, r, heap);
  }
  return r;
}

double DistanceOracle::distance(Vertex from, Vertex to) {
  P2PLB_REQUIRE(from < graph_.vertex_count());
  P2PLB_REQUIRE(to < graph_.vertex_count());
  if (from == to) return 0.0;
  return row(from)[to];
}

std::vector<double> DistanceOracle::distances(
    std::span<const std::pair<Vertex, Vertex>> pairs) {
  for (const auto& [from, to] : pairs) {
    P2PLB_REQUIRE(from < graph_.vertex_count());
    P2PLB_REQUIRE(to < graph_.vertex_count());
  }
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
  // a one-row-at-a-time walk; then its fresh rows are filled in parallel
  // and its pairs answered.  A chunk holds at most `capacity_` sources,
  // so claiming never evicts a row of the same chunk.
  const std::size_t chunk = dense_.empty() ? capacity_ : dense_.size();
  std::vector<const std::vector<double>*> rows;
  std::vector<RowJob> fresh_rows;
  std::size_t k = 0;
  while (k < order.size()) {
    const std::size_t chunk_begin = k;
    rows.clear();
    fresh_rows.clear();
    while (k < order.size() && rows.size() < chunk) {
      const Vertex source = pairs[order[k]].first;
      bool fresh = false;
      std::vector<double>& r = slot(source, fresh);
      if (fresh) fresh_rows.emplace_back(source, &r);
      rows.push_back(&r);
      while (k < order.size() && pairs[order[k]].first == source) ++k;
    }
    fill_rows(graph_, fresh_rows);
    std::size_t g = 0;  // index into `rows` of the current source
    for (std::size_t i = chunk_begin; i < k; ++i) {
      const auto [from, to] = pairs[order[i]];
      if (i > chunk_begin && from != pairs[order[i - 1]].first) ++g;
      out[order[i]] = to == from ? 0.0 : (*rows[g])[to];
    }
  }
  return out;
}

sim::Latency DistanceOracle::latency(double unreachable) {
  // A latency is a delay the engine schedules after: infinity (or NaN)
  // would be a firing time the engine rejects at the first such send.
  P2PLB_REQUIRE(std::isfinite(unreachable) && unreachable >= 0.0);
  unreachable_latency_ = unreachable;
  return sim::Latency{this, [](void* ctx, sim::Endpoint from,
                               sim::Endpoint to) -> sim::Time {
    if (from == to) return 0.0;
    auto& oracle = *static_cast<DistanceOracle*>(ctx);
    const double d = oracle.distance(from, to);
    return d == kUnreachable ? oracle.unreachable_latency_ : d;
  }};
}

}  // namespace p2plb::topo
