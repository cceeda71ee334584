#include "lb/health.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "lb/classify.h"

namespace p2plb::lb {

namespace {

// Every reading is emitted as `health.<gauge>`.
constexpr std::string_view kPrefix = "health.";

/// Approximate depth of a tree instance from its region length: how many
/// K-way splits of the whole space reach a region this small.  Children
/// split with exact integer boundaries, so sibling lengths differ by at
/// most one -- division by `degree` recovers the level exactly for every
/// realistic space size.
std::uint32_t region_depth(std::uint64_t len, std::uint32_t degree) {
  std::uint32_t depth = 0;
  for (std::uint64_t l = chord::kSpaceSize; l > len; l /= degree) ++depth;
  return depth;
}

}  // namespace

HealthProbe::HealthProbe(const chord::Ring& ring, double epsilon)
    : ring_(ring), epsilon_(epsilon) {
  P2PLB_REQUIRE(epsilon_ >= 0.0);
}

void HealthProbe::register_windows(obs::WindowedAggregator& windows) const {
  auto gauge = [&](std::string_view name) {
    return windows.gauge_series(std::string(kPrefix) + std::string(name));
  };
  const obs::SeriesId nodes = gauge("nodes");
  const obs::SeriesId heavy = gauge("heavy_fraction");
  const obs::SeriesId mean_unit = gauge("mean_unit_load");
  const obs::SeriesId max_unit = gauge("max_unit_load");
  const obs::SeriesId p99_unit = gauge("p99_unit_load");
  const obs::SeriesId imbalance = gauge("imbalance");
  const obs::SeriesId gini_unit = gauge("gini_unit_load");
  const obs::SeriesId vs_max = gauge("vs_per_node{q=max}");
  const obs::SeriesId vs_p50 = gauge("vs_per_node{q=p50}");
  const obs::SeriesId vs_p99 = gauge("vs_per_node{q=p99}");
  // The attachments are fixed here: one attached later is not exported.
  const ContinuousLbi* const clbi = clbi_;
  const ktree::MaintenanceProtocol* const tree = tree_;
  obs::SeriesId clbi_error;
  obs::SeriesId clbi_staleness;
  if (clbi != nullptr) {
    clbi_error = gauge("clbi_root_error");
    clbi_staleness = gauge("clbi_staleness");
  }
  obs::SeriesId tree_instances;
  obs::SeriesId tree_depth;
  if (tree != nullptr) {
    tree_instances = gauge("ktree_instances");
    tree_depth = gauge("ktree_depth");
  }
  const obs::ColumnId units =
      windows.column_series(std::string(kPrefix) + "unit_load");
  // The sort buffers live in the probe, so a steady-state boundary
  // reuses them instead of allocating.
  windows.add_boundary_probe([=, this, &windows, sorted = std::vector<double>(),
                              vs_counts = std::vector<double>()](
                                 double boundary) mutable {
    auto record = [&](obs::SeriesId id, double value) {
      windows.record(id, boundary, value);
    };
    const std::vector<chord::NodeIndex> live = ring_.live_nodes();
    record(nodes, static_cast<double>(live.size()));
    const Lbi truth = ground_truth_lbi(ring_);
    const Classification cls = classify_all(ring_, truth, epsilon_);
    record(heavy, cls.heavy_fraction());

    // Unit loads: load_i / ((L / C) * C_i).  With no load (or no
    // capacity) every node is exactly at its share of nothing; report
    // all-zero gauges rather than dividing by zero.  They land in the SoA
    // column (one dense double per node -- the only state that scales
    // with N) and fold into the `health.unit_load` histogram when this
    // bucket closes.
    std::vector<double>& col = windows.column_data(units, live.size());
    const double fair =
        truth.capacity > 0.0 ? truth.load / truth.capacity : 0.0;
    for (std::size_t j = 0; j < live.size(); ++j) {
      const double share = fair * ring_.node(live[j]).capacity;
      col[j] = share > 0.0 ? ring_.node_load(live[j]) / share : 0.0;
    }
    sorted.assign(col.begin(), col.end());
    std::sort(sorted.begin(), sorted.end());
    // The mean accumulates in sorted order, as summarize() does.
    RunningStats unit_stats;
    for (const double u : sorted) unit_stats.add(u);
    record(mean_unit, unit_stats.mean());
    record(max_unit, sorted.empty() ? 0.0 : sorted.back());
    record(p99_unit, percentile_sorted(sorted, 0.99));
    record(imbalance, imbalance_factor(col));
    record(gini_unit, gini_sorted(sorted));

    vs_counts.clear();
    for (const chord::NodeIndex i : live)
      vs_counts.push_back(static_cast<double>(ring_.node(i).servers.size()));
    std::sort(vs_counts.begin(), vs_counts.end());
    record(vs_max, vs_counts.empty() ? 0.0 : vs_counts.back());
    record(vs_p50, percentile_sorted(vs_counts, 0.50));
    record(vs_p99, percentile_sorted(vs_counts, 0.99));

    if (clbi != nullptr) {
      record(clbi_error, clbi->root_relative_error());
      // A bucket can close after a later refresh (the roll runs at the
      // next record); report that as fresh, keeping -1 for "never".
      const sim::Time last = clbi->last_refresh_time();
      record(clbi_staleness,
             last < 0.0 ? -1.0 : std::max(0.0, boundary - last));
    }
    if (tree != nullptr) {
      record(tree_instances, static_cast<double>(tree->instance_count()));
      std::uint32_t height = 0;
      tree->for_each_instance([&](const ktree::Region& r, chord::Key) {
        height = std::max(height, region_depth(r.len, tree->degree()));
      });
      record(tree_depth, static_cast<double>(height));
    }
  });
}

}  // namespace p2plb::lb
