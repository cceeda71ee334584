#include "lb/continuous.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace p2plb::lb {

ContinuousLbi::ContinuousLbi(sim::Engine& engine, const chord::Ring& ring,
                             const ktree::MaintenanceProtocol& tree,
                             sim::Time interval, ktree::VsLatencyFn latency,
                             obs::MetricsRegistry* metrics)
    : engine_(engine),
      ring_(ring),
      tree_(tree),
      interval_(interval),
      latency_(std::move(latency)),
      metrics_(metrics) {
  P2PLB_REQUIRE(interval_ > 0.0);
  P2PLB_REQUIRE(latency_ != nullptr);
}

void ContinuousLbi::start() {
  engine_.every(interval_, [this] {
    refresh_all();
    return true;  // runs for the lifetime of the simulation
  });
}

Lbi ContinuousLbi::local_contribution(const ktree::Region& region) const {
  // A leaf instance gathers the LBI of every node whose designated
  // reporting key falls in its region.  (Simulation shortcut: we iterate
  // the node table instead of maintaining per-leaf registration state;
  // the message pattern is identical.)
  Lbi sum;
  for (const chord::NodeIndex i : ring_.live_nodes()) {
    const chord::Node& n = ring_.node(i);
    chord::Key report_key;
    if (n.servers.empty()) {
      report_key = fallback_report_key(i);
    } else {
      report_key = n.servers.front();  // deterministic reporter
    }
    if (!region.contains(report_key)) continue;
    Lbi lbi;
    lbi.load = ring_.node_load(i);
    lbi.capacity = n.capacity;
    if (const auto min = ring_.node_min_server_load(i); min.has_value())
      lbi.min_load = *min;
    sum.merge(lbi);
  }
  return sum;
}

void ContinuousLbi::refresh_all() {
  const std::uint64_t before = messages_;
  // Collect the live instance set, parents before children (larger
  // regions first): each refresh then reads the *previous* interval's
  // child caches, so information climbs exactly one level per interval
  // -- the per-instance independent-timer behaviour of the paper.
  std::vector<std::pair<ktree::Region, chord::Key>> instances;
  tree_.for_each_instance([&](const ktree::Region& r, chord::Key host) {
    instances.emplace_back(r, host);
  });
  std::sort(instances.begin(), instances.end(),
            [](const auto& a, const auto& b) {
              return a.first.len > b.first.len;
            });

  std::map<ktree::Region, Lbi, ktree::RegionOrder> fresh;
  const std::uint32_t degree = tree_.degree();
  for (const auto& [region, host] : instances) {
    // Determine whether this instance currently has child instances.
    bool any_child = false;
    Lbi merged;
    for (std::uint32_t c = 0; c < degree; ++c) {
      const ktree::Region child = region.child(c, degree);
      if (child.len == 0 || !tree_.has_instance(child)) continue;
      any_child = true;
      // Pull the child's cached summary (previous interval's value).
      const auto it = cache_.find(child);
      if (it != cache_.end()) merged.merge(it->second);
      if (latency_(tree_.instance_host(child), host) > 0.0) ++messages_;
    }
    fresh[region] = any_child ? merged : local_contribution(region);
  }
  cache_ = std::move(fresh);
  last_refresh_ = engine_.now();
  if (metrics_ != nullptr) {
    metrics_->counter("clbi.refresh_msgs")
        .add(static_cast<double>(messages_ - before));
    metrics_->gauge("clbi.root_error").set(root_relative_error());
  }
}

Lbi ContinuousLbi::root_estimate() const {
  const auto it = cache_.find(ktree::Region::whole());
  return it == cache_.end() ? Lbi{} : it->second;
}

double ContinuousLbi::root_relative_error() const {
  const Lbi truth = ground_truth_lbi(ring_);
  const Lbi est = root_estimate();
  auto error = [](double a, double b) {
    const double scale = std::max({std::fabs(a), std::fabs(b), 1e-12});
    return std::fabs(a - b) / scale;
  };
  // An empty triple reads its L_min as 0 (a ring with no servers, or a
  // cache that has not converged yet) so the error stays finite.
  const auto finite_min = [](double m) {
    return m == std::numeric_limits<double>::infinity() ? 0.0 : m;
  };
  return std::max({error(est.load, truth.load),
                   error(est.capacity, truth.capacity),
                   error(finite_min(est.min_load), finite_min(truth.min_load))});
}

bool ContinuousLbi::root_is_accurate(double relative_tolerance) const {
  P2PLB_REQUIRE(relative_tolerance >= 0.0);
  return root_relative_error() <= relative_tolerance;
}

}  // namespace p2plb::lb
