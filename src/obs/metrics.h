// Unified metrics registry: named, label-aware counters, gauges and
// histograms shared by every layer of the stack.
//
// Protocols publish their outcomes here (lb::ProtocolRound's lb.* round
// counters), and layers that keep their own tallies export them on
// request as gauges (sim::Engine::export_metrics,
// sim::Network::export_metrics).  The registry is deterministic by
// construction -- metrics are stored in canonical-key order, so snapshots
// and exports are stable across runs for golden tests.
//
// Handles returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime: resolve once, update on the hot path without a
// lookup.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace p2plb {
class Table;
}

namespace p2plb::obs {

/// Metric labels: (key, value) pairs.  Canonicalized (sorted by key) when
/// forming the metric's identity, so label order at the call site never
/// matters.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing total.
class Counter {
 public:
  void increment() noexcept { value_ += 1.0; }
  /// Add a non-negative delta.
  void add(double delta);
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// A value that can move both ways (queue depths, live-node counts, ...).
class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double delta) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// A weighted distribution metric over fixed bin edges, with quantile
/// export (see Histogram::quantile).
class HistogramMetric {
 public:
  explicit HistogramMetric(std::vector<double> edges)
      : histogram_(std::move(edges)) {}

  void observe(double x, double weight = 1.0) {
    ++samples_;
    histogram_.add(x, weight);
  }

  [[nodiscard]] std::uint64_t samples() const noexcept { return samples_; }
  [[nodiscard]] double total_weight() const noexcept {
    return histogram_.total();
  }
  [[nodiscard]] const Histogram& histogram() const noexcept {
    return histogram_;
  }
  [[nodiscard]] double quantile(double q) const {
    return histogram_.quantile(q);
  }

 private:
  Histogram histogram_;
  std::uint64_t samples_ = 0;
};

/// A point-in-time reading of every scalar the registry holds (counters,
/// gauges, and each histogram's sample count / total weight), keyed by
/// canonical metric key.  diff() turns two snapshots into per-metric
/// deltas -- how phase- or interval-scoped accounting is derived from
/// cumulative totals.
struct MetricsSnapshot {
  std::map<std::string, double> values;

  /// Value for a canonical key (0 when absent -- absent means "metric did
  /// not exist yet", which reads as zero everywhere in this codebase).
  [[nodiscard]] double value(std::string_view key) const;

  /// Per-key `this - earlier` over the keys of *this* snapshot.  A key
  /// absent from `earlier` counts as 0 there.
  [[nodiscard]] MetricsSnapshot diff(const MetricsSnapshot& earlier) const;
};

/// The registry itself.  Deterministic iteration order (canonical keys);
/// all handles remain valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create.  `name` must be non-empty; repeated calls with the
  /// same (name, labels) return the same object.
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  /// `edges` is used only on first creation (see Histogram's edge rules).
  HistogramMetric& histogram(std::string_view name, std::vector<double> edges,
                             const Labels& labels = {});

  /// Lookup without creating (nullptr when the metric does not exist).
  [[nodiscard]] const Counter* find_counter(std::string_view name,
                                            const Labels& labels = {}) const;

  /// Remove the metric with this identity (whatever its type).  Returns
  /// true when something was removed.  Any handle previously returned
  /// for the removed metric is invalidated -- callers that cache
  /// handles must not remove metrics they still hold handles to.  Later
  /// snapshots simply omit the key, so a diff() across the removal never
  /// sees it (diff iterates the newer snapshot's keys).
  bool remove(std::string_view name, const Labels& labels = {});

  [[nodiscard]] std::size_t size() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Two-column ("metric", "value") table of everything the registry
  /// holds; histograms expand to count / weight / p50 / p90 / p99 rows.
  [[nodiscard]] Table to_table() const;
  /// to_table() rendered as CSV.
  void write_csv(std::ostream& os) const;

  /// Canonical identity: `name` alone, or `name{k1=v1,k2=v2}` with label
  /// keys sorted.  This is the key used by snapshots and exports.
  [[nodiscard]] static std::string key_of(std::string_view name,
                                          const Labels& labels);

 private:
  // node-based maps: value addresses are stable across inserts.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, HistogramMetric> histograms_;
};

/// write_csv to `path`, whatever its suffix.  Throws PreconditionError
/// on an unwritable path.
void write_metrics_file(const MetricsRegistry& registry,
                        const std::string& path);

}  // namespace p2plb::obs
