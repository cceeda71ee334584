// Time-series samples over simulated time.
//
// The end-of-run totals answer "how much, in total"; the tracer answers
// "what happened, when".  What neither can answer is "how did the system
// *state* evolve": imbalance trajectories under churn, re-convergence
// after a crash burst -- the curves the paper's Section 3.2 resilience
// claim and Section 5 results are really about.  A series is a plain
// vector of (sim_time, metric, value) samples.  record_series() fills it
// from the online windowed-metrics plane: one row per series per closed
// bucket, stamped with the bucket's end time, so a series is a dump of
// closed window buckets (lb::HealthProbe::register_windows supplies the
// health gauges).  Drivers may append marker rows (`event.crash`) at
// their exact time.  The end-of-run totals are Sample rows too, stamped
// with the end time (sim::Engine::export_metrics and
// sim::Network::export_metrics append them; `--metrics` writes them), so
// every sim-time file has one CSV schema.  The writer exports CSV, and
// the loader reads the file back so tools/p2plb_report (and the golden
// tests) can compute convergence times from a finished run.
//
// Like the rest of obs, series are deterministic: rows are stored in
// append order, timestamps come from the caller in sim::Time units, and
// the exporter uses the codebase's canonical number formatting -- a
// (seed, scenario) pair always produces the identical series file.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/window.h"

namespace p2plb::obs {

/// One reading: metric `key` (`name`, or `name{label=value,...}` for a
/// labelled series) had `value` at simulated time `t`.
struct Sample {
  double t = 0.0;
  std::string key;
  double value = 0.0;

  [[nodiscard]] bool operator==(const Sample&) const = default;
};

/// Append `windows`' closed buckets to `samples`: adds a boundary hook
/// that, at every closed bucket, appends one row per series stamped with
/// the boundary time, in series-registration order -- a counter's bucket
/// sum, a gauge's last reading (no row when the bucket has none).
/// Histogram series are not exported.  Both must outlive the hook.
void record_series(WindowedAggregator& windows, std::vector<Sample>& samples);

/// CSV export: header "time,metric,value", one sample per row, RFC 4180
/// quoting (metric keys may contain commas via labels).
void write_series_csv(std::ostream& os, const std::vector<Sample>& samples);

/// write_series_csv to `path`, whatever its suffix.  Throws
/// PreconditionError on an unwritable path.
void write_series_file(const std::vector<Sample>& samples,
                       const std::string& path);

/// Parse a series back from its CSV form (the exact inverse of
/// write_series_csv).  Malformed input -- including a file that does not
/// start with the CSV header -- throws PreconditionError.
[[nodiscard]] std::vector<Sample> load_series_csv(std::istream& is);
/// load_series_csv over a file, whatever its suffix.
[[nodiscard]] std::vector<Sample> load_series_file(const std::string& path);

/// The distinct metric keys of a sample set, sorted.
[[nodiscard]] std::vector<std::string> series_keys(
    const std::vector<Sample>& samples);

/// One metric's (t, value) points in sample order.
[[nodiscard]] std::vector<std::pair<double, double>> extract_series(
    const std::vector<Sample>& samples, std::string_view key);

/// Re-convergence of a health series after a disturbance at `event_time`
/// (e.g. the heavy-node fraction after a crash burst).
struct Reconvergence {
  /// True iff the series returned to (<=) its pre-event level.
  bool converged = false;
  /// Time from the event to the first at-or-below-baseline sample
  /// (meaningful only when converged).
  double time = 0.0;
  /// The pre-event level: the last sample strictly before event_time.  A
  /// sample at exactly event_time is excluded from both sides: a bucket
  /// closing at the disturbance instant may already carry the spike.
  double baseline = 0.0;
  /// Worst post-event value seen up to re-convergence (or up to the end
  /// of the series when it never re-converges).
  double peak = 0.0;
  double event_time = 0.0;
};

/// Measure re-convergence of one extracted series (points in time order)
/// around a disturbance at `event_time`.  A series with no pre-event or
/// no post-event samples reports converged = false (with no pre-event
/// sample there is no level to return to; baseline and peak stay 0).
[[nodiscard]] Reconvergence measure_reconvergence(
    const std::vector<std::pair<double, double>>& points, double event_time);

}  // namespace p2plb::obs
