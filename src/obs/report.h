// Experiment reports from recorded time series + end-of-run totals.
//
// tools/p2plb_report's engine: given the series a run exported (closed
// window buckets plus event markers, see obs/timeseries.h) and optionally
// the end-of-run totals (the `--metrics` file, same CSV schema),
// analyze() folds the series into per-series statistics and
// per-disturbance re-convergence measurements, and
// write_markdown_report() renders the whole thing as a self-contained
// Markdown document -- series overview, convergence under churn,
// before/after health gauges and traffic totals.  Everything is computed from the files alone so a
// report can be (re)generated long after the run, in CI or locally.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/alert.h"
#include "obs/timeseries.h"

namespace p2plb::obs {

/// What to analyze and how to title it.
struct ReportOptions {
  std::string title = "Experiment report";
  /// The health series whose re-convergence is measured per event.
  std::string target_metric = "health.heavy_fraction";
  /// Disturbance markers: every sample of this metric is an event (its
  /// value records the magnitude, e.g. crashed-node count).
  std::string event_metric = "event.crash";
};

/// Per-series descriptive statistics (samples in time order).
struct SeriesStats {
  std::string key;
  std::size_t count = 0;
  double first = 0.0;
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// One disturbance and the target series' recovery from it.
struct EventRecovery {
  double magnitude = 0.0;  ///< the event sample's value
  Reconvergence reconvergence;
};

/// The analyzed run.
struct ExperimentReport {
  std::vector<SeriesStats> series;   ///< one per distinct key, sorted
  std::vector<EventRecovery> events; ///< one per event sample, in order
};

/// Fold a sample set into the report structure.  Throws PreconditionError
/// on an empty sample set.
[[nodiscard]] ExperimentReport analyze(const std::vector<Sample>& samples,
                                       const ReportOptions& options = {});

/// Render the full Markdown report.  `totals` are the end-of-run rows
/// (the `--metrics` file, loaded with load_series_file; pass none when
/// there is no such file and the traffic section is omitted).  The
/// traffic table lists the `net.*` keys, sorted, each at its last value.
void write_markdown_report(std::ostream& os, const std::vector<Sample>& samples,
                           const std::vector<Sample>& totals,
                           const ReportOptions& options = {});

/// Render the "Alert timeline" Markdown section from a p2plb-alerts-1
/// export: every fire/resolve transition, then per-rule episodes (fire
/// paired with its resolve) whose durations line up with the
/// re-convergence measurements in the main report.
void write_alert_timeline(std::ostream& os,
                          const std::vector<AlertEvent>& alerts);

}  // namespace p2plb::obs
