// p2plb_report -- experiment reports from recorded runs.
//
// Reads the CSV time series a run exported (`--series`: its closed
// window buckets plus event markers) plus optionally the end-of-run
// totals (`--metrics`, the same time,metric,value CSV), and writes a
// self-contained Markdown report: series overview, re-convergence after
// each recorded disturbance, before/after health gauges and the net.*
// traffic totals.
//
//   $ churn_simulation --windows 10 --series series.csv
//   $ p2plb_report --series series.csv --out report.md
//   $ p2plb_sim --windows 5 --series s.csv --metrics m.csv
//   $ p2plb_report --series s.csv --metrics m.csv --out report.md
//   $ p2plb_report --series s.csv --alerts alerts.csv --out report.md
//
// Exits non-zero (with a diagnostic on stderr) on missing, empty or
// malformed input, so CI can gate on it.
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/cli.h"
#include "common/error.h"
#include "obs/report.h"
#include "obs/timeseries.h"

namespace {

using namespace p2plb;

int run(const Cli& cli) {
  const std::string series_path = cli.get_string("series");
  if (series_path.empty()) {
    std::cerr << "p2plb_report: --series is required\n";
    return 1;
  }
  const std::vector<obs::Sample> samples = obs::load_series_file(series_path);
  if (samples.empty()) {
    std::cerr << "p2plb_report: " << series_path << " holds no samples\n";
    return 1;
  }

  std::vector<obs::Sample> totals;
  const std::string metrics_path = cli.get_string("metrics");
  if (!metrics_path.empty()) totals = obs::load_series_file(metrics_path);

  obs::ReportOptions options;
  options.title = cli.get_string("title");
  options.target_metric = cli.get_string("target");
  options.event_metric = cli.get_string("event");

  std::ostringstream report;
  obs::write_markdown_report(report, samples, totals, options);
  const std::string alerts_path = cli.get_string("alerts");
  if (!alerts_path.empty())
    obs::write_alert_timeline(report, obs::load_alerts_file(alerts_path));

  const std::string out_path = cli.get_string("out");
  if (out_path.empty()) {
    std::cout << report.str();
  } else {
    std::ofstream os(out_path);
    if (!os.good()) {
      std::cerr << "p2plb_report: cannot open " << out_path << "\n";
      return 1;
    }
    os << report.str();
    std::cerr << "report written to " << out_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("series",
               "time-series CSV to analyze (time,metric,value); required",
               "");
  cli.add_flag("metrics",
               "end-of-run totals CSV (time,metric,value) from a driver's "
               "--metrics (optional; adds the traffic section)",
               "");
  cli.add_flag("alerts",
               "p2plb-alerts-1 CSV export to render as an alert-timeline "
               "section (optional)",
               "");
  cli.add_flag("out", "write the Markdown report here (default: stdout)", "");
  cli.add_flag("title", "report title", "Experiment report");
  cli.add_flag("target", "health series measured for re-convergence",
               "health.heavy_fraction");
  cli.add_flag("event", "disturbance-marker series", "event.crash");
  try {
    if (!cli.parse(argc, argv)) return 0;
    return run(cli);
  } catch (const std::exception& e) {
    std::cerr << "p2plb_report: " << e.what() << "\n";
    return 1;
  }
}
