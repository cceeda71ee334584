#include "obs/report.h"

#include <algorithm>
#include <map>
#include <ostream>
#include <string>

#include "common/error.h"
#include "common/table.h"

namespace p2plb::obs {

ExperimentReport analyze(const std::vector<Sample>& samples,
                         const ReportOptions& options) {
  P2PLB_REQUIRE_MSG(!samples.empty(), "cannot analyze an empty series");
  ExperimentReport report;

  std::map<std::string, SeriesStats> stats;
  for (const Sample& s : samples) {
    auto [it, inserted] = stats.try_emplace(s.key);
    SeriesStats& st = it->second;
    if (inserted) {
      st.key = s.key;
      st.first = st.min = st.max = s.value;
    }
    ++st.count;
    st.last = s.value;
    st.min = std::min(st.min, s.value);
    st.max = std::max(st.max, s.value);
  }
  report.series.reserve(stats.size());
  for (auto& [key, st] : stats) report.series.push_back(std::move(st));

  const auto target = extract_series(samples, options.target_metric);
  for (const auto& [t, magnitude] : extract_series(samples, options.event_metric))
    report.events.push_back({magnitude, measure_reconvergence(target, t)});
  return report;
}

namespace {

void write_convergence_section(std::ostream& os,
                               const ExperimentReport& report,
                               const ReportOptions& options) {
  os << "## Convergence under churn\n\n";
  if (report.events.empty()) {
    os << "No disturbance events (`" << options.event_metric
       << "` samples) were recorded.\n\n";
    return;
  }
  os << "Re-convergence of `" << options.target_metric
     << "` after each disturbance: the series has re-converged at the "
        "first post-event sample at or below its pre-event level.\n\n";
  Table table({"event time", "magnitude", "baseline", "peak", "reconverged",
               "recovery time"});
  for (const EventRecovery& ev : report.events) {
    const Reconvergence& rc = ev.reconvergence;
    table.add_row({Table::num(rc.event_time, 6), Table::num(ev.magnitude, 6),
                   Table::num(rc.baseline, 6), Table::num(rc.peak, 6),
                   rc.converged ? "yes" : "no",
                   rc.converged ? Table::num(rc.time, 6) : "-"});
  }
  table.print_markdown(os);
  os << '\n';
}

void write_traffic_section(std::ostream& os,
                           const std::vector<Sample>& totals) {
  std::map<std::string, double> traffic;  // sorted, last value wins
  for (const Sample& s : totals)
    if (s.key.compare(0, 4, "net.") == 0) traffic[s.key] = s.value;
  if (traffic.empty()) return;
  Table table({"metric", "value"});
  for (const auto& [key, value] : traffic)
    table.add_row({key, Table::num(value, 6)});
  os << "## Traffic totals\n\n";
  table.print_markdown(os);
  os << '\n';
}

}  // namespace

void write_markdown_report(std::ostream& os, const std::vector<Sample>& samples,
                           const std::vector<Sample>& totals,
                           const ReportOptions& options) {
  const ExperimentReport report = analyze(samples, options);

  double t_min = samples.front().t;
  double t_max = samples.front().t;
  for (const Sample& s : samples) {
    t_min = std::min(t_min, s.t);
    t_max = std::max(t_max, s.t);
  }

  os << "# " << options.title << "\n\n"
     << "- samples: " << samples.size() << " over " << report.series.size()
     << " series\n"
     << "- time span: [" << Table::num(t_min, 6) << ", "
     << Table::num(t_max, 6) << "]\n"
     << "- convergence target: `" << options.target_metric << "`; events: `"
     << options.event_metric << "`\n\n";

  write_convergence_section(os, report, options);

  os << "## Series overview\n\n";
  Table overview({"metric", "samples", "first", "last", "min", "max"});
  for (const SeriesStats& st : report.series)
    overview.add_row({st.key, std::to_string(st.count), Table::num(st.first, 6),
                      Table::num(st.last, 6), Table::num(st.min, 6),
                      Table::num(st.max, 6)});
  overview.print_markdown(os);
  os << '\n';

  bool any_health = false;
  Table health({"gauge", "first", "last", "change"});
  for (const SeriesStats& st : report.series) {
    if (st.key.compare(0, 7, "health.") != 0) continue;
    any_health = true;
    health.add_row({st.key, Table::num(st.first, 6), Table::num(st.last, 6),
                    Table::num(st.last - st.first, 6)});
  }
  if (any_health) {
    os << "## Health before / after\n\n";
    health.print_markdown(os);
    os << '\n';
  }

  write_traffic_section(os, totals);
}

void write_alert_timeline(std::ostream& os,
                          const std::vector<AlertEvent>& alerts) {
  os << "## Alert timeline\n\n";
  if (alerts.empty()) {
    os << "No alert transitions were recorded.\n\n";
    return;
  }
  os << "Fire/resolve transitions from the online alert engine "
        "(p2plb-alerts-1), in evaluation order.\n\n";
  Table transitions({"time", "rule", "event", "value", "threshold"});
  for (const AlertEvent& e : alerts)
    transitions.add_row({Table::num(e.t, 6), e.rule,
                         e.fire ? "fire" : "resolve", Table::num(e.value, 6),
                         Table::num(e.threshold, 6)});
  transitions.print_markdown(os);
  os << '\n';

  // Episodes: each fire paired with its rule's next resolve.  Their
  // durations line up with the re-convergence table above -- an
  // imbalance episode around a crash should span the measured recovery.
  Table episodes({"rule", "fired", "resolved", "duration"});
  std::map<std::string, double> open;  // rule -> fire time
  bool any = false;
  for (const AlertEvent& e : alerts) {
    if (e.fire) {
      open[e.rule] = e.t;
      continue;
    }
    const auto it = open.find(e.rule);
    if (it == open.end()) continue;
    any = true;
    episodes.add_row({e.rule, Table::num(it->second, 6), Table::num(e.t, 6),
                      Table::num(e.t - it->second, 6)});
    open.erase(it);
  }
  for (const auto& [rule, fired] : open) {
    any = true;
    episodes.add_row({rule, Table::num(fired, 6), "-", "still firing"});
  }
  if (any) {
    os << "### Alert episodes\n\n";
    episodes.print_markdown(os);
    os << '\n';
  }
}

}  // namespace p2plb::obs
