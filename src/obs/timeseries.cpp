#include "obs/timeseries.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "common/error.h"
#include "common/table.h"
#include "obs/format.h"
#include "obs/trace.h"

namespace p2plb::obs {

void record_series(WindowedAggregator& windows,
                   std::vector<Sample>& samples) {
  windows.add_boundary_hook([&windows, &samples](double boundary) {
    for (std::uint32_t i = 0; i < windows.series_count(); ++i) {
      const SeriesId id{i};
      switch (windows.series_kind(id)) {
        case SeriesKind::kCounter:
          samples.push_back(Sample{boundary, windows.series_name(id),
                                   windows.sum_over(id, 1)});
          break;
        case SeriesKind::kGauge:
          if (windows.count_over(id, 1) > 0)
            samples.push_back(Sample{boundary, windows.series_name(id),
                                     windows.last_over(id, 1)});
          break;
        case SeriesKind::kHistogram:
          break;
      }
    }
  });
}

void write_series_csv(std::ostream& os, const std::vector<Sample>& samples) {
  os << "time,metric,value\n";
  for (const Sample& s : samples) {
    os << csv_field(Table::num(s.t, 6)) << ',' << csv_field(s.key) << ','
       << csv_field(Table::num(s.value, 6)) << '\n';
  }
}

void write_series_file(const std::vector<Sample>& samples,
                       const std::string& path) {
  std::ofstream os(path);
  P2PLB_REQUIRE_MSG(os.good(), "cannot open series file: " + path);
  write_series_csv(os, samples);
}

std::vector<Sample> load_series_csv(std::istream& is) {
  std::vector<Sample> out;
  std::string line;
  P2PLB_REQUIRE_MSG(std::getline(is, line), "empty series CSV");
  // Compared as raw text, so a file in any other format (say, JSON
  // lines) fails here with this message, not deeper in the CSV parser.
  P2PLB_REQUIRE_MSG(line == "time,metric,value",
                    "series CSV must start with a time,metric,value header");
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto fields = parse_csv_record(line);
    P2PLB_REQUIRE_MSG(fields.size() == 3,
                      "series CSV row must have 3 fields: " + line);
    out.push_back(Sample{parse_number(fields[0], line), fields[1],
                         parse_number(fields[2], line)});
  }
  return out;
}

std::vector<Sample> load_series_file(const std::string& path) {
  std::ifstream is(path);
  P2PLB_REQUIRE_MSG(is.good(), "cannot open series file: " + path);
  return load_series_csv(is);
}

std::vector<std::string> series_keys(const std::vector<Sample>& samples) {
  std::vector<std::string> keys;
  keys.reserve(samples.size());
  for (const Sample& s : samples) keys.push_back(s.key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

std::vector<std::pair<double, double>> extract_series(
    const std::vector<Sample>& samples, std::string_view key) {
  std::vector<std::pair<double, double>> points;
  for (const Sample& s : samples)
    if (s.key == key) points.emplace_back(s.t, s.value);
  return points;
}

Reconvergence measure_reconvergence(
    const std::vector<std::pair<double, double>>& points, double event_time) {
  Reconvergence r;
  r.event_time = event_time;
  // Pre-event level: the last reading strictly before the event.  A
  // reading at exactly event_time is ambiguous -- a bucket closing at a
  // scripted disturbance reads the state after it, so it would poison
  // the baseline -- and is excluded from both sides.
  std::size_t post = 0;
  while (post < points.size() && points[post].first < event_time) ++post;
  if (post == 0) return r;  // no pre-event level to return to
  r.baseline = points[post - 1].second;
  r.peak = r.baseline;
  for (; post < points.size(); ++post) {
    const auto [t, v] = points[post];
    if (t <= event_time) continue;
    r.peak = std::max(r.peak, v);
    if (v <= r.baseline) {
      r.converged = true;
      r.time = t - event_time;
      break;
    }
  }
  return r;
}

}  // namespace p2plb::obs
