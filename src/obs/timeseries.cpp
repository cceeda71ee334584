#include "obs/timeseries.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
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

void write_series_jsonl(std::ostream& os,
                        const std::vector<Sample>& samples) {
  for (const Sample& s : samples) {
    os << "{\"t\":" << json_number(s.t)
       << ",\"metric\":" << json_string(s.key)
       << ",\"value\":" << json_number(s.value) << "}\n";
  }
}

void write_series_file(const std::vector<Sample>& samples,
                       const std::string& path) {
  std::ofstream os(path);
  P2PLB_REQUIRE_MSG(os.good(), "cannot open series file: " + path);
  if (path_has_extension(path, ".jsonl")) {
    write_series_jsonl(os, samples);
  } else {
    write_series_csv(os, samples);
  }
}

namespace {

double parse_number(std::string_view text, const std::string& context) {
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(text), &used);
    P2PLB_REQUIRE_MSG(used == text.size(),
                      "trailing garbage in number: " + context);
    return v;
  } catch (const std::invalid_argument&) {
    throw PreconditionError("not a number: " + context);
  } catch (const std::out_of_range&) {
    throw PreconditionError("number out of range: " + context);
  }
}

/// Consume `expected` off the front of `rest` or die.
void expect(std::string_view& rest, std::string_view expected,
            const std::string& context) {
  P2PLB_REQUIRE_MSG(rest.substr(0, expected.size()) == expected,
                    "malformed series JSONL near: " + context);
  rest.remove_prefix(expected.size());
}

/// Parse a JSON number prefix (up to the next ',' or '}').
double take_number(std::string_view& rest, const std::string& context) {
  const std::size_t end = rest.find_first_of(",}");
  P2PLB_REQUIRE_MSG(end != std::string_view::npos,
                    "malformed series JSONL near: " + context);
  const double v = parse_number(rest.substr(0, end), context);
  rest.remove_prefix(end);
  return v;
}

/// Parse a JSON string prefix (including both quotes), undoing
/// json_string()'s escapes.
std::string take_string(std::string_view& rest, const std::string& context) {
  expect(rest, "\"", context);
  std::string out;
  while (!rest.empty()) {
    const char ch = rest.front();
    rest.remove_prefix(1);
    if (ch == '"') return out;
    if (ch != '\\') {
      out += ch;
      continue;
    }
    P2PLB_REQUIRE_MSG(!rest.empty(), "malformed series JSONL near: " + context);
    const char esc = rest.front();
    rest.remove_prefix(1);
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        P2PLB_REQUIRE_MSG(rest.size() >= 4,
                          "malformed series JSONL near: " + context);
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = rest.front();
          rest.remove_prefix(1);
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f')
            code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F')
            code |= static_cast<unsigned>(h - 'A' + 10);
          else
            throw PreconditionError("malformed series JSONL near: " + context);
        }
        P2PLB_REQUIRE_MSG(code < 0x80,
                          "non-ASCII escape in series JSONL: " + context);
        out += static_cast<char>(code);
        break;
      }
      default:
        throw PreconditionError("malformed series JSONL near: " + context);
    }
  }
  throw PreconditionError("unterminated string in series JSONL: " + context);
}

}  // namespace

std::vector<Sample> load_series_csv(std::istream& is) {
  std::vector<Sample> out;
  std::string line;
  P2PLB_REQUIRE_MSG(std::getline(is, line), "empty series CSV");
  {
    const auto header = parse_csv_record(line);
    P2PLB_REQUIRE_MSG(
        header == std::vector<std::string>({"time", "metric", "value"}),
        "series CSV must start with a time,metric,value header");
  }
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

std::vector<Sample> load_series_jsonl(std::istream& is) {
  std::vector<Sample> out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::string_view rest = line;
    Sample s;
    expect(rest, "{\"t\":", line);
    s.t = take_number(rest, line);
    expect(rest, ",\"metric\":", line);
    s.key = take_string(rest, line);
    expect(rest, ",\"value\":", line);
    s.value = take_number(rest, line);
    expect(rest, "}", line);
    P2PLB_REQUIRE_MSG(rest.empty(),
                      "malformed series JSONL near: " + line);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Sample> load_series_file(const std::string& path) {
  std::ifstream is(path);
  P2PLB_REQUIRE_MSG(is.good(), "cannot open series file: " + path);
  return path_has_extension(path, ".jsonl") ? load_series_jsonl(is)
                                            : load_series_csv(is);
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
