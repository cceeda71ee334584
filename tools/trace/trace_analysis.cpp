#include "trace_analysis.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>
#include <string_view>
#include <unordered_map>

#include "common/error.h"
#include "obs/binary_trace.h"
#include "obs/format.h"

namespace p2plb::tracetool {

using obs::json_number;

namespace {

// ---------------------------------------------------------------------------
// JSONL line parser.  The tracer's output is flat -- one object per line,
// string and number values, plus one optional single-level "args" object
// -- but unknown keys and value shapes are skipped, not rejected, so the
// reader keeps working when the format grows new fields.
// ---------------------------------------------------------------------------

class LineParser {
 public:
  LineParser(std::string_view s, std::size_t line_no)
      : s_(s), line_no_(line_no) {}

  obs::TraceEvent parse() {
    obs::TraceEvent e;
    bool has_phase = false;
    expect('{');
    bool first = true;
    while (!at('}')) {
      if (!first) expect(',');
      first = false;
      const std::string key = parse_string();
      expect(':');
      if (key == "t") {
        e.time = parse_double();
      } else if (key == "ph") {
        e.kind = parse_phase();
        has_phase = true;
      } else if (key == "lane") {
        e.lane = parse_string();
      } else if (key == "name") {
        e.name = parse_string();
      } else if (key == "id") {
        e.id = parse_uint();
      } else if (key == "trace") {
        e.ctx.trace = parse_uint();
      } else if (key == "span") {
        e.ctx.span = parse_uint();
      } else if (key == "parent") {
        e.ctx.parent = parse_uint();
      } else if (key == "args") {
        parse_args(e.args);
      } else {
        skip_value();
      }
    }
    expect('}');
    if (pos_ != s_.size()) fail("trailing characters after object");
    if (!has_phase) fail("missing \"ph\"");
    return e;
  }

 private:
  [[nodiscard]] bool at(char c) const {
    return pos_ < s_.size() && s_[pos_] == c;
  }

  void expect(char c) {
    if (!at(c)) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw PreconditionError("trace line " + std::to_string(line_no_) + ": " +
                            what);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {  // obs::json_string's \u00XX control characters
            const char* hex = s_.data() + pos_;
            unsigned code = 0;
            if (s_.size() - pos_ < 4 ||
                std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4 ||
                code > 0x7F)
              fail("unsupported \\u escape");
            pos_ += 4;
            c = static_cast<char>(code);
            break;
          }
          default: fail("unknown escape");
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  obs::EventKind parse_phase() {
    const std::string letter = parse_string();
    for (std::uint8_t k = 0;
         k <= static_cast<std::uint8_t>(obs::EventKind::kFlowEnd); ++k) {
      const auto kind = static_cast<obs::EventKind>(k);
      if (letter.size() == 1 && obs::kind_phase_letter(kind) == letter[0])
        return kind;
    }
    fail("unknown \"ph\" \"" + letter + "\"");
  }

  [[nodiscard]] std::string_view number_token() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) fail("expected a number");
    return s_.substr(start, pos_ - start);
  }

  double parse_double() {
    const std::string_view token = number_token();
    try {
      return obs::parse_number(token, std::string(token));
    } catch (const PreconditionError& error) {
      fail(error.what());
    }
  }

  std::uint64_t parse_uint() {
    const std::string_view token = number_token();
    std::uint64_t v = 0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), v);
    if (ec != std::errc() || end != token.data() + token.size())
      fail("expected an unsigned integer, got " + std::string(token));
    return v;
  }

  /// Keys decode; each value keeps its exact JSON text.
  void parse_args(std::vector<obs::Arg>& args) {
    expect('{');
    bool first = true;
    while (!at('}')) {
      if (!first) expect(',');
      first = false;
      std::string key = parse_string();
      expect(':');
      const std::size_t start = pos_;
      skip_value();
      std::string value(s_.substr(start, pos_ - start));
      args.push_back(obs::Arg{std::move(key), std::move(value)});
    }
    expect('}');
  }

  void skip_value() {
    if (at('"')) {
      (void)parse_string();
    } else if (at('{')) {
      expect('{');
      bool first = true;
      while (!at('}')) {
        if (!first) expect(',');
        first = false;
        (void)parse_string();
        expect(':');
        skip_value();
      }
      expect('}');
    } else if (at('[')) {
      expect('[');
      bool first = true;
      while (!at(']')) {
        if (!first) expect(',');
        first = false;
        skip_value();
      }
      expect(']');
    } else if (at('t') || at('f') || at('n')) {
      while (pos_ < s_.size() &&
             std::isalpha(static_cast<unsigned char>(s_[pos_])) != 0)
        ++pos_;
    } else {
      (void)number_token();
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  std::size_t line_no_;
};

std::string fmt_histogram(const Histogram& h) {
  std::string out;
  for (const auto& [value, count] : h) {
    if (!out.empty()) out += ' ';
    out += std::to_string(value) + ":" + std::to_string(count);
  }
  return out.empty() ? "-" : out;
}

constexpr double kTimeTolerance = 1e-9;

}  // namespace

std::uint64_t read_trace(
    std::istream& is, const std::function<void(const obs::TraceEvent&)>& fn) {
  if (obs::sniff_binary_trace(is)) return obs::read_binary_trace(is, fn);
  std::string line;
  std::size_t line_no = 0;
  std::uint64_t parsed = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    fn(LineParser(line, line_no).parse());
    ++parsed;
  }
  return parsed;
}

std::vector<std::string> read_lanes(std::istream& is) {
  std::vector<std::string> lanes;
  (void)read_trace(is, [&lanes](const obs::TraceEvent& e) {
    if (std::find(lanes.begin(), lanes.end(), e.lane) == lanes.end())
      lanes.push_back(e.lane);
  });
  return lanes;
}

std::uint64_t write_chrome_json(std::istream& is, std::ostream& os) {
  // Timestamps are exported in microseconds; one sim latency unit maps
  // to 1 ms so sub-unit delays stay visible in the viewer.
  constexpr double kTsScale = 1000.0;
  const std::vector<std::string> lane_order = read_lanes(is);
  is.clear();
  is.seekg(0);
  const auto tid_of = [&lane_order](const std::string& lane) {
    for (std::size_t i = 0; i < lane_order.size(); ++i)
      if (lane_order[i] == lane) return i;
    return std::size_t{0};  // unreachable: every event's lane is listed
  };

  os << "{\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"p2plb\"}}";
  for (std::size_t i = 0; i < lane_order.size(); ++i) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << i
       << ",\"args\":{\"name\":" << obs::json_string(lane_order[i]) << "}}";
    os << ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
          "\"tid\":"
       << i << ",\"args\":{\"sort_index\":" << i << "}}";
  }
  const std::uint64_t n = read_trace(is, [&](const obs::TraceEvent& e) {
    os << ",\n{\"name\":" << obs::json_string(e.name)
       << ",\"cat\":" << obs::json_string(e.lane) << ",\"ph\":\""
       << obs::kind_phase_letter(e.kind)
       << "\",\"ts\":" << json_number(e.time * kTsScale)
       << ",\"pid\":1,\"tid\":" << tid_of(e.lane);
    if (obs::kind_has_id(e.kind)) os << ",\"id\":" << e.id;
    if (e.kind == obs::EventKind::kInstant) os << ",\"s\":\"t\"";
    // "f" binds the arrow head to the enclosing slice's end.
    if (e.kind == obs::EventKind::kFlowEnd) os << ",\"bp\":\"e\"";
    // Causal ids ride in args so Perfetto's detail pane shows them.
    std::vector<obs::Arg> args = e.args;
    if (e.ctx.trace != 0)
      args.push_back(obs::arg("trace", static_cast<double>(e.ctx.trace)));
    if (e.ctx.span != 0)
      args.push_back(obs::arg("span", static_cast<double>(e.ctx.span)));
    if (e.ctx.parent != 0)
      args.push_back(obs::arg("parent", static_cast<double>(e.ctx.parent)));
    if (!args.empty()) {
      os << ",\"args\":";
      obs::write_args_object(os, args);
    }
    os << '}';
  });
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return n;
}

StreamingAnalyzer::StreamingAnalyzer(bool retire_completed)
    : retire_(retire_completed) {}

void StreamingAnalyzer::feed(const obs::TraceEvent& e) {
  ++total_events_;
  const obs::SpanContext& ctx = e.ctx;
  bool root_closed = false;
  if (e.name == "round" && e.kind == obs::EventKind::kEnd) {
    for (const obs::Arg& a : e.args)
      if (a.key == "completion_time")
        completion_by_trace_[ctx.trace] = obs::parse_number(
            a.json, "completion_time of trace " + std::to_string(ctx.trace));
    // The root "round" span closing is the retirement signal: a
    // well-formed round emits it after its last delivery.
    root_closed = ctx.trace != 0 && ctx.parent == 0;
  }
  if (ctx.trace != 0 && ctx.span != 0) {  // else annotation / flow / plain
    auto [it, inserted] = spans_.try_emplace(ctx.span);
    Span& s = it->second;
    if (inserted) {
      s.id = ctx.span;
      s.trace = ctx.trace;
      s.parent = ctx.parent;
      s.lane = e.lane;
      s.start = e.time;
      s.end = e.time;
      ++spans_created_;
      ids_by_trace_[ctx.trace].push_back(ctx.span);
      if (spans_.size() > peak_spans_) peak_spans_ = spans_.size();
      if (ids_by_trace_.size() > peak_traces_)
        peak_traces_ = ids_by_trace_.size();
    } else {
      P2PLB_REQUIRE_MSG(s.trace == ctx.trace,
                        "span " + std::to_string(ctx.span) +
                            " appears in two traces");
      s.start = std::min(s.start, e.time);
      s.end = std::max(s.end, e.time);
    }
    if (e.name.rfind("msg.", 0) == 0) {
      s.is_message = true;
      if (s.name.empty()) s.name = "msg";
    } else {
      s.name = e.name;
    }
  }
  if (root_closed && retire_) {
    const auto it = ids_by_trace_.find(ctx.trace);
    if (it != ids_by_trace_.end()) {
      finalize_trace(ctx.trace, it->second);
      for (const std::uint64_t id : it->second) spans_.erase(id);
      ids_by_trace_.erase(it);
      completion_by_trace_.erase(ctx.trace);
    }
  }
}

void StreamingAnalyzer::finish() {
  if (finished_) return;
  finished_ = true;
  for (auto& [trace, ids] : ids_by_trace_) finalize_trace(trace, ids);
  if (retire_) {
    spans_.clear();
    ids_by_trace_.clear();
    completion_by_trace_.clear();
  }
}

void StreamingAnalyzer::finalize_trace(std::uint64_t trace,
                                       std::vector<std::uint64_t>& ids) {
  // Ids arrive in first-appearance order, which for the tracer's causal
  // allocation is already ascending -- but sort to guarantee the causal
  // order the passes below rely on.
  std::sort(ids.begin(), ids.end());

  // Pass 2 (ascending span id = causal order): connectivity, children,
  // message hop depth, fan-out.
  for (const std::uint64_t id : ids) {
    Span& s = spans_.at(id);
    if (s.parent == 0) {
      s.connected = true;
      s.hop_depth = s.is_message ? 1 : 0;
      continue;
    }
    const auto parent_it = spans_.find(s.parent);
    if (parent_it == spans_.end() || parent_it->second.trace != s.trace) {
      continue;  // orphan: counted against connectivity
    }
    Span& p = parent_it->second;
    s.connected = p.connected;
    s.hop_depth = p.hop_depth + (s.is_message ? 1 : 0);
    p.children.push_back(id);
    if (s.is_message) ++p.fan_out;
  }

  // Pass 3: the per-trace round analysis.
  const Span* root = nullptr;
  for (const std::uint64_t id : ids) {
    const Span& s = spans_.at(id);
    if (s.parent == 0 && s.name == "round") {
      root = &s;
      break;
    }
  }
  if (root == nullptr) {
    ++other_traces_;
    return;
  }

  RoundAnalysis round;
  round.trace = trace;
  round.start = root->start;
  round.span_count = ids.size();
  const auto completion = completion_by_trace_.find(trace);
  if (completion != completion_by_trace_.end())
    round.completion_time = completion->second;

  // Latest-ending span; ties go to the larger id (causally deeper).
  const Span* last = root;
  for (const std::uint64_t id : ids) {
    const Span& s = spans_.at(id);
    round.end = std::max(round.end, s.end);
    if (s.end > last->end || (s.end == last->end && s.id > last->id))
      last = &s;
    if (s.is_message) ++round.message_count;
    if (s.connected) ++round.connected_count;
    if (s.is_message) ++round.hop_depth_by_lane[s.lane][s.hop_depth];
    if (s.fan_out > 0) ++round.fan_out_by_lane[s.lane][s.fan_out];
  }

  // Critical path: parent links back from the latest finisher.
  round.critical_path_end = last->end;
  for (const Span* s = last;;) {
    round.critical_path.push_back(s->id);
    if (s->parent == 0) break;
    const auto it = spans_.find(s->parent);
    if (it == spans_.end()) break;  // orphaned chain; validate() flags it
    s = &it->second;
  }
  std::reverse(round.critical_path.begin(), round.critical_path.end());
  for (const std::uint64_t id : round.critical_path)
    spans_.at(id).on_critical_path = true;

  // Slack, leaves first: a parent's id is always smaller than its
  // children's, so descending id order is reverse-topological.
  std::unordered_map<std::uint64_t, double> down;
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    Span& s = spans_.at(*it);
    double latest = s.end;
    for (const std::uint64_t child : s.children)
      latest = std::max(latest, down.at(child));
    down[*it] = latest;
    s.slack = round.end - latest;
  }

  rounds_.push_back(std::move(round));
  if (sink_) sink_(rounds_.back());
}

TraceAnalysis analyze(const std::vector<obs::TraceEvent>& events) {
  // Retain-everything mode folds the whole file before any per-round
  // pass, which is what makes the result independent of where round
  // roots close in the stream.
  StreamingAnalyzer sa(/*retire_completed=*/false);
  for (const obs::TraceEvent& e : events) sa.feed(e);
  sa.finish();

  TraceAnalysis out;
  out.total_events = sa.total_events_;
  out.other_traces = sa.other_traces_;
  out.spans = std::move(sa.spans_);
  out.rounds = std::move(sa.rounds_);
  std::sort(out.rounds.begin(), out.rounds.end(),
            [](const RoundAnalysis& a, const RoundAnalysis& b) {
              return a.start != b.start ? a.start < b.start
                                        : a.trace < b.trace;
            });
  return out;
}

std::vector<std::string> validate(const std::vector<RoundAnalysis>& rounds,
                                  double min_connectivity) {
  std::vector<std::string> violations;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const RoundAnalysis& r = rounds[i];
    const std::string label =
        "round " + std::to_string(i + 1) + " (trace " +
        std::to_string(r.trace) + ")";
    if (r.completion_time >= 0.0 &&
        std::abs((r.critical_path_end - r.start) - r.completion_time) >
            kTimeTolerance) {
      violations.push_back(
          label + ": critical path ends at +" +
          json_number(r.critical_path_end - r.start) +
          " but the round reported completion_time " +
          json_number(r.completion_time));
    }
    if (r.connectivity() < min_connectivity) {
      violations.push_back(label + ": only " +
                           json_number(100.0 * r.connectivity()) +
                           "% of spans connect to the round root");
    }
  }
  return violations;
}

std::vector<std::string> validate(const TraceAnalysis& analysis,
                                  double min_connectivity) {
  return validate(analysis.rounds, min_connectivity);
}

void write_round_markdown(const RoundAnalysis& r,
                          const std::map<std::uint64_t, Span>& spans,
                          std::size_t index, std::ostream& os) {
  os << "\n## Round " << (index + 1) << " (trace " << r.trace << ")\n\n";
  os << "| metric | value |\n|---|---|\n";
  os << "| interval | " << json_number(r.start) << " .. " << json_number(r.end)
     << " |\n";
  os << "| completion_time | "
     << (r.completion_time < 0.0 ? std::string("(unfinished)")
                                 : json_number(r.completion_time))
     << " |\n";
  os << "| critical path end | +" << json_number(r.critical_path_end - r.start)
     << " |\n";
  os << "| spans | " << r.span_count << " |\n";
  os << "| connected | " << json_number(100.0 * r.connectivity()) << "% |\n";
  os << "| messages | " << r.message_count << " |\n";

  os << "\n### Critical path\n\n";
  os << "| # | lane | name | span | start | end | wait |\n";
  os << "|---|---|---|---|---|---|---|\n";
  double prev_end = r.start;
  for (std::size_t k = 0; k < r.critical_path.size(); ++k) {
    const Span& s = spans.at(r.critical_path[k]);
    os << "| " << (k + 1) << " | " << s.lane << " | " << s.name << " | "
       << s.id << " | " << json_number(s.start) << " | " << json_number(s.end)
       << " | ";
    // The root span encloses the whole round; what it contributes to
    // the path is its start, so its row shows no wait and the per-hop
    // waits below it sum exactly to the critical path length.
    if (k == 0 && s.parent == 0) {
      os << "-";
      prev_end = s.start;
    } else {
      os << "+" << json_number(s.end - prev_end);
      prev_end = s.end;
    }
    os << " |\n";
  }

  os << "\n### Hop depth by phase (messages, depth:count)\n\n";
  os << "| lane | histogram | max |\n|---|---|---|\n";
  for (const auto& [lane, hist] : r.hop_depth_by_lane)
    os << "| " << lane << " | " << fmt_histogram(hist) << " | "
       << hist.rbegin()->first << " |\n";

  os << "\n### Fan-out by phase (senders, fan-out:count)\n\n";
  os << "| lane | histogram | max |\n|---|---|---|\n";
  for (const auto& [lane, hist] : r.fan_out_by_lane)
    os << "| " << lane << " | " << fmt_histogram(hist) << " | "
       << hist.rbegin()->first << " |\n";
}

void write_markdown(const TraceAnalysis& analysis, std::ostream& os) {
  os << "# Causal trace analysis\n\n";
  os << "- events: " << analysis.total_events << "\n";
  os << "- spans: " << analysis.spans.size() << "\n";
  os << "- rounds: " << analysis.rounds.size() << "\n";
  os << "- other traces: " << analysis.other_traces << "\n";

  for (std::size_t i = 0; i < analysis.rounds.size(); ++i)
    write_round_markdown(analysis.rounds[i], analysis.spans, i, os);
}

void write_csv_header(std::ostream& os) {
  os << "round,trace,span,parent,lane,name,start,end,slack,hop_depth,"
        "fan_out,critical\n";
}

void write_round_csv(const RoundAnalysis& r,
                     const std::map<std::uint64_t, Span>& spans,
                     std::size_t index, std::ostream& os) {
  for (const auto& [id, s] : spans) {
    if (s.trace != r.trace) continue;
    os << (index + 1) << ',' << r.trace << ',' << s.id << ',' << s.parent
       << ',' << s.lane << ',' << s.name << ',' << json_number(s.start)
       << ',' << json_number(s.end) << ',' << json_number(s.slack) << ','
       << s.hop_depth << ',' << s.fan_out << ','
       << (s.on_critical_path ? 1 : 0) << '\n';
  }
}

void write_csv(const TraceAnalysis& analysis, std::ostream& os) {
  write_csv_header(os);
  for (std::size_t i = 0; i < analysis.rounds.size(); ++i)
    write_round_csv(analysis.rounds[i], analysis.spans, i, os);
}

}  // namespace p2plb::tracetool
