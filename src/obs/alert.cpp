#include "obs/alert.h"

#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/table.h"
#include "obs/format.h"

namespace p2plb::obs {

namespace {

std::size_t parse_window(std::string_view text, const std::string& context) {
  const double v = parse_number(text, context);
  P2PLB_REQUIRE_MSG(v >= 1.0 && v == std::floor(v),
                    "window bucket count must be a positive integer: " +
                        context);
  return static_cast<std::size_t>(v);
}

/// Split `line` on runs of spaces/tabs.
std::vector<std::string_view> tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

/// Parse `<agg>[:k[,k2]]` into the rule's agg/k/k2/quantile fields.
void parse_agg(std::string_view token, AlertRule& rule,
               const std::string& context) {
  std::string_view agg = token;
  if (const std::size_t colon = token.find(':');
      colon != std::string_view::npos) {
    agg = token.substr(0, colon);
    std::string_view windows = token.substr(colon + 1);
    if (const std::size_t comma = windows.find(',');
        comma != std::string_view::npos) {
      rule.k = parse_window(windows.substr(0, comma), context);
      rule.k2 = parse_window(windows.substr(comma + 1), context);
    } else {
      rule.k = parse_window(windows, context);
    }
  }
  if (agg == "last") rule.agg = AlertAgg::kLast;
  else if (agg == "sum") rule.agg = AlertAgg::kSum;
  else if (agg == "mean") rule.agg = AlertAgg::kMean;
  else if (agg == "min") rule.agg = AlertAgg::kMin;
  else if (agg == "max") rule.agg = AlertAgg::kMax;
  else if (agg == "rate") rule.agg = AlertAgg::kRate;
  else if (agg == "burn") rule.agg = AlertAgg::kBurn;
  else if (agg.size() > 1 && agg.front() == 'p') {
    rule.agg = AlertAgg::kQuantile;
    const double pct = parse_number(agg.substr(1), context);
    P2PLB_REQUIRE_MSG(pct >= 0.0 && pct <= 100.0,
                      "quantile must be p0..p100: " + context);
    rule.quantile = pct / 100.0;
  } else {
    throw PreconditionError("unknown aggregation '" + std::string(agg) +
                            "' in alert rule: " + context);
  }
  if (rule.agg == AlertAgg::kBurn) {
    P2PLB_REQUIRE_MSG(rule.k2 > 0,
                      "burn needs two windows (burn:short,long): " + context);
    P2PLB_REQUIRE_MSG(rule.k < rule.k2,
                      "burn short window must be < long window: " + context);
  } else {
    P2PLB_REQUIRE_MSG(rule.k2 == 0,
                      "only burn takes two windows: " + context);
  }
}

AlertOp parse_op(std::string_view token, const std::string& context) {
  if (token == ">") return AlertOp::kGt;
  if (token == "<") return AlertOp::kLt;
  if (token == ">=") return AlertOp::kGe;
  if (token == "<=") return AlertOp::kLe;
  throw PreconditionError("unknown comparison '" + std::string(token) +
                          "' in alert rule: " + context);
}

bool compare(AlertOp op, double value, double threshold) noexcept {
  switch (op) {
    case AlertOp::kGt: return value > threshold;
    case AlertOp::kLt: return value < threshold;
    case AlertOp::kGe: return value >= threshold;
    case AlertOp::kLe: return value <= threshold;
  }
  return false;
}

const char* event_name(bool fire) noexcept {
  return fire ? "fire" : "resolve";
}

bool parse_event(std::string_view text, const std::string& context) {
  if (text == "fire") return true;
  if (text == "resolve") return false;
  throw PreconditionError("alert event must be fire|resolve: " + context);
}

}  // namespace

std::vector<AlertRule> parse_alert_rules(std::string_view text) {
  std::vector<AlertRule> rules;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? eol : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos)
      line = line.substr(0, hash);
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string context =
        "line " + std::to_string(line_no) + ": " + std::string(line);
    P2PLB_REQUIRE_MSG(tokens.size() == 5 || tokens.size() == 7,
                      "alert rule needs '<name> <metric> <agg> <op> "
                      "<threshold> [for <duration>]': " +
                          context);
    AlertRule rule;
    rule.name = std::string(tokens[0]);
    rule.metric = std::string(tokens[1]);
    parse_agg(tokens[2], rule, context);
    rule.op = parse_op(tokens[3], context);
    rule.threshold = parse_number(tokens[4], context);
    if (tokens.size() == 7) {
      P2PLB_REQUIRE_MSG(tokens[5] == "for",
                        "expected 'for <duration>': " + context);
      rule.for_duration = parse_number(tokens[6], context);
      P2PLB_REQUIRE_MSG(rule.for_duration > 0.0,
                        "sustained-for duration must be positive: " +
                            context);
    }
    for (const AlertRule& existing : rules)
      P2PLB_REQUIRE_MSG(existing.name != rule.name,
                        "duplicate alert rule name: " + context);
    rules.push_back(std::move(rule));
  }
  return rules;
}

std::vector<AlertRule> load_alert_rules_file(const std::string& path) {
  std::ifstream is(path);
  P2PLB_REQUIRE_MSG(is.good(), "cannot open alert rules file: " + path);
  std::ostringstream text;
  text << is.rdbuf();
  return parse_alert_rules(text.str());
}

AlertEngine::AlertEngine(WindowedAggregator& windows,
                         std::vector<AlertRule> rules)
    : windows_(windows), rules_(std::move(rules)) {
  states_.resize(rules_.size());
  windows_.add_boundary_hook([this](double boundary) { evaluate(boundary); });
}

bool AlertEngine::firing(std::string_view rule) const {
  for (std::size_t i = 0; i < rules_.size(); ++i)
    if (rules_[i].name == rule) return states_[i].firing;
  return false;
}

double AlertEngine::aggregate(const AlertRule& rule, SeriesId id) const {
  switch (rule.agg) {
    case AlertAgg::kLast: return windows_.last_over(id, rule.k);
    case AlertAgg::kSum: return windows_.sum_over(id, rule.k);
    case AlertAgg::kMean: return windows_.mean_over(id, rule.k);
    case AlertAgg::kMin: return windows_.min_over(id, rule.k);
    case AlertAgg::kMax: return windows_.max_over(id, rule.k);
    case AlertAgg::kRate: return windows_.rate_over(id, rule.k);
    case AlertAgg::kQuantile:
      return windows_.quantile_over(id, rule.k, rule.quantile);
    case AlertAgg::kBurn: {
      const double long_rate = windows_.rate_over(id, rule.k2);
      if (!(long_rate > 0.0)) return std::numeric_limits<double>::quiet_NaN();
      return windows_.rate_over(id, rule.k) / long_rate;
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

void AlertEngine::evaluate(double boundary) {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const AlertRule& rule = rules_[i];
    RuleState& state = states_[i];
    if (!state.series.valid()) state.series = windows_.find_series(rule.metric);
    bool condition = false;
    double value = std::numeric_limits<double>::quiet_NaN();
    if (state.series.valid()) {
      value = aggregate(rule, state.series);
      condition = !std::isnan(value) && compare(rule.op, value, rule.threshold);
    }
    if (condition) {
      if (state.pending_since < 0.0) state.pending_since = boundary;
      const bool sustained =
          boundary - state.pending_since >= rule.for_duration;
      if (sustained && !state.firing) transition(rule, state, boundary,
                                                 /*fire=*/true, value);
    } else {
      state.pending_since = -1.0;
      if (state.firing)
        transition(rule, state, boundary, /*fire=*/false, value);
    }
  }
}

void AlertEngine::transition(const AlertRule& rule, RuleState& state,
                             double boundary, bool fire, double value) {
  state.firing = fire;
  if (fire) ++active_; else --active_;
  events_.push_back(AlertEvent{boundary, rule.name, fire, value,
                               rule.threshold});
  if (tracer_ != nullptr) {
    // No SpanContext: alert instants allocate no trace ids, so the id
    // sequence of the surrounding run stays untouched (the byte-identity
    // gate filters lane "alert" and expects everything else unchanged).
    tracer_->instant(boundary, "alert", rule.name, {},
                     {arg("event", event_name(fire)), arg("value", value),
                      arg("threshold", rule.threshold)});
  }
}

void AlertEngine::write_csv(std::ostream& os) const {
  os << "time,rule,event,value,threshold\n";
  for (const AlertEvent& e : events_) {
    os << csv_field(Table::num(e.t, 6)) << ',' << csv_field(e.rule) << ','
       << event_name(e.fire) << ',' << csv_field(Table::num(e.value, 6))
       << ',' << csv_field(Table::num(e.threshold, 6)) << '\n';
  }
}

void write_alerts_file(const AlertEngine& engine, const std::string& path) {
  std::ofstream os(path);
  P2PLB_REQUIRE_MSG(os.good(), "cannot open alerts file: " + path);
  engine.write_csv(os);
}

std::vector<AlertEvent> load_alerts_file(const std::string& path) {
  std::ifstream is(path);
  P2PLB_REQUIRE_MSG(is.good(), "cannot open alerts file: " + path);
  std::vector<AlertEvent> out;
  std::string line;
  P2PLB_REQUIRE_MSG(std::getline(is, line), "empty alerts CSV");
  // Raw text, like the series header: any other format fails here.
  P2PLB_REQUIRE_MSG(line == "time,rule,event,value,threshold",
                    "alerts CSV must start with a "
                    "time,rule,event,value,threshold header");
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto fields = parse_csv_record(line);
    P2PLB_REQUIRE_MSG(fields.size() == 5,
                      "alerts CSV row must have 5 fields: " + line);
    out.push_back(AlertEvent{parse_number(fields[0], line), fields[1],
                             parse_event(fields[2], line),
                             parse_number(fields[3], line),
                             parse_number(fields[4], line)});
  }
  return out;
}

}  // namespace p2plb::obs
