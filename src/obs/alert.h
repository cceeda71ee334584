// Deterministic alerting over windowed metrics.
//
// The AlertEngine closes the loop the windowed aggregator opens: it
// registers a boundary hook on the aggregator and evaluates a fixed
// list of declarative rules at every bucket boundary, on the engine's
// clock.  Because boundaries are a pure function of the record
// timestamps (see obs/window.h) and rules are evaluated in file order
// with no wall-clock, hashing or unordered iteration anywhere, the
// fire/resolve stream is byte-identical across same-seed runs -- the
// alert tests and the alert-smoke leg of CI cmp-gate exactly that.
//
// Rule grammar (one rule per line; '#' starts a comment):
//
//   <name> <metric> <agg>[:k[,k2]] <op> <threshold> [for <duration>]
//
//   agg ::= last | sum | mean | min | max | rate | p50 | p90 | p99 | burn
//   op  ::= > | < | >= | <=
//
// `k` is the sliding window in closed buckets (default 1 = the newest
// bucket).  `rate` divides the windowed sum by the window's duration.
// `pNN` reads the exact-merged histogram's quantile.  `burn:s,l` is the
// burn rate rate(s)/rate(l): short-window pressure relative to the long
// window, the SRE-style fast/slow trigger.  `for <duration>` makes the
// rule sustained: the condition must hold at every boundary for at
// least `duration` sim-time before the rule fires.  A metric with no
// registered series, or an empty window, evaluates to condition-false
// (missing data never fires an alert).
//
// On fire and on resolve the engine appends an AlertEvent to its
// in-memory log (events(), exported as `p2plb-alerts-1` CSV) and, when
// a tracer is attached, emits a trace instant on lane "alert" (no
// SpanContext, so no trace ids are allocated and untraced schedules
// stay untouched).  active() counts the rules currently firing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"
#include "obs/window.h"

namespace p2plb::obs {

enum class AlertAgg : std::uint8_t {
  kLast,
  kSum,
  kMean,
  kMin,
  kMax,
  kRate,
  kQuantile,  ///< pNN; quantile q is stored on the rule
  kBurn,      ///< rate(k) / rate(k2)
};

enum class AlertOp : std::uint8_t { kGt, kLt, kGe, kLe };

/// One parsed rule (see the grammar in the header comment).
struct AlertRule {
  std::string name;
  std::string metric;
  AlertAgg agg = AlertAgg::kLast;
  std::size_t k = 1;   ///< sliding window, in closed buckets
  std::size_t k2 = 0;  ///< burn only: the long window
  double quantile = 0.0;  ///< kQuantile only: q in [0, 1]
  AlertOp op = AlertOp::kGt;
  double threshold = 0.0;
  double for_duration = 0.0;  ///< sustained-for, in sim time (0 = instant)
};

/// Parse rules from text, one per line ('#' comments and blank lines
/// skipped).  Throws PreconditionError naming the offending line.
[[nodiscard]] std::vector<AlertRule> parse_alert_rules(std::string_view text);
/// parse_alert_rules over a file's contents.
[[nodiscard]] std::vector<AlertRule> load_alert_rules_file(
    const std::string& path);

/// One fire or resolve transition.
struct AlertEvent {
  double t = 0.0;      ///< the window boundary that triggered it
  std::string rule;
  bool fire = false;   ///< true = fire, false = resolve
  double value = 0.0;  ///< the aggregated value at the transition
  double threshold = 0.0;
};

/// The rule evaluator (see the header comment).  Registers a boundary
/// hook on `windows`; both must outlive the engine.
class AlertEngine {
 public:
  AlertEngine(WindowedAggregator& windows, std::vector<AlertRule> rules);
  AlertEngine(const AlertEngine&) = delete;
  AlertEngine& operator=(const AlertEngine&) = delete;

  /// Mirror fire/resolve as instants on lane "alert" (nullptr detaches).
  void attach_tracer(Tracer* tracer) noexcept { tracer_ = tracer; }

  [[nodiscard]] const std::vector<AlertRule>& rules() const noexcept {
    return rules_;
  }
  /// Every transition so far, in evaluation order.
  [[nodiscard]] const std::vector<AlertEvent>& events() const noexcept {
    return events_;
  }
  /// Rules currently firing.
  [[nodiscard]] std::size_t active() const noexcept { return active_; }
  /// True iff the named rule is currently firing.
  [[nodiscard]] bool firing(std::string_view rule) const;

  /// The p2plb-alerts-1 export: CSV with header
  /// `time,rule,event,value,threshold`; event is fire|resolve.
  void write_csv(std::ostream& os) const;

 private:
  /// Per-rule sustained-for state machine.
  struct RuleState {
    SeriesId series;           ///< resolved lazily (series register late)
    double pending_since = -1.0;  ///< first boundary the condition held
    bool firing = false;
  };

  /// The boundary hook: evaluate every rule against the closed windows.
  void evaluate(double boundary);
  [[nodiscard]] double aggregate(const AlertRule& rule, SeriesId id) const;
  void transition(const AlertRule& rule, RuleState& state, double boundary,
                  bool fire, double value);

  WindowedAggregator& windows_;
  std::vector<AlertRule> rules_;
  std::vector<RuleState> states_;
  std::vector<AlertEvent> events_;
  std::size_t active_ = 0;
  Tracer* tracer_ = nullptr;
};

/// AlertEngine::write_csv to `path`, whatever its suffix.
void write_alerts_file(const AlertEngine& engine, const std::string& path);

/// Load a p2plb-alerts-1 CSV file written by write_alerts_file -- the
/// report tool's input.  Throws PreconditionError on malformed input,
/// including a file that does not start with the CSV header.
[[nodiscard]] std::vector<AlertEvent> load_alerts_file(
    const std::string& path);

}  // namespace p2plb::obs
