// Causal trace analysis: reconstruct per-round span DAGs from a trace
// and explain where the round's latency came from.
//
// Input is the trace of a run with a tracer attached to the network
// (see src/sim/network.h "Causal envelopes"), read by read_trace():
// every span-carrying event holds a causal context (trace, span,
// parent), where the parent edge records the one input whose arrival
// actually enabled the work.  That makes each trace a DAG (in
// fact a tree over spans) whose longest root-to-leaf chain *is* the
// round's critical path:
//
//   * critical path -- walk parent links back from the latest-ending
//     span; its end time minus the round start must equal the round's
//     reported BalanceReport::completion_time (validate() checks this).
//   * slack -- for every span, how much later it could have finished
//     without delaying the round: trace_end - down(s), where down(s) is
//     the latest finish among the span and its descendants.  Spans on
//     the critical path have zero slack by construction.
//   * hop depth -- for message spans, the number of network messages on
//     the causal chain from the root (1 = first wave).  The per-lane
//     histogram exposes each phase's sequential depth, the quantity the
//     paper bounds by O(log_K N).
//   * fan-out -- per span, how many messages its handler scheduled; the
//     per-lane histogram exposes each phase's parallel width.
//
// Span ids are allocated in causal order (a parent's id is always
// smaller than its children's), so the slack recursion runs as a single
// reverse pass over span ids -- no explicit topological sort.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace p2plb::tracetool {

/// The one trace reader: call `fn` per event of the trace in `is`, in
/// file order; returns the count.  p2plb-btrace-1 (sniffed by magic, so
/// `is` must be seekable) goes to obs::read_binary_trace, anything else
/// parses as JSONL: arg values keep their exact JSON text, so JSONL ->
/// obs::write_jsonl_event round-trips byte for byte, and unknown keys
/// are skipped.  Throws PreconditionError naming the line on a missing
/// or unknown "ph", a non-number "t" or an id that is not unsigned.
std::uint64_t read_trace(
    std::istream& is, const std::function<void(const obs::TraceEvent&)>& fn);

/// Lanes of the trace in `is` in order of first appearance: the Chrome
/// view's thread ids.
[[nodiscard]] std::vector<std::string> read_lanes(std::istream& is);

/// Write the trace in `is` as Chrome trace_event JSON for Perfetto or
/// chrome://tracing: one thread per lane, causal ids folded into args.
/// Reads `is` twice (lanes, then events), so memory stays O(lanes);
/// returns the event count.
std::uint64_t write_chrome_json(std::istream& is, std::ostream& os);

/// One reconstructed span: every event sharing a (trace, span) pair.
/// For a message this is its send and its delivery, so [start, end] is
/// the message's time in flight.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< parent span id (0 = root)
  std::uint64_t trace = 0;
  std::string lane;
  std::string name;       ///< "msg" for messages, else the span's name
  double start = 0.0;
  double end = 0.0;
  bool is_message = false;
  bool connected = false;  ///< parent chain reaches a root span
  bool on_critical_path = false;
  std::size_t hop_depth = 0;  ///< message ancestors incl. self (0 = none)
  std::size_t fan_out = 0;    ///< direct message children
  double slack = 0.0;         ///< trace_end - latest finish reachable below
  std::vector<std::uint64_t> children;  ///< span ids, ascending
};

/// Compact histogram: value -> count (ordered, so output is stable).
using Histogram = std::map<std::size_t, std::size_t>;

/// Analysis of one balancing round (a trace rooted in a "round" span).
struct RoundAnalysis {
  std::uint64_t trace = 0;
  double start = 0.0;  ///< round span begin
  double end = 0.0;    ///< latest event in the trace
  /// The round's self-reported completion_time arg (< 0 when the round
  /// never ended, i.e. the trace was cut off mid-round).
  double completion_time = -1.0;
  std::vector<std::uint64_t> critical_path;  ///< span ids, root first
  double critical_path_end = 0.0;
  std::size_t span_count = 0;
  std::size_t message_count = 0;
  std::size_t connected_count = 0;
  std::map<std::string, Histogram> hop_depth_by_lane;  ///< messages only
  std::map<std::string, Histogram> fan_out_by_lane;    ///< spans with >=1
  [[nodiscard]] double connectivity() const noexcept {
    return span_count == 0 ? 1.0
                           : static_cast<double>(connected_count) /
                                 static_cast<double>(span_count);
  }
};

/// The whole file: rounds plus everything else (e.g. maintenance traces).
struct TraceAnalysis {
  std::vector<RoundAnalysis> rounds;  ///< in round-start order
  std::map<std::uint64_t, Span> spans;  ///< all spans by id (ids are global)
  std::size_t total_events = 0;
  std::size_t other_traces = 0;  ///< traces not rooted in a "round" span
};

/// Incremental analyzer: feed() events in file order and each round's
/// DAG is finalized the moment its root "round" span closes (the 'E'
/// event with parent 0, which a well-formed trace emits after the
/// round's last delivery).  In retiring mode the finalized round's
/// spans are then released, so peak memory is O(concurrently-active
/// rounds), not O(file) -- what lets p2plb_trace digest 256k-node
/// traces.  analyze() is a retain-everything wrapper over this class.
///
/// Traces never rooted in a "round" span (e.g. maintenance) have no
/// close signal; their spans stay resident until finish().
class StreamingAnalyzer {
 public:
  /// `retire_completed`: release a round's spans once it is finalized
  /// (and skip the early finalize entirely when false, so a retaining
  /// run folds every event before any per-round pass -- the analyze()
  /// contract).
  explicit StreamingAnalyzer(bool retire_completed = true);

  /// Invoked once per finalized round, while the round's spans are
  /// still resident in spans() -- render reports here; in retiring
  /// mode they are gone when the callback returns.
  void set_round_sink(std::function<void(const RoundAnalysis&)> sink) {
    sink_ = std::move(sink);
  }

  void feed(const obs::TraceEvent& e);

  /// Finalize every still-open trace (a round whose root never closed
  /// keeps completion_time = -1).  Call exactly once, after the last
  /// feed().
  void finish();

  /// Spans currently resident (keyed by global span id).
  [[nodiscard]] const std::map<std::uint64_t, Span>& spans() const noexcept {
    return spans_;
  }
  /// Every finalized round so far, in finalize order.
  [[nodiscard]] const std::vector<RoundAnalysis>& rounds() const noexcept {
    return rounds_;
  }
  [[nodiscard]] std::size_t total_events() const noexcept {
    return total_events_;
  }
  /// Spans ever created (resident or retired).
  [[nodiscard]] std::size_t total_spans() const noexcept {
    return spans_created_;
  }
  [[nodiscard]] std::size_t other_traces() const noexcept {
    return other_traces_;
  }
  /// Memory-bound witnesses: current and peak resident state.
  [[nodiscard]] std::size_t active_traces() const noexcept {
    return ids_by_trace_.size();
  }
  [[nodiscard]] std::size_t retained_spans() const noexcept {
    return spans_.size();
  }
  [[nodiscard]] std::size_t peak_active_traces() const noexcept {
    return peak_traces_;
  }
  [[nodiscard]] std::size_t peak_retained_spans() const noexcept {
    return peak_spans_;
  }

 private:
  friend TraceAnalysis analyze(const std::vector<obs::TraceEvent>& events);

  void finalize_trace(std::uint64_t trace, std::vector<std::uint64_t>& ids);

  bool retire_;
  bool finished_ = false;
  std::function<void(const RoundAnalysis&)> sink_;
  std::map<std::uint64_t, Span> spans_;
  /// Span ids of each trace with resident state, first-seen order.
  std::map<std::uint64_t, std::vector<std::uint64_t>> ids_by_trace_;
  std::map<std::uint64_t, double> completion_by_trace_;
  std::vector<RoundAnalysis> rounds_;
  std::size_t total_events_ = 0;
  std::size_t spans_created_ = 0;
  std::size_t other_traces_ = 0;
  std::size_t peak_traces_ = 0;
  std::size_t peak_spans_ = 0;
};

/// Build spans, connectivity, critical paths, slack and histograms.
[[nodiscard]] TraceAnalysis analyze(
    const std::vector<obs::TraceEvent>& events);

/// Consistency checks; returns human-readable violations (empty = ok):
///   * each finished round's critical path ends exactly completion_time
///     after the round began;
///   * each round's causal DAG connects at least `min_connectivity` of
///     its spans.
[[nodiscard]] std::vector<std::string> validate(
    const std::vector<RoundAnalysis>& rounds, double min_connectivity = 0.99);
[[nodiscard]] std::vector<std::string> validate(
    const TraceAnalysis& analysis, double min_connectivity = 0.99);

/// Markdown report: per-round summary, critical path table, per-phase
/// hop-depth and fan-out histograms.
void write_markdown(const TraceAnalysis& analysis, std::ostream& os);

/// One round's Markdown section ("## Round <index+1> ..."), exactly as
/// write_markdown lays it out; `spans` must still hold the round's
/// spans (call from a StreamingAnalyzer round sink).
void write_round_markdown(const RoundAnalysis& r,
                          const std::map<std::uint64_t, Span>& spans,
                          std::size_t index, std::ostream& os);

/// Span-level CSV (one row per span of every round trace):
/// round,trace,span,parent,lane,name,start,end,slack,hop_depth,fan_out,
/// critical.
void write_csv(const TraceAnalysis& analysis, std::ostream& os);

/// The CSV header row, then one round's rows -- the streaming
/// counterparts of write_csv.
void write_csv_header(std::ostream& os);
void write_round_csv(const RoundAnalysis& r,
                     const std::map<std::uint64_t, Span>& spans,
                     std::size_t index, std::ostream& os);

}  // namespace p2plb::tracetool
