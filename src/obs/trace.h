// Structured tracing over simulated time.
//
// A Tracer records timestamped events -- spans (begin/end), async spans
// (begin/end correlated by id, free to overlap and to close out of
// order), instants, and flow arrows -- each on a named *lane* (a display
// track: "lb.aggregation", "lb.transfer", "net", ...).  Timestamps are
// supplied by the caller in sim::Time units, so obs stays below sim in
// the layer graph and a (seed, scenario) pair always produces the
// identical trace.
//
// Causality: an event may carry a SpanContext -- (trace, span, parent)
// ids in the Dapper style.  `trace` groups one causal DAG (one balancing
// round, one maintenance repair chain), `span` is the event's own
// identity as a DAG node, and `parent` names the span that caused it.
// Ids are allocated by the Tracer itself (new_trace_id / new_span_id),
// monotonically from 1, so a (seed, scenario) pair assigns the identical
// ids every run and an untraced run allocates none at all.  Producers
// thread contexts through their message envelopes (see sim::Network);
// tools/p2plb_trace reconstructs the DAGs and computes critical paths.
//
// The Tracer keeps no events: it samples, counts and forwards each one
// to its TraceSink as it happens, so trace memory stays O(1) in run
// length, and with no sink attached events are counted and dropped.
// Drivers open their sink with obs::open_trace_sink (obs/binary_trace.h:
// JSONL -- one JSON object per line, stable field order, causal ids as
// top-level "trace"/"span"/"parent" fields; the form golden tests pin --
// or the compact p2plb-btrace-1); tests read through a sink too.  The
// Chrome trace_event view for Perfetto is derived from either file by
// `p2plb_trace --out FILE.json`.
//
// The null-tracer fast path is a null pointer at the instrumentation
// site: every producer holds an `obs::Tracer*` that defaults to nullptr
// and skips all event construction *and id allocation* when unset, so an
// untraced run does no extra work beyond one pointer test per hook.
#pragma once

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace p2plb::obs {

/// One key/value argument of a trace event.  `json` holds the value
/// pre-encoded as a JSON scalar so exporters never re-interpret it.
struct Arg {
  std::string key;
  std::string json;
};

/// Encode a JSON string scalar (quotes + escapes).
[[nodiscard]] std::string json_string(std::string_view s);
/// Encode a JSON number: integral values print without a decimal point,
/// others with up to 6 fractional digits (trailing zeros trimmed) --
/// deterministic across platforms.
[[nodiscard]] std::string json_number(double v);

[[nodiscard]] Arg arg(std::string key, std::string_view value);
[[nodiscard]] inline Arg arg(std::string key, const char* value) {
  return arg(std::move(key), std::string_view(value));
}
[[nodiscard]] Arg arg(std::string key, double value);
template <std::integral T>
[[nodiscard]] Arg arg(std::string key, T value) {
  return arg(std::move(key), static_cast<double>(value));
}

/// Causal coordinates of an event (all ids 0 = unset).  `trace` names
/// the causal DAG the event belongs to, `span` the event's own identity
/// as a DAG node, `parent` the span that caused it (0 for a DAG root).
struct SpanContext {
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;

  /// True when the event belongs to some trace.
  [[nodiscard]] bool in_trace() const noexcept { return trace != 0; }
};

/// What kind of mark an event is; values match the Chrome trace "ph"
/// letters they export as.
enum class EventKind : std::uint8_t {
  kBegin,       ///< "B" -- sync span open (LIFO per lane)
  kEnd,         ///< "E" -- sync span close
  kAsyncBegin,  ///< "b" -- async span open, correlated by id
  kAsyncEnd,    ///< "e" -- async span close
  kInstant,     ///< "i" -- point event
  kFlowStart,   ///< "s" -- flow (arrow) origin, correlated by id
  kFlowEnd,     ///< "f" -- flow (arrow) target
};

/// One recorded event.
struct TraceEvent {
  double time = 0.0;  ///< sim::Time units
  EventKind kind = EventKind::kInstant;
  std::string lane;
  std::string name;
  std::uint64_t id = 0;  ///< async-span / flow correlation id (else 0)
  SpanContext ctx;       ///< causal ids (all zero for uncausal events)
  std::vector<Arg> args;
};

/// True when `kind` correlates by id (async spans and flows); exactly
/// these kinds export an "id" field.
[[nodiscard]] bool kind_has_id(EventKind kind) noexcept;

/// The JSONL / Chrome "ph" letter for `kind` (B E b e i s f).
[[nodiscard]] char kind_phase_letter(EventKind kind) noexcept;

/// Write `args` as one JSON object ({"key":value,...}), values verbatim.
void write_args_object(std::ostream& os, const std::vector<Arg>& args);

/// Write one event as a single JSONL line (trailing newline included).
/// The streaming JSONL sink and the binary-trace decoder share this
/// writer, so every JSONL producer is byte-identical by construction.
void write_jsonl_event(std::ostream& os, const TraceEvent& e);

/// Streaming consumer of trace events: a Tracer forwards each event to
/// its sink as it happens.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& e) = 0;
  virtual void flush() {}
};

/// Event emitter: one member per event kind, each taking the event's
/// causal context (`{}` for an uncausal event).  Not thread-safe (the
/// simulator is single-threaded).
class Tracer {
 public:
  void begin(double t, std::string_view lane, std::string_view name,
             const SpanContext& ctx, std::vector<Arg> args = {});
  void end(double t, std::string_view lane, std::string_view name,
           const SpanContext& ctx, std::vector<Arg> args = {});
  void async_begin(double t, std::string_view lane, std::string_view name,
                   std::uint64_t id, const SpanContext& ctx,
                   std::vector<Arg> args = {});
  void async_end(double t, std::string_view lane, std::string_view name,
                 std::uint64_t id, const SpanContext& ctx,
                 std::vector<Arg> args = {});
  void instant(double t, std::string_view lane, std::string_view name,
               const SpanContext& ctx, std::vector<Arg> args = {});
  /// Flow arrow from (t, lane of flow_start) to (t, lane of flow_end),
  /// correlated by `id` (producers use the message's span id).
  void flow_start(double t, std::string_view lane, std::string_view name,
                  std::uint64_t id);
  void flow_end(double t, std::string_view lane, std::string_view name,
                std::uint64_t id);

  /// Allocate a fresh trace / span id (monotonic from 1; deterministic).
  [[nodiscard]] std::uint64_t new_trace_id() noexcept {
    return ++last_trace_id_;
  }
  [[nodiscard]] std::uint64_t new_span_id() noexcept {
    return ++last_span_id_;
  }
  /// A context for a new span caused by `parent`; starts a fresh trace
  /// when the parent is not in one.
  [[nodiscard]] SpanContext child_of(const SpanContext& parent) {
    return SpanContext{
        parent.trace != 0 ? parent.trace : new_trace_id(), new_span_id(),
        parent.span};
  }
  /// Total ids handed out so far -- the null-tracer tests pin this at
  /// zero for untraced runs.
  [[nodiscard]] std::uint64_t ids_allocated() const noexcept {
    return last_trace_id_ + last_span_id_;
  }

  /// Forward events to `sink` as they happen (nullptr drops them; they
  /// are still counted).
  void set_sink(TraceSink* sink) noexcept { sink_ = sink; }

  /// Keep `keep` of every `of` traces, chosen by a seeded hash of the
  /// trace id -- a pure function, so the decision is identical at every
  /// call site and across runs (same seed -> same kept set).  Id
  /// allocation is unaffected: sampling suppresses emission only, so
  /// the schedule contract (and the network's traffic tallies, which never
  /// pass through the tracer) stays exact.  keep == of disables.
  void set_trace_sampling(std::uint64_t keep, std::uint64_t of,
                          std::uint64_t seed);
  /// The active sampling policy (keep == of means "keep everything"),
  /// so run artifacts -- flight-recorder dumps, profile headers -- can
  /// record which kept set a trace file represents.
  [[nodiscard]] std::uint64_t sample_keep() const noexcept {
    return sample_keep_;
  }
  [[nodiscard]] std::uint64_t sample_of() const noexcept { return sample_of_; }
  [[nodiscard]] std::uint64_t sample_seed() const noexcept {
    return sample_seed_;
  }
  /// True when events of `trace` are kept under the current sampling
  /// policy.  Uncausal events (trace 0) are always kept.
  [[nodiscard]] bool keeps(std::uint64_t trace) const noexcept {
    if (sample_of_ <= 1 || trace == 0) return true;
    // splitmix64 finalizer over (trace ^ seed): well-mixed, branchless,
    // and independent of everything but the two inputs.
    std::uint64_t h = trace ^ sample_seed_;
    h += 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
    return h % sample_of_ < sample_keep_;
  }

  /// Events emitted (forwarded or, with no sink, dropped), after
  /// sampling.
  [[nodiscard]] std::size_t event_count() const noexcept {
    return recorded_;
  }

 private:
  void push(double t, EventKind kind, std::string_view lane,
            std::string_view name, std::uint64_t id, const SpanContext& ctx,
            std::vector<Arg> args);

  TraceSink* sink_ = nullptr;
  std::size_t recorded_ = 0;
  std::uint64_t last_trace_id_ = 0;
  std::uint64_t last_span_id_ = 0;
  std::uint64_t sample_keep_ = 1;
  std::uint64_t sample_of_ = 1;
  std::uint64_t sample_seed_ = 0;
};

}  // namespace p2plb::obs
