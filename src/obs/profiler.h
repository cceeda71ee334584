// Host-time profiler: wall-clock attribution over causal stacks.
//
// Sim-time observability (tracing, metrics) says what the *simulated*
// system did; this profiler says where the *host's* wall clock went while
// simulating it.  Frames are interned (name, layer) keys -- a network tag
// ("lb.vsa", layer "lb"), a protocol span name ("round"), the engine's
// dispatch ("engine.event", layer "sim") -- and samples aggregate into a
// stack trie whose paths are *causal* call-stacks: when the network sends
// a message while a profiler is attached, it captures the current stack
// id and re-enters it (plus the message's tag frame) around the delivery
// handler, exactly like the ambient SpanContext that Network::ContextScope
// carries for tracing.  A handler's cost therefore lands under the chain
// of phases that caused it, with zero per-call-site plumbing; immediate
// recursion (a chain of same-tag hops) collapses into one node so stacks
// stay phase-shaped instead of hop-deep.
//
// Accounting is exact, not sampled: every Scope reads the monotonic clock
// (through obs::wall_now_ns, the one audited shim) on entry and exit, and
// self-time telescopes -- a scope's self time is its elapsed time minus
// the elapsed time of its direct children, so the self times of all trie
// nodes sum to total_ns() with no residue.  Exports: a per-frame
// self/total/count table and a "p2plb-prof-1" text profile (tools/prof
// parses it, derives collapsed stacks for flamegraph.pl/speedscope, and
// joins the sim-time spans noted via note_span into a sim x host
// crosstab).
//
// Determinism contract (mirrors the stall detector and the null tracer):
// the profiler observes the wall clock but never feeds the schedule --
// attaching one allocates no event ids, schedules no events, and leaves
// every trace/metrics byte identical; only the profile output itself
// varies run to run.  The trie *structure* (frames, stacks, counts) is a
// pure function of the schedule; only the nanosecond columns are not.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/wallclock.h"

namespace p2plb::obs {

/// The layer a network tag belongs to: the prefix before the first '.'
/// ("lb.vsa" -> "lb"), or the whole tag when it has none.
[[nodiscard]] inline std::string_view tag_layer(std::string_view tag) noexcept {
  const std::size_t dot = tag.find('.');
  return dot == std::string_view::npos ? tag : tag.substr(0, dot);
}

/// Wall-time attribution over interned frames and causal stacks.
/// Not thread-safe (the simulator is single-threaded).
class Profiler {
 public:
  /// Index into the interned frame table.
  using FrameId = std::uint32_t;
  /// A node of the stack trie.  Strongly typed so the two Scope
  /// constructors (frame push vs. carried absolute stack) cannot be
  /// confused.
  enum class StackId : std::uint32_t {};
  /// The empty stack (the trie root; never holds time itself).
  static constexpr StackId kRootStack{0};
  /// Nanosecond clock; injectable so tests account deterministically.
  using ClockFn = std::uint64_t (*)();

  /// Causal stacks deeper than this stop growing: further pushes return
  /// the capped node, whose self time absorbs the tail.  Deep enough for
  /// many rounds of phase nesting, finite so pathological chains cannot
  /// balloon the trie.
  static constexpr std::uint16_t kMaxDepth = 64;

  explicit Profiler(ClockFn clock = &wall_now_ns) : clock_(clock) {
    P2PLB_REQUIRE(clock != nullptr);
    nodes_.emplace_back();  // node 0 = root
  }
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Map (name, layer) to its stable frame id, creating on first use.
  /// Neither part may contain whitespace or ';' (they would corrupt the
  /// collapsed-stack and p2plb-prof-1 encodings); name must be non-empty.
  FrameId intern(std::string_view name, std::string_view layer);

  /// The trie node for `frame` pushed on `parent`, creating it on first
  /// use.  Pushing a node's own frame again returns the node unchanged
  /// (immediate-recursion collapse), as does pushing past kMaxDepth.
  StackId push(StackId parent, FrameId frame);

  /// The ambient stack: whatever the innermost live Scope installed
  /// (kRootStack outside any scope).
  [[nodiscard]] StackId current() const noexcept { return current_; }

  /// RAII timing scope.  A null profiler makes either form a no-op, so
  /// call sites need no branches.
  class Scope {
   public:
    /// Time a frame as a child of the ambient stack (plain nesting).
    Scope(Profiler* profiler, FrameId frame) : profiler_(profiler) {
      if (profiler_ != nullptr)
        profiler_->enter(profiler_->push(profiler_->current_, frame));
    }
    /// Re-enter an absolute stack captured earlier via current()/push()
    /// -- the carried-stack form message deliveries use.
    Scope(Profiler* profiler, StackId stack) : profiler_(profiler) {
      if (profiler_ != nullptr) profiler_->enter(stack);
    }
    ~Scope() {
      if (profiler_ != nullptr) profiler_->exit();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler* profiler_;
  };

  /// Note a sim-time interval (a protocol phase, a whole round) for the
  /// sim x host crosstab.  `name` should match a frame name so the host
  /// axis can be joined; same constraints as intern() names.
  void note_span(std::string_view name, double sim_start, double sim_end);

  /// One row of the per-frame aggregate: `self_ns` is time attributed to
  /// the frame itself, `total_ns` includes everything nested beneath it
  /// (each nanosecond counted once per frame even when the frame repeats
  /// on a path), `count` is scope entries.
  struct FrameStat {
    std::string name;
    std::string layer;
    std::uint64_t count = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t total_ns = 0;
  };
  /// Aggregates in frame-id (interning) order; callers sort for top-K.
  [[nodiscard]] std::vector<FrameStat> frame_table() const;

  /// Total measured wall time: the summed elapsed time of all top-level
  /// scopes.  Self times over the whole trie sum to exactly this.
  [[nodiscard]] std::uint64_t total_ns() const noexcept { return total_ns_; }

  [[nodiscard]] std::size_t frame_count() const noexcept {
    return frames_.size();
  }
  /// Trie nodes including the root.
  [[nodiscard]] std::size_t stack_count() const noexcept {
    return nodes_.size();
  }

  struct SpanNote {
    std::string name;
    double sim_start = 0.0;
    double sim_end = 0.0;
  };
  [[nodiscard]] const std::vector<SpanNote>& notes() const noexcept {
    return notes_;
  }

  /// The "p2plb-prof-1" text profile: total_ns, span notes, the frame
  /// table and the stack trie (see tools/prof for the parser, which also
  /// derives collapsed flamegraph stacks from it).
  void write_profile(std::ostream& os) const;

  /// write_profile to `path`, whatever its suffix.  Throws
  /// PreconditionError on an unwritable path.
  void write_profile_file(const std::string& path) const;

 private:
  struct Frame {
    std::string name;
    std::string layer;
  };
  struct Node {
    StackId parent = kRootStack;
    FrameId frame = 0;
    std::uint16_t depth = 0;
    std::uint64_t count = 0;
    std::uint64_t self_ns = 0;
    // Ordered so every export iterates deterministically.
    std::map<FrameId, StackId> children;
  };
  /// One live Scope: where time currently accrues.
  struct Active {
    StackId stack;
    std::uint64_t start_ns;
    std::uint64_t child_ns;  ///< elapsed time of completed direct children
    StackId saved;           ///< ambient stack to restore on exit
  };

  void enter(StackId stack);
  void exit();

  [[nodiscard]] const Node& node(StackId id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }

  std::vector<Frame> frames_;
  // Lookup/insert only, never iterated.
  std::map<std::pair<std::string, std::string>, FrameId> frame_index_;
  std::vector<Node> nodes_;
  StackId current_ = kRootStack;
  std::vector<Active> active_;
  std::uint64_t total_ns_ = 0;
  std::vector<SpanNote> notes_;
  ClockFn clock_;
};

}  // namespace p2plb::obs
