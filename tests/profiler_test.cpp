// Tests for the host-time profiler (obs::Profiler) and the tools/prof
// analyzer.
//
// Accounting runs under an injected fake clock so every nanosecond is
// pinned: self times telescope (children subtract from parents) and sum
// to total_ns() exactly, immediate recursion collapses, the depth cap
// absorbs runaway chains, the p2plb-prof-1 export parses back losslessly
// through proftool::parse_profile, and proftool::write_collapsed derives
// pinned flamegraph stacks from it.  The determinism half
// is the acceptance gate: a traced 128-node timed round must produce
// byte-identical JSONL -- and allocate the identical ids -- whether a
// profiler is attached or never constructed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "golden_trace.h"
#include "lb/protocol_round.h"
#include "obs/binary_trace.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "prof_analysis.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace p2plb {
namespace {

using obs::Profiler;

// ---------------------------------------------------------------------------
// Fake clock: ClockFn is a plain function pointer, so the test advances
// a file-scope counter.
// ---------------------------------------------------------------------------

std::uint64_t g_fake_now = 0;
std::uint64_t fake_clock() { return g_fake_now; }

TEST(ProfilerFrames, InternIsStableAndValidated) {
  Profiler p(&fake_clock);
  const auto a = p.intern("round", "lb");
  EXPECT_EQ(p.intern("round", "lb"), a);
  EXPECT_NE(p.intern("round", "sim"), a);  // layer is part of the key
  EXPECT_NE(p.intern("vsa.match", "lb"), a);
  EXPECT_EQ(p.frame_count(), 3u);
  EXPECT_THROW((void)p.intern("", "lb"), PreconditionError);
  EXPECT_THROW((void)p.intern("has space", "lb"), PreconditionError);
  EXPECT_THROW((void)p.intern("semi;colon", "lb"), PreconditionError);
}

TEST(ProfilerFrames, TagLayerIsThePrefixBeforeTheFirstDot) {
  EXPECT_EQ(obs::tag_layer("lb.vsa"), "lb");
  EXPECT_EQ(obs::tag_layer("lb.vsa.extra"), "lb");
  EXPECT_EQ(obs::tag_layer("net"), "net");
}

TEST(ProfilerAccounting, SelfTimesTelescopeExactly) {
  g_fake_now = 0;
  Profiler p(&fake_clock);
  const auto a = p.intern("a", "x");
  const auto b = p.intern("b", "x");
  {
    const Profiler::Scope sa(&p, a);  // enters at t = 0
    g_fake_now = 10'000;
    {
      const Profiler::Scope sb(&p, b);  // enters at 10us
      g_fake_now = 17'000;
    }  // b: elapsed 7us, no children -> self 7us
    g_fake_now = 25'000;
  }  // a: elapsed 25us, child 7us -> self 18us

  EXPECT_EQ(p.total_ns(), 25'000u);
  const std::vector<Profiler::FrameStat> table = p.frame_table();
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table[0].name, "a");
  EXPECT_EQ(table[0].count, 1u);
  EXPECT_EQ(table[0].self_ns, 18'000u);
  EXPECT_EQ(table[0].total_ns, 25'000u);  // inclusive of b
  EXPECT_EQ(table[1].name, "b");
  EXPECT_EQ(table[1].self_ns, 7'000u);
  EXPECT_EQ(table[1].total_ns, 7'000u);
  // Sigma self == total: the telescoping invariant.
  EXPECT_EQ(table[0].self_ns + table[1].self_ns, p.total_ns());
}

TEST(ProfilerAccounting, ImmediateRecursionCollapsesToOneNode) {
  g_fake_now = 0;
  Profiler p(&fake_clock);
  const auto a = p.intern("hop", "net");
  {
    const Profiler::Scope outer(&p, a);
    g_fake_now = 5'000;
    {
      const Profiler::Scope inner(&p, a);  // same frame: same trie node
      g_fake_now = 9'000;
    }
    g_fake_now = 12'000;
  }
  EXPECT_EQ(p.stack_count(), 2u);  // root + one "hop" node
  const std::vector<Profiler::FrameStat> table = p.frame_table();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].count, 2u);  // both entries land on the node
  // Inner elapsed (4us) subtracts from outer's self, then lands back on
  // the same node: self still sums to total.
  EXPECT_EQ(table[0].self_ns, 12'000u);
  EXPECT_EQ(table[0].total_ns, 12'000u);
  EXPECT_EQ(p.total_ns(), 12'000u);
}

TEST(ProfilerAccounting, DepthCapAbsorbsRunawayChains) {
  Profiler p(&fake_clock);
  Profiler::StackId at = Profiler::kRootStack;
  for (int i = 0; i < 200; ++i)
    at = p.push(at, p.intern("f" + std::to_string(i), "x"));
  // The chain stops growing at kMaxDepth; further pushes return the
  // capped node instead of deepening.
  EXPECT_EQ(p.stack_count(), 1u + Profiler::kMaxDepth);
  EXPECT_EQ(p.push(at, p.intern("beyond", "x")), at);
}

TEST(ProfilerAccounting, CarriedStackReentryAttributesToTheCause) {
  g_fake_now = 0;
  Profiler p(&fake_clock);
  const auto phase = p.intern("round", "lb");
  const auto tag = p.intern("lb.vsa", "lb");
  Profiler::StackId carried{};
  {
    const Profiler::Scope s(&p, phase);
    carried = p.push(p.current(), tag);  // what Network::send captures
    g_fake_now = 3'000;
  }  // round: self 3us
  {
    // The delivery fires later, at top level -- but re-enters the stack
    // captured at send time, so its cost lands under "round".
    const Profiler::Scope s(&p, carried);
    g_fake_now = 8'000;
  }
  EXPECT_EQ(p.total_ns(), 8'000u);
  const std::vector<Profiler::FrameStat> table = p.frame_table();
  ASSERT_EQ(table.size(), 2u);
  EXPECT_EQ(table[0].name, "round");
  EXPECT_EQ(table[0].self_ns, 3'000u);
  EXPECT_EQ(table[0].total_ns, 8'000u);  // credits the carried delivery
  EXPECT_EQ(table[1].name, "lb.vsa");
  EXPECT_EQ(table[1].self_ns, 5'000u);
}

TEST(ProfilerAccounting, NullProfilerScopesAreNoOps) {
  const Profiler::Scope a(nullptr, Profiler::FrameId{3});
  const Profiler::Scope b(nullptr, Profiler::StackId{7});
  // Nothing to assert beyond "does not crash": both forms must be safe
  // without a profiler, because every call site passes its raw pointer.
}

// ---------------------------------------------------------------------------
// Exports.
// ---------------------------------------------------------------------------

/// Two-frame nest with pinned times: a self 18us, a;b self 7us.
Profiler& pinned_profiler() {
  static Profiler p(&fake_clock);
  if (p.total_ns() == 0) {
    g_fake_now = 0;
    const auto a = p.intern("a", "x");
    const auto b = p.intern("b", "y");
    const Profiler::Scope sa(&p, a);
    g_fake_now = 10'000;
    {
      const Profiler::Scope sb(&p, b);
      g_fake_now = 17'000;
    }
    g_fake_now = 25'000;
  }
  return p;
}

TEST(ProfilerExport, CollapsedStacksAreFlamegraphFolded) {
  std::stringstream profile;
  pinned_profiler().write_profile(profile);
  std::ostringstream os;
  proftool::write_collapsed(proftool::parse_profile(profile), os);
  EXPECT_EQ(os.str(), "a 18\na;b 7\n");
}

TEST(ProfilerExport, ProfileRoundTripsThroughTheAnalyzer) {
  Profiler& p = pinned_profiler();
  p.note_span("a", 0.0, 12.5);
  std::stringstream ss;
  p.write_profile(ss);
  EXPECT_EQ(ss.str().rfind("# p2plb-prof-1\n", 0), 0u);

  const proftool::Profile profile = proftool::parse_profile(ss);
  EXPECT_EQ(profile.total_ns, 25'000u);
  ASSERT_EQ(profile.frames.size(), 2u);
  EXPECT_EQ(profile.frames[0].name, "a");
  EXPECT_EQ(profile.frames[0].layer, "x");
  ASSERT_EQ(profile.stacks.size(), 3u);  // root + 2
  EXPECT_EQ(profile.stacks[1].self_ns, 18'000u);
  EXPECT_EQ(profile.stacks[2].parent, 1u);
  ASSERT_EQ(profile.spans.size(), 1u);
  EXPECT_EQ(profile.spans[0].sim_end, 12.5);

  // The analyzer's aggregations match the profiler's own.
  const std::vector<proftool::FrameRow> rows = proftool::frame_rows(profile);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "a");  // sorted by self desc
  EXPECT_EQ(rows[0].self_ns, 18'000u);
  EXPECT_EQ(rows[0].total_ns, 25'000u);
  EXPECT_DOUBLE_EQ(proftool::coverage(rows, profile.total_ns, 2), 1.0);
  EXPECT_DOUBLE_EQ(proftool::coverage(rows, profile.total_ns, 1),
                   18'000.0 / 25'000.0);

  // The crosstab joins the span note to frame "a"'s inclusive time.
  const std::vector<proftool::CrosstabRow> cross =
      proftool::crosstab(profile);
  ASSERT_EQ(cross.size(), 1u);
  EXPECT_EQ(cross[0].name, "a");
  EXPECT_DOUBLE_EQ(cross[0].sim_time, 12.5);
  EXPECT_EQ(cross[0].host_ns, 25'000u);
}

TEST(ProfilerExport, NoteSpanValidates) {
  Profiler p(&fake_clock);
  EXPECT_THROW(p.note_span("", 0.0, 1.0), PreconditionError);
  EXPECT_THROW(p.note_span("bad name", 0.0, 1.0), PreconditionError);
  EXPECT_THROW(p.note_span("ok", 2.0, 1.0), PreconditionError);
  p.note_span("ok", 1.0, 2.0);
  ASSERT_EQ(p.notes().size(), 1u);
  EXPECT_EQ(p.notes()[0].name, "ok");
}

TEST(ProftoolParser, RejectsCorruptProfiles) {
  const auto parse = [](const std::string& text) {
    std::istringstream is(text);
    return proftool::parse_profile(is);
  };
  EXPECT_THROW((void)parse("not a profile\n"), PreconditionError);
  EXPECT_THROW((void)parse("# p2plb-prof-1\nbogus line\n"),
               PreconditionError);
  // Stack 1 naming itself as parent violates parent < id.
  EXPECT_THROW((void)parse("# p2plb-prof-1\ntotal_ns 1\nframe 0 - f\n"
                           "stack 1 1 0 1 1\n"),
               PreconditionError);
  // Frame ids must be dense and in order.
  EXPECT_THROW((void)parse("# p2plb-prof-1\ntotal_ns 1\nframe 1 - f\n"),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// Determinism acceptance: attaching a profiler to a traced timed round
// changes no trace byte and allocates no ids.
// ---------------------------------------------------------------------------

chord::Ring make_ring(std::size_t nodes, std::uint64_t seed) {
  Rng rng(seed);
  auto ring = workload::build_ring(
      nodes, 5, workload::CapacityProfile::gnutella_like(), rng);
  const auto model = workload::scaled_load_model(
      ring, workload::LoadDistribution::kGaussian, 0.25, 1.0);
  workload::assign_loads(ring, model, rng);
  return ring;
}

struct TracedRun {
  std::string jsonl;
  std::uint64_t ids = 0;
  double completion = 0.0;
  std::uint64_t profiled_frames = 0;
};

TracedRun run_traced_round(bool with_profiler) {
  auto ring = make_ring(128, 21);
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint x, sim::Endpoint y) {
    return x == y ? 0.0 : 1.0;
  });
  obs::Tracer tracer;
  std::ostringstream jsonl;
  obs::JsonlTraceSink sink(jsonl);
  tracer.set_sink(&sink);
  net.attach_tracer(&tracer);
  std::optional<Profiler> profiler;
  if (with_profiler) net.attach_profiler(&profiler.emplace());
  Rng rng(23);
  lb::ProtocolRound round(net, ring, {}, rng);
  round.start();
  engine.run();
  EXPECT_TRUE(round.done());
  TracedRun out;
  out.jsonl = jsonl.str();
  out.ids = tracer.ids_allocated();
  out.completion = round.report().completion_time;
  out.profiled_frames = profiler ? profiler->frame_count() : 0;
  return out;
}

TEST(ProfilerDeterminism, TracedRoundIsByteIdenticalWithAndWithout) {
  const TracedRun without = run_traced_round(false);
  const TracedRun with = run_traced_round(true);
  EXPECT_GT(without.jsonl.size(), 0u);
  EXPECT_EQ(with.jsonl, without.jsonl);
  EXPECT_EQ(with.ids, without.ids);
  EXPECT_EQ(with.completion, without.completion);
  // And the profiled run actually measured something: the engine frame,
  // the net/tag frames and the lb span frames all appear.
  EXPECT_GE(with.profiled_frames, 4u);
}

// ---------------------------------------------------------------------------
// The golden round (tests/golden_trace.h), profiled under a ticking clock:
// every Scope entry and exit reads the clock once, so the nanosecond
// columns count clock reads and the whole profile is a pure function of
// the scopes the engine and the network open.
// ---------------------------------------------------------------------------

std::uint64_t g_ticks = 0;
std::uint64_t tick_clock() { return ++g_ticks; }

/// The frame and stack lines of the golden round's p2plb-prof-1 profile.
std::string golden_frames_and_stacks(bool traced) {
  g_ticks = 0;
  Profiler p(&tick_clock);
  obs::Tracer tracer;
  golden::run_golden_round(traced ? &tracer : nullptr, nullptr, &p);
  std::ostringstream profile;
  p.write_profile(profile);
  std::istringstream in(profile.str());
  std::string out;
  for (std::string line; std::getline(in, line);)
    if (line.rfind("frame ", 0) == 0 || line.rfind("stack ", 0) == 0)
      out += line + "\n";
  return out;
}

// Pinned before the send path moved to one delivery wrapper per message;
// the frame ids, the causal stacks and every count must not move.
constexpr const char* kGoldenFramesAndStacks = R"(frame 0 sim engine.event
frame 1 net net
frame 2 lb round
frame 3 lb lb.aggregation
frame 4 lb lb.dissemination
frame 5 lb lb.vsa
frame 6 lb vsa.match
frame 7 lb transfer
frame 8 lb lb.transfer
stack 1 0 2 1 1
stack 2 1 3 6 6
stack 3 0 0 25 50
stack 4 2 4 7 7
stack 5 4 5 9 10
stack 6 5 6 1 1
stack 7 6 5 2 3
stack 8 7 7 1 1
stack 9 8 8 1 1
)";

TEST(ProfilerGolden, FramesAndStacksMatchPinnedOutput) {
  EXPECT_EQ(golden_frames_and_stacks(false), kGoldenFramesAndStacks);
  // Tracing reads no clock: the traced round profiles identically.
  EXPECT_EQ(golden_frames_and_stacks(true), kGoldenFramesAndStacks);
}

TEST(ProfilerAttach, NetworkHandsItsProfilerToTheEngine) {
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint, sim::Endpoint) { return 1.0; });
  Profiler p(&fake_clock);
  net.attach_profiler(&p);
  EXPECT_EQ(engine.profiler(), &p);
  EXPECT_EQ(p.frame_table().front().name, "engine.event");  // frame 0
  net.attach_profiler(&p);  // attaching twice is harmless
  engine.attach_profiler(&p);
  EXPECT_EQ(p.frame_count(), 2u);  // engine.event, net
  net.attach_profiler(nullptr);
  EXPECT_EQ(engine.profiler(), nullptr);
  EXPECT_EQ(net.profiler(), nullptr);
}

TEST(ProfilerGolden, ProfiledRoundNotesItsPhaseAndRoundSpans) {
  auto ring = golden::golden_ring();
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint x, sim::Endpoint y) {
    return x == y ? 0.0 : 1.0;
  });
  engine.schedule_at(3.0, [] {});
  engine.run();  // the round starts at t = 3, not 0
  Profiler p(&fake_clock);
  net.attach_profiler(&p);
  Rng rng(7);
  lb::ProtocolRound round(net, ring, {}, rng);
  round.start();
  engine.run();
  ASSERT_TRUE(round.done());

  const auto& phases = round.report().phases;
  const std::vector<Profiler::SpanNote>& notes = p.notes();
  ASSERT_EQ(notes.size(), 5u);
  const char* const kNames[lb::kPhaseCount] = {
      "lb.aggregation", "lb.dissemination", "lb.vsa", "lb.transfer"};
  double round_end = phases[0].start;
  for (std::size_t i = 0; i < lb::kPhaseCount; ++i) {
    EXPECT_EQ(notes[i].name, kNames[i]);
    EXPECT_EQ(notes[i].sim_start, phases[i].start);
    EXPECT_EQ(notes[i].sim_end, phases[i].end);
    round_end = std::max(round_end, phases[i].end);
  }
  EXPECT_EQ(notes[4].name, "round");
  EXPECT_EQ(notes[4].sim_start, 3.0);
  EXPECT_EQ(notes[4].sim_end, round_end);
  EXPECT_EQ(round_end - 3.0, round.report().completion_time);
}

}  // namespace
}  // namespace p2plb
