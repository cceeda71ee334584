// End-to-end benchmark program: runs one workload in this process and
// prints one JSON object describing every operation it ran.
//
// Layers are timed from outside: wall-clock stopwatches wrap the public
// calls this file makes (topology generation, oracle prefill, ring build,
// proximity map, the ProtocolRound constructor, the event loop, the tree
// maintenance bootstrap), and counts come from public counters only
// (EngineIntrospection, Network::totals, BalanceReport,
// DistanceOracle::dijkstra_runs, MaintenanceProtocol::messages).  With
// --traced the event loop is split by layer through obs::Profiler's frame
// table plus a timing shim around the latency callable, and the round
// constructor's pipeline is re-run stage by stage on a copy of the ring
// and rng.
//
// A process sets up its workload's fixed inputs once (the topology and
// the oracle rows of every attachment vertex) and then runs `reps`
// identical operations, each from a freshly built ring: one balancing
// round, or one churn episode of the tree maintenance protocol.  Every
// operation checks its invariants and the process exits non-zero on the
// first violation.  bench_e2e/run.py launches the processes, compares the
// outcome digests and summarises.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chord/ring.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/rng.h"
#include "ktree/protocol.h"
#include "ktree/tree.h"
#include "lb/protocol_round.h"
#include "lb/proximity.h"
#include "lb/reporting.h"
#include "obs/profiler.h"
#include "obs/wallclock.h"
#include "sim/engine.h"
#include "sim/network.h"
#include "topo/distance_oracle.h"
#include "topo/transit_stub.h"
#include "workload/capacity.h"
#include "workload/churn.h"
#include "workload/scenario.h"

namespace {

using namespace p2plb;

constexpr std::size_t kServersPerNode = 5;  // the paper's V
constexpr std::uint32_t kTreeDegree = 2;
// The paper evaluates on one ts5k-large and one ts5k-small graph.  Each
// workload likewise keeps its graph fixed and draws the overlay (node
// placement, capacities, loads, churn) from --seed, so the oracle's size
// and fill cost do not change from seed to seed.
constexpr std::uint64_t kTopologySeed = 2004;

// Maintenance workload: converge, churn, reconverge (all in check
// intervals).
constexpr sim::Time kCheckInterval = 1.0;
constexpr sim::Time kBootstrapSpan = 60.0;
constexpr sim::Time kChurnSpan = 100.0;
constexpr double kSessionMean = 200.0;
constexpr sim::Time kReconvergeBudget = 200.0;

enum class Kind : std::uint8_t { kRound, kChurn };
enum class Topo : std::uint8_t { kNone, kLarge, kSmall };

struct Workload {
  std::string_view name;
  Kind kind;
  Topo topo;
  lb::BalanceMode mode;
  std::size_t nodes;
  std::size_t reps;  ///< operations per process
};

constexpr std::array<Workload, 4> kWorkloads{{
    {"fig7_aware_16k", Kind::kRound, Topo::kLarge,
     lb::BalanceMode::kProximityAware, 16384, 4},
    {"ts5k_ignorant_32k", Kind::kRound, Topo::kSmall,
     lb::BalanceMode::kProximityIgnorant, 32768, 2},
    {"unit_ignorant_32k", Kind::kRound, Topo::kNone,
     lb::BalanceMode::kProximityIgnorant, 32768, 3},
    {"maint_churn_1k", Kind::kChurn, Topo::kNone,
     lb::BalanceMode::kProximityIgnorant, 1024, 3},
}};

// Independent rng streams derived from --seed, one per input.
enum Stream : std::uint64_t {
  kAttachStream = 1,
  kRingStream,
  kProximityStream,
  kRoundStream,
  kChurnStream
};

[[nodiscard]] Rng stream(std::uint64_t seed, Stream s) {
  return Rng(seed).fork(s);
}

[[nodiscard]] double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(obs::wall_now_ns() - t0_ns) * 1e-9;
}

template <typename Fn>
[[nodiscard]] double timed(Fn&& fn) {
  const std::uint64_t t0 = obs::wall_now_ns();
  fn();
  return seconds_since(t0);
}

void require(bool ok, const std::string& what) {
  if (!ok) throw InvariantError(what);
}

/// A double with all its digits (round-trips exactly through JSON).
[[nodiscard]] std::string number(double value) {
  require(std::isfinite(value), "non-finite value");
  std::array<char, 32> buf{};
  std::snprintf(buf.data(), buf.size(), "%.17g", value);
  return buf.data();
}

/// Named numbers in insertion order, printed as one JSON object.
class Fields {
 public:
  explicit Fields(std::initializer_list<std::string_view> names = {}) {
    for (const std::string_view n : names) set(n, 0.0);
  }
  void set(std::string_view name, double value) {
    for (auto& [n, v] : fields_)
      if (n == name) {
        v = value;
        return;
      }
    fields_.emplace_back(std::string(name), value);
  }
  void set(std::string_view name, std::uint64_t value) {
    set(name, static_cast<double>(value));
  }
  void write(std::ostream& os) const {
    os << '{';
    for (std::size_t i = 0; i < fields_.size(); ++i)
      os << (i == 0 ? "" : ", ") << '"' << fields_[i].first
         << "\": " << number(fields_[i].second);
    os << '}';
  }

 private:
  std::vector<std::pair<std::string, double>> fields_;
};

/// One operation's exact outcome (the digest: equal on every operation
/// and every process of one workload and seed) and its per-layer
/// numbers.  Every workload reports every key.
struct Op {
  Fields digest{"topo.dijkstra_runs",
                "ktree.nodes",
                "lb.messages.aggregation",
                "lb.messages.dissemination",
                "lb.messages.vsa",
                "lb.messages.transfer",
                "lb.completion_sim",
                "lb.heavy_before",
                "lb.heavy_after",
                "lb.transfers_planned",
                "lb.transfers_applied",
                "lb.moved_load",
                "sim.events",
                "sim.wheel_inserts",
                "sim.batch_splices",
                "sim.early_inserts",
                "sim.far_inserts",
                "net.messages",
                "net.bytes",
                "net.mean_latency",
                "ktree.maint.instances",
                "ktree.maint.messages",
                "ktree.maint.reconverge_sim",
                "chord.joins",
                "chord.crashes"};
  Fields layer{"setup_s",
               "run_s",
               "events_per_s",
               "topo.generate_s",
               "topo.oracle_fill_s",
               "topo.oracle_rows_mb",
               "workload.ring_build_s",
               "lb.proximity_map_s",
               "lb.round_ctor_s",
               "ktree.maint.bootstrap_s",
               "sim.events_per_tick",
               "sim.arena_high_water"};
};

/// Traced-only per-layer numbers.
constexpr std::array<std::string_view, 13> kTracedKeys{
    "ktree.build_s",         "lb.aggregate_lbi_s",    "lb.classify_s",
    "lb.build_entries_s",    "lb.run_vsa_s",          "lb.aggregation.self_s",
    "lb.dissemination.self_s", "lb.vsa.self_s",       "lb.transfer.self_s",
    "lb.handlers_s",         "sim.dispatch_self_s",   "topo.oracle_lookup_s",
    "topo.oracle_lookups"};

/// Wall time and count of every latency lookup a traced operation makes.
struct LookupTimer {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;

  template <typename Fn>
  sim::Time time(Fn&& lookup) {
    const std::uint64_t t0 = obs::wall_now_ns();
    const sim::Time lat = lookup();
    ns += obs::wall_now_ns() - t0;
    ++calls;
    return lat;
  }
};

/// A network latency callable routed through a LookupTimer.
struct TimedLatency {
  sim::Latency inner;
  LookupTimer timer;

  [[nodiscard]] sim::Latency latency() {
    return {this, [](void* ctx, sim::Endpoint from,
                     sim::Endpoint to) -> sim::Time {
              auto& self = *static_cast<TimedLatency*>(ctx);
              return self.timer.time([&] { return self.inner(from, to); });
            }};
  }
};

/// Inputs fixed for the life of the process.  Holds the oracle by
/// reference to its own topology, so it is filled in place and never
/// moved.
struct Setup {
  std::size_t nodes = 0;
  std::optional<topo::TransitStubTopology> topology;
  std::optional<topo::DistanceOracle> oracle;
  std::vector<std::uint32_t> attachments;
  sim::Latency latency;
  double generate_s = 0.0;
  double fill_s = 0.0;
  double total_s = 0.0;  ///< including the glue between the two stages
};

void prepare(const Workload& w, std::uint64_t seed, Setup& s) {
  const std::uint64_t t0 = obs::wall_now_ns();
  s.generate_s = timed([&] {
    if (w.topo == Topo::kNone) return;
    Rng rng(kTopologySeed);
    s.topology.emplace(topo::generate_transit_stub(
        w.topo == Topo::kLarge ? topo::TransitStubParams::ts5k_large()
                               : topo::TransitStubParams::ts5k_small(),
        rng, w.topo == Topo::kLarge ? "ts5k-large" : "ts5k-small"));
  });
  if (s.topology) {
    // One attachment per node over distinct stub vertices (reused once
    // every stub has a node), as the figure benchmarks attach them.
    const std::vector<topo::Vertex> stubs = s.topology->stub_vertices();
    Rng rng = stream(seed, kAttachStream);
    const std::vector<std::size_t> picks =
        rng.sample_indices(stubs.size(), std::min(s.nodes, stubs.size()));
    s.attachments.resize(s.nodes);
    for (std::size_t i = 0; i < s.nodes; ++i)
      s.attachments[i] = stubs[picks[i % picks.size()]];
    const topo::Graph& graph = s.topology->graph;
    s.oracle.emplace(graph, graph.vertex_count());
    std::vector<std::pair<topo::Vertex, topo::Vertex>> sources;
    sources.reserve(picks.size());
    for (const std::size_t p : picks) sources.emplace_back(stubs[p], stubs[p]);
    s.fill_s = timed([&] { (void)s.oracle->distances(sources); });
    s.latency = s.oracle->latency();
  } else {
    s.latency = {nullptr,
                 [](void*, sim::Endpoint a, sim::Endpoint b) -> sim::Time {
                   return a == b ? 0.0 : 1.0;
                 }};
  }
  s.total_s = seconds_since(t0);
}

/// A fresh operation record carrying the process-wide setup numbers.
Op make_op(const Setup& s, bool traced) {
  Op op;
  if (traced)
    for (const std::string_view key : kTracedKeys) op.layer.set(key, 0.0);
  op.layer.set("topo.generate_s", s.generate_s);
  op.layer.set("topo.oracle_fill_s", s.fill_s);
  if (s.oracle) {
    const std::uint64_t runs = s.oracle->dijkstra_runs();
    op.digest.set("topo.dijkstra_runs", runs);
    op.layer.set("topo.oracle_rows_mb",
                 static_cast<double>(runs) *
                     static_cast<double>(s.topology->graph.vertex_count()) *
                     8.0 / (1024.0 * 1024.0));
  }
  return op;
}

/// Engine counters accumulated since `base` (the loop's share when the
/// engine also ran a bootstrap).
void record_engine(const sim::Engine& engine,
                   const sim::EngineIntrospection& base, double run_s,
                   Op& op) {
  const sim::EngineIntrospection e = engine.introspection();
  const std::uint64_t events = e.executed - base.executed;
  op.digest.set("sim.events", events);
  op.digest.set("sim.wheel_inserts", e.wheel_inserts - base.wheel_inserts);
  op.digest.set("sim.batch_splices", e.batch_splices - base.batch_splices);
  op.digest.set("sim.early_inserts", e.early_inserts - base.early_inserts);
  op.digest.set("sim.far_inserts", e.far_inserts - base.far_inserts);
  const std::uint64_t ticks = e.batch_refills - base.batch_refills;
  op.layer.set("sim.events_per_tick",
               ticks == 0 ? 0.0
                          : static_cast<double>(events) /
                                static_cast<double>(ticks));
  op.layer.set("sim.arena_high_water", e.arena_high_water);
  op.layer.set("events_per_s", static_cast<double>(events) / run_s);
}

/// Self time of every profiler frame of interest, plus the lb handlers'
/// self time net of the latency lookups they made.
void record_profile(const obs::Profiler& profiler, const LookupTimer& lookups,
                    Kind kind, Op& op) {
  const double lookup_s = static_cast<double>(lookups.ns) * 1e-9;
  op.layer.set("topo.oracle_lookup_s", lookup_s);
  op.layer.set("topo.oracle_lookups", lookups.calls);
  double lb_self_s = 0.0;
  for (const obs::Profiler::FrameStat& f : profiler.frame_table()) {
    const double self_s = static_cast<double>(f.self_ns) * 1e-9;
    if (f.name == "engine.event") op.layer.set("sim.dispatch_self_s", self_s);
    if (f.layer != "lb") continue;
    lb_self_s += self_s;
    for (const std::string_view tag :
         {lb::kTagAggregation, lb::kTagDissemination, lb::kTagVsa,
          lb::kTagTransfer})
      if (f.name == tag) op.layer.set(std::string(tag) + ".self_s", self_s);
  }
  if (kind == Kind::kRound) op.layer.set("lb.handlers_s", lb_self_s - lookup_s);
}

/// Re-run the round constructor's decision pipeline stage by stage on
/// copies of its inputs; returns the number of transfers it plans.
std::size_t split_constructor(const chord::Ring& ring, Rng rng,
                              std::span<const chord::Key> keys,
                              const lb::BalancerConfig& bal, Op& op) {
  const chord::Ring copy = ring;
  std::optional<ktree::KTree> tree;
  op.layer.set("ktree.build_s",
               timed([&] { tree.emplace(copy, bal.tree_degree); }));
  lb::LbiAggregation agg;
  op.layer.set("lb.aggregate_lbi_s", timed([&] {
                 agg = lb::aggregate_lbi(*tree, rng);
                 (void)lb::disseminate_lbi(*tree);
               }));
  lb::Classification before;
  op.layer.set("lb.classify_s", timed([&] {
                 before = lb::classify_all(copy, agg.system, bal.epsilon);
               }));
  lb::VsaEntries entries;
  op.layer.set("lb.build_entries_s", timed([&] {
                 entries = bal.mode == lb::BalanceMode::kProximityAware
                               ? lb::build_entries_proximity(
                                     *tree, before, keys, bal.selection)
                               : lb::build_entries_ignorant(
                                     *tree, before, agg.reporter_vs,
                                     bal.selection);
               }));
  lb::VsaTrace trace;
  lb::VsaParams params{bal.rendezvous_threshold, agg.system.min_load,
                       bal.key_local_rendezvous};
  params.trace = &trace;
  lb::VsaResult vsa;
  op.layer.set("lb.run_vsa_s",
               timed([&] { vsa = lb::run_vsa(*tree, entries, params); }));
  return vsa.assignments.size();
}

Op run_round(const Workload& w, Setup& s, std::uint64_t seed, bool traced) {
  Op op = make_op(s, traced);
  const std::uint64_t t0 = obs::wall_now_ns();
  chord::Ring ring;
  op.layer.set("workload.ring_build_s", timed([&] {
                 Rng rng = stream(seed, kRingStream);
                 ring = workload::build_ring(
                     s.nodes, kServersPerNode,
                     workload::CapacityProfile::gnutella_like(), rng,
                     s.attachments);
                 workload::assign_loads(
                     ring,
                     workload::scaled_load_model(
                         ring, workload::LoadDistribution::kGaussian),
                     rng);
               }));
  std::vector<chord::Key> keys;
  op.layer.set("lb.proximity_map_s", timed([&] {
                 if (w.mode != lb::BalanceMode::kProximityAware) return;
                 Rng rng = stream(seed, kProximityStream);
                 keys = lb::build_proximity_map(ring, *s.topology, {}, rng)
                            .node_keys;
               }));
  double setup_s = seconds_since(t0);

  Rng rng = stream(seed, kRoundStream);
  lb::ProtocolRoundConfig config;
  config.balancer.tree_degree = kTreeDegree;
  config.balancer.mode = w.mode;
  const std::size_t split_planned =
      traced ? split_constructor(ring, rng, keys, config.balancer, op) : 0;

  const std::uint64_t t1 = obs::wall_now_ns();
  obs::Profiler profiler;
  sim::Engine engine;
  TimedLatency lookups{s.latency, {}};
  sim::Network net(engine, traced ? lookups.latency() : s.latency);
  std::optional<lb::ProtocolRound> round;
  op.layer.set("lb.round_ctor_s", timed([&] {
                 round.emplace(net, ring, config, rng, keys);
               }));
  setup_s += seconds_since(t1);
  op.layer.set("setup_s", s.total_s + setup_s);

  if (traced) {
    engine.attach_profiler(&profiler);
    net.attach_profiler(&profiler);
  }
  const std::uint64_t runs_before = s.oracle ? s.oracle->dijkstra_runs() : 0;
  const std::size_t servers_before = ring.virtual_server_count();
  const double load_before = ring.total_load();
  const double run_s = timed([&] {
    round->start();
    engine.run();
  });
  op.layer.set("run_s", run_s);

  require(round->done(), "round did not complete");
  const lb::BalanceReport& report = round->report();
  const std::size_t planned = report.vsa.assignments.size();
  require((s.oracle ? s.oracle->dijkstra_runs() : 0) == runs_before,
          "the event loop ran Dijkstra");
  require(report.transfers_applied == planned,
          "a planned transfer was not applied");
  require(ring.virtual_server_count() == servers_before,
          "virtual-server count changed");
  require(std::abs(ring.total_load() - load_before) <= 1e-9 * load_before,
          "total load changed");
  require(!traced || split_planned == planned,
          "the split pipeline planned different transfers");
  std::uint64_t phase_messages = 0;
  for (std::size_t p = 0; p < lb::kPhaseCount; ++p)
    phase_messages += report.phases[p].messages;
  require(net.totals().messages == phase_messages,
          "network carried messages outside the round's phases");

  op.digest.set("ktree.nodes", round->tree().size());
  op.digest.set("lb.messages.aggregation",
                report.phase(lb::Phase::kAggregation).messages);
  op.digest.set("lb.messages.dissemination",
                report.phase(lb::Phase::kDissemination).messages);
  op.digest.set("lb.messages.vsa", report.phase(lb::Phase::kVsa).messages);
  op.digest.set("lb.messages.transfer",
                report.phase(lb::Phase::kTransfer).messages);
  op.digest.set("lb.completion_sim", report.completion_time);
  op.digest.set("lb.heavy_before", report.before.heavy_count);
  op.digest.set("lb.heavy_after", report.after.heavy_count);
  op.digest.set("lb.transfers_planned", planned);
  op.digest.set("lb.transfers_applied", report.transfers_applied);
  op.digest.set("lb.moved_load", report.vsa.assigned_load());
  op.digest.set("net.messages", net.totals().messages);
  op.digest.set("net.bytes", net.totals().bytes);
  op.digest.set("net.mean_latency", net.totals().mean_latency());
  record_engine(engine, {}, run_s, op);
  if (traced) record_profile(profiler, lookups.timer, Kind::kRound, op);
  return op;
}

Op run_churn(Setup& s, std::uint64_t seed, bool traced) {
  Op op = make_op(s, traced);
  const workload::CapacityProfile capacities =
      workload::CapacityProfile::gnutella_like();
  const std::uint64_t t0 = obs::wall_now_ns();
  chord::Ring ring;
  op.layer.set("workload.ring_build_s", timed([&] {
                 Rng rng = stream(seed, kRingStream);
                 ring = workload::build_ring(s.nodes, kServersPerNode,
                                             capacities, rng);
               }));
  obs::Profiler profiler;
  sim::Engine engine;
  LookupTimer lookups;
  ktree::VsLatencyFn latency = ktree::unit_latency(ring);
  if (traced)
    latency = [&lookups, inner = latency](chord::Key a, chord::Key b) {
      return lookups.time([&] { return inner(a, b); });
    };
  ktree::MaintenanceProtocol protocol(engine, ring, kTreeDegree,
                                      kCheckInterval, latency);
  op.layer.set("ktree.maint.bootstrap_s", timed([&] {
                 protocol.start();
                 engine.run_until(kBootstrapSpan);
               }));
  op.layer.set("setup_s", s.total_s + seconds_since(t0));
  require(protocol.converged(), "maintenance tree did not converge");

  // Churn episode: Poisson joins of fresh nodes; each session ends in a
  // crash after an exponential lifetime (later ones outlive the episode).
  workload::ChurnParams params;
  params.session_model = workload::SessionModel::kExponential;
  params.session_mean = kSessionMean;
  params.join_interarrival_mean =
      kChurnSpan / (0.5 * static_cast<double>(s.nodes));
  Rng rng = stream(seed, kChurnStream);
  const std::vector<workload::ChurnEvent> schedule =
      workload::generate_churn_schedule(params, kChurnSpan, rng);
  constexpr chord::NodeIndex kNotJoined = 0xFFFFFFFFu;
  std::vector<chord::NodeIndex> session_node(schedule.size(), kNotJoined);
  std::uint64_t joins = 0;
  std::uint64_t crashes = 0;
  const sim::Time churn_start = engine.now();
  for (const workload::ChurnEvent& e : schedule)
    engine.schedule_at(churn_start + e.at, [&, e] {
      chord::NodeIndex& node = session_node[e.session];
      if (e.kind == workload::ChurnEvent::Kind::kJoin) {
        node = ring.add_node(capacities.sample(rng));
        for (std::size_t v = 0; v < kServersPerNode; ++v)
          (void)ring.add_random_virtual_server(node, rng);
        ++joins;
      } else if (node != kNotJoined && ring.node(node).alive) {
        protocol.crash_node(node);
        ++crashes;
      }
    });

  if (traced) engine.attach_profiler(&profiler);
  lookups = {};
  const std::uint64_t messages_before = protocol.messages();
  const sim::EngineIntrospection base = engine.introspection();
  const sim::Time churn_end = churn_start + kChurnSpan;
  const double run_s = timed([&] {
    engine.run_until(churn_end);
    while (!protocol.converged() &&
           engine.now() - churn_end < kReconvergeBudget)
      engine.run_until(engine.now() + kCheckInterval);
  });
  op.layer.set("run_s", run_s);
  require(protocol.converged(), "maintenance tree did not reconverge");

  op.digest.set("ktree.maint.instances", protocol.instance_count());
  op.digest.set("ktree.maint.messages",
                protocol.messages() - messages_before);
  op.digest.set("ktree.maint.reconverge_sim", engine.now() - churn_end);
  op.digest.set("chord.joins", joins);
  op.digest.set("chord.crashes", crashes);
  record_engine(engine, base, run_s, op);
  if (traced) record_profile(profiler, lookups, Kind::kChurn, op);
  return op;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_flag("workload", "workload name (see bench_e2e/README.md)", "");
  cli.add_flag("seed", "seed of every generated input", "1");
  cli.add_flag("nodes-div", "divide the workload's node count by this",
               "1");
  cli.add_flag("traced",
               "attach the profiler and the latency-lookup timer", "false");
  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::string name = cli.get_string("workload");
    const auto it =
        std::find_if(kWorkloads.begin(), kWorkloads.end(),
                     [&](const Workload& w) { return w.name == name; });
    P2PLB_REQUIRE_MSG(it != kWorkloads.end(), "unknown --workload " + name);
    const Workload& w = *it;
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const std::int64_t div = cli.get_int("nodes-div");
    P2PLB_REQUIRE_MSG(div >= 1, "--nodes-div must be positive");
    const bool traced = cli.get_bool("traced");

    Setup setup;
    setup.nodes = std::max<std::size_t>(
        w.nodes / static_cast<std::size_t>(div), 16);
    prepare(w, seed, setup);
    std::vector<Op> ops;
    for (std::size_t r = 0; r < w.reps; ++r)
      ops.push_back(w.kind == Kind::kRound ? run_round(w, setup, seed, traced)
                                           : run_churn(setup, seed, traced));

    std::cout << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
              << ", \"nodes\": " << setup.nodes
              << ", \"traced\": " << (traced ? 1 : 0)
              << ", \"peak_rss_mb\": " << number(peak_rss_mb()) << ", \"ops\": [";
    for (std::size_t i = 0; i < ops.size(); ++i) {
      std::cout << (i == 0 ? "" : ", ") << "{\"digest\": ";
      ops[i].digest.write(std::cout);
      std::cout << ", \"layer\": ";
      ops[i].layer.write(std::cout);
      std::cout << '}';
    }
    std::cout << "]}\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "p2plb_bench: " << e.what() << '\n';
    return 1;
  }
}
