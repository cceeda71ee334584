// Microbenchmarks for the library's hot kernels (google-benchmark):
// Hilbert encode/decode, Chord ring build, key and successor lookups,
// Chord routing, K-nary tree construction, one maintenance check
// interval, the VSA pairing loop, topology generation, Dijkstra and the
// distance oracle's batch fill.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "chord/ring.h"
#include "chord/router.h"
#include "common/rng.h"
#include "hilbert/hilbert.h"
#include "ktree/protocol.h"
#include "ktree/tree.h"
#include "lb/balancer.h"
#include "sim/engine.h"
#include "topo/distance_oracle.h"
#include "topo/graph.h"
#include "topo/transit_stub.h"
#include "workload/capacity.h"
#include "workload/scenario.h"

namespace {

using namespace p2plb;

void BM_HilbertEncode(benchmark::State& state) {
  const hilbert::CurveSpec spec{
      static_cast<std::uint32_t>(state.range(0)),
      static_cast<std::uint32_t>(state.range(1))};
  Rng rng(1);
  std::vector<std::uint32_t> coords(spec.dims);
  for (auto& c : coords)
    c = static_cast<std::uint32_t>(rng.below(1ull << spec.bits));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hilbert::encode(spec, coords));
  }
}
BENCHMARK(BM_HilbertEncode)
    ->Args({2, 16})
    ->Args({15, 2})
    ->Args({15, 8})
    ->Args({32, 4});

void BM_HilbertRoundTrip(benchmark::State& state) {
  const hilbert::CurveSpec spec{15, 2};
  hilbert::Index i = 12345;
  for (auto _ : state) {
    const auto coords = hilbert::decode(spec, i);
    benchmark::DoNotOptimize(hilbert::encode(spec, coords));
    i = (i + 7919) & ((hilbert::Index{1} << 30) - 1);
  }
}
BENCHMARK(BM_HilbertRoundTrip);

void BM_HilbertEncodeBatch(benchmark::State& state) {
  const hilbert::CurveSpec spec{15, 2};
  const auto count = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<std::vector<std::uint32_t>> cols(
      spec.dims, std::vector<std::uint32_t>(count));
  for (auto& col : cols)
    for (auto& c : col)
      c = static_cast<std::uint32_t>(rng.below(1ull << spec.bits));
  hilbert::BatchEncoder encoder(spec);
  std::vector<hilbert::Index> out;
  for (auto _ : state) {
    encoder.encode(cols, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_HilbertEncodeBatch)->Arg(1024)->Arg(16384);

chord::Ring make_ring(std::size_t nodes, std::size_t servers) {
  Rng rng(2);
  return workload::build_ring(nodes, servers,
                              workload::CapacityProfile::gnutella_like(),
                              rng);
}

void BM_RingSuccessor(benchmark::State& state) {
  const auto ring = make_ring(static_cast<std::size_t>(state.range(0)), 5);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ring.successor(static_cast<chord::Key>(rng() >> 32)).id);
  }
}
BENCHMARK(BM_RingSuccessor)->Arg(1024)->Arg(4096);

/// workload::build_ring at N nodes x 5 VS: capacity and id draws, one
/// key -> slot insert per VS and the per-node sorted server lists.
void BM_RingBuild(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(make_ring(nodes, 5).virtual_server_count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes * 5));
}
BENCHMARK(BM_RingBuild)->Arg(32768)->Unit(benchmark::kMillisecond);

/// Ring::server_load at random keys of a 32768 x 5 ring (163,840 VS): the
/// key -> slot lookup behind every per-VS read of the balancing round.
void BM_RingServerLoad(benchmark::State& state) {
  const auto ring = make_ring(32768, 5);
  const std::vector<chord::Key> ids = ring.server_ids();
  Rng rng(4);
  std::vector<chord::Key> picks(std::size_t{1} << 16);
  for (chord::Key& k : picks) k = ids[rng.below(ids.size())];
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.server_load(picks[i]));
    i = (i + 1) & (picks.size() - 1);
  }
}
BENCHMARK(BM_RingServerLoad);

/// One check interval of a converged K=2 maintenance tree: every
/// instance's periodic check plus the root watchdog, on an idle ring.
void BM_MaintenanceInterval(benchmark::State& state) {
  auto ring = make_ring(static_cast<std::size_t>(state.range(0)), 5);
  sim::Engine engine;
  ktree::MaintenanceProtocol protocol(engine, ring, 2, 1.0,
                                      ktree::unit_latency(ring));
  protocol.start();
  engine.run_until(60.0);
  if (!protocol.converged()) state.SkipWithError("tree did not converge");
  const std::uint64_t before = engine.events_executed();
  for (auto _ : state) engine.run_until(engine.now() + 1.0);
  benchmark::DoNotOptimize(protocol.instance_count());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(engine.events_executed() - before));
  state.counters["instances"] =
      static_cast<double>(protocol.instance_count());
}
BENCHMARK(BM_MaintenanceInterval)->Arg(1024);

void BM_ChordLookup(benchmark::State& state) {
  const auto ring = make_ring(static_cast<std::size_t>(state.range(0)), 5);
  const chord::Router router(ring);
  const auto ids = ring.server_ids();
  Rng rng(4);
  std::uint64_t hops = 0, lookups = 0;
  for (auto _ : state) {
    const auto r = router.lookup(ids[rng.below(ids.size())],
                                 static_cast<chord::Key>(rng() >> 32));
    hops += r.hops;
    ++lookups;
    benchmark::DoNotOptimize(r.responsible);
  }
  state.counters["hops/lookup"] =
      static_cast<double>(hops) / static_cast<double>(lookups);
}
BENCHMARK(BM_ChordLookup)->Arg(256)->Arg(1024);

void BM_KTreeBuild(benchmark::State& state) {
  const auto ring = make_ring(static_cast<std::size_t>(state.range(0)), 5);
  for (auto _ : state) {
    const ktree::KTree tree(ring, 2);
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_KTreeBuild)->Arg(256)->Arg(1024)->Arg(4096)->Arg(32768)
    ->Unit(benchmark::kMillisecond);

void BM_BalanceRound(benchmark::State& state) {
  Rng rng(5);
  auto base = workload::build_ring(
      static_cast<std::size_t>(state.range(0)), 5,
      workload::CapacityProfile::gnutella_like(), rng);
  const auto model = workload::scaled_load_model(
      base, workload::LoadDistribution::kGaussian, 0.25, 1.0);
  workload::assign_loads(base, model, rng);
  for (auto _ : state) {
    auto ring = base;
    Rng brng(6);
    lb::BalancerConfig config;
    const auto report = lb::run_balance_round(ring, config, brng);
    benchmark::DoNotOptimize(report.transfers_applied);
  }
}
BENCHMARK(BM_BalanceRound)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void BM_VsaSweep(benchmark::State& state) {
  // The pairing sweep alone: entries are rebuilt outside the timed loop,
  // run_vsa (classification -> rendezvous -> leftover forwarding) inside.
  // The second argument asks for the VsaTrace, as every timed round does.
  Rng rng(10);
  auto ring = workload::build_ring(
      static_cast<std::size_t>(state.range(0)), 5,
      workload::CapacityProfile::gnutella_like(), rng);
  const auto model = workload::scaled_load_model(
      ring, workload::LoadDistribution::kGaussian, 0.25, 1.0);
  workload::assign_loads(ring, model, rng);
  const ktree::KTree tree(ring, 2);
  Rng arng(11);
  const auto agg = lb::aggregate_lbi(tree, arng);
  const auto before = lb::classify_all(ring, agg.system, 0.0);
  const auto entries =
      lb::build_entries_ignorant(tree, before, agg.reporter_vs);
  lb::VsaParams params;
  params.min_load = agg.system.min_load;
  lb::VsaTrace trace;
  if (state.range(1) != 0) params.trace = &trace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb::run_vsa(tree, entries, params));
  }
}
BENCHMARK(BM_VsaSweep)
    ->ArgsProduct({{1024, 4096, 32768}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// `graph` with every edge weight multiplied by `scale`.
topo::Graph scaled_weights(const topo::Graph& graph, double scale) {
  topo::Graph out(graph.vertex_count());
  for (topo::Vertex v = 0; v < graph.vertex_count(); ++v)
    for (const topo::HalfEdge& e : graph.neighbors(v))
      if (v < e.to) out.add_edge(v, e.to, e.weight * scale);
  return out;
}

void BM_OracleLookup(benchmark::State& state) {
  // Cached source-row lookups (the per-send latency path): pre-warm every
  // source so the timed loop never runs a Dijkstra.  One row width each:
  // /0 reads the preset's 8-bit rows; /1 scales every weight by 4, which
  // puts the width rule's bound past 0xFF (16-bit rows); /2 scales them
  // by 1.5, which forces double rows.
  constexpr double kScale[] = {1.0, 4.0, 1.5};
  constexpr const char* kLabels[] = {"8-bit rows", "16-bit rows",
                                     "double rows"};
  Rng rng(12);
  const auto topo = topo::generate_transit_stub(
      topo::TransitStubParams::ts5k_small(), rng, "bench");
  const topo::Graph graph = scaled_weights(topo.graph, kScale[state.range(0)]);
  topo::DistanceOracle oracle(graph, graph.vertex_count());
  const auto stubs = topo.stub_vertices();
  std::vector<std::pair<topo::Vertex, topo::Vertex>> pairs(4096);
  Rng pick(13);
  for (auto& [a, b] : pairs) {
    a = stubs[pick.below(stubs.size())];
    b = stubs[pick.below(stubs.size())];
  }
  for (const auto& [a, b] : pairs) benchmark::DoNotOptimize(oracle.distance(a, b));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i];
    benchmark::DoNotOptimize(oracle.distance(a, b));
    i = (i + 1) & (pairs.size() - 1);
  }
  // Bytes per entry, from the rows the warm-up filled.
  state.counters["entry_bytes"] = static_cast<double>(oracle.row_bytes()) /
                                  static_cast<double>(oracle.dijkstra_runs() *
                                                      graph.vertex_count());
  state.SetLabel(kLabels[state.range(0)]);
}
BENCHMARK(BM_OracleLookup)->DenseRange(0, 2);

/// BM_EngineThroughput variants.  0/1 are the wheel-vs-heap A/B with an
/// 8-byte capture; 2-4 are wheel-only shapes: the capture sizes the lb
/// and ktree handlers schedule (24 B, a shared_ptr plus an index), and
/// per-event fractional times, which make every tick's batch need the
/// stable sort by time.
enum EngineShape : std::int64_t {
  kWheel8B = 0,
  kHeap8B = 1,
  kWheel24B = 2,
  kWheelSharedPtr = 3,
  kWheelFractional = 4,
};

void BM_EngineThroughput(benchmark::State& state) {
  // Raw event-loop throughput: schedule a batch of events at random
  // small-latency offsets, drain, repeat.
  const auto shape = static_cast<EngineShape>(state.range(0));
  const auto kind = shape == kHeap8B ? sim::QueueKind::kBinaryHeap
                                     : sim::QueueKind::kTimerWheel;
  constexpr int kBatch = 65536;
  std::uint64_t fired = 0;
  const auto shared = std::make_shared<std::uint64_t>(0);
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine(kind);
    Rng rng(14);
    for (int i = 0; i < kBatch; ++i) {
      const double tick = static_cast<double>(rng.below(512));
      const auto index = static_cast<std::uint64_t>(i);
      switch (shape) {
        case kWheel8B:
        case kHeap8B:
          engine.schedule_at(tick + 0.25, [&fired] { ++fired; });
          break;
        case kWheel24B:
          engine.schedule_at(tick + 0.25, [&fired, index, tick] {
            fired += index + static_cast<std::uint64_t>(tick);
          });
          break;
        case kWheelSharedPtr:
          engine.schedule_at(tick + 0.25, [shared, index] { *shared += index; });
          break;
        case kWheelFractional:
          engine.schedule_at(
              tick + static_cast<double>(rng.below(64)) / 64.0,
              [&fired] { ++fired; });
          break;
      }
    }
    state.ResumeTiming();
    engine.run();
  }
  benchmark::DoNotOptimize(fired);
  benchmark::DoNotOptimize(*shared);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
  constexpr const char* kLabels[] = {"wheel", "heap", "wheel/24B",
                                     "wheel/shared_ptr", "wheel/fractional"};
  state.SetLabel(kLabels[shape]);
}
BENCHMARK(BM_EngineThroughput)->DenseRange(kWheel8B, kWheelFractional);

void BM_TransitStubGenerate(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(7);
    const auto topo = topo::generate_transit_stub(
        topo::TransitStubParams::ts5k_large(), rng, "bench");
    benchmark::DoNotOptimize(topo.graph.vertex_count());
  }
}
BENCHMARK(BM_TransitStubGenerate)->Unit(benchmark::kMillisecond);

void BM_Dijkstra5k(benchmark::State& state) {
  Rng rng(8);
  const auto topo = topo::generate_transit_stub(
      topo::TransitStubParams::ts5k_large(), rng, "bench");
  Rng pick(9);
  for (auto _ : state) {
    const auto source =
        static_cast<topo::Vertex>(pick.below(topo.graph.vertex_count()));
    benchmark::DoNotOptimize(topo::shortest_paths(topo.graph, source));
  }
}
BENCHMARK(BM_Dijkstra5k)->Unit(benchmark::kMillisecond);

void BM_OracleFill(benchmark::State& state) {
  // The batch fill beside the one-row kernel above: a fresh dense-mode
  // oracle fills every stub's row in one distances() call, fanned out
  // over the hardware threads.  /0 is ts5k-large, /1 ts5k-small.
  // `row_bytes` is the memory the filled rows hold.
  const bool large = state.range(0) == 0;
  Rng rng(8);
  const auto topo = topo::generate_transit_stub(
      large ? topo::TransitStubParams::ts5k_large()
            : topo::TransitStubParams::ts5k_small(),
      rng, "bench");
  std::vector<std::pair<topo::Vertex, topo::Vertex>> sources;
  for (const topo::Vertex v : topo.stub_vertices()) sources.emplace_back(v, v);
  std::size_t row_bytes = 0;
  for (auto _ : state) {
    topo::DistanceOracle oracle(topo.graph, topo.graph.vertex_count());
    benchmark::DoNotOptimize(oracle.distances(sources));
    row_bytes = oracle.row_bytes();
  }
  state.counters["row_bytes"] = static_cast<double>(row_bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sources.size()));
  state.SetLabel(large ? "ts5k-large" : "ts5k-small");
}
BENCHMARK(BM_OracleFill)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
