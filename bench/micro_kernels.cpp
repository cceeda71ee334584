// Microbenchmarks for the library's hot kernels (google-benchmark):
// Hilbert encode/decode, Chord ring operations and lookups, K-nary tree
// construction, the VSA pairing loop, topology generation, Dijkstra and
// the distance oracle's batch fill.
#include <benchmark/benchmark.h>

#include "chord/ring.h"
#include "chord/router.h"
#include "common/rng.h"
#include "hilbert/hilbert.h"
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
BENCHMARK(BM_KTreeBuild)->Arg(256)->Arg(1024)->Arg(4096)
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
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb::run_vsa(tree, entries, params));
  }
}
BENCHMARK(BM_VsaSweep)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_OracleLookup(benchmark::State& state) {
  // Cached source-row lookups (the per-send latency path): pre-warm every
  // source so the timed loop never runs a Dijkstra.
  Rng rng(12);
  const auto topo = topo::generate_transit_stub(
      topo::TransitStubParams::ts5k_small(), rng, "bench");
  topo::DistanceOracle oracle(topo.graph, topo.graph.vertex_count());
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
}
BENCHMARK(BM_OracleLookup);

void BM_EngineThroughput(benchmark::State& state) {
  // Raw event-loop throughput, wheel vs binary heap: schedule a batch of
  // events at random small-latency offsets, drain, repeat.
  const auto kind = state.range(0) == 0 ? sim::QueueKind::kTimerWheel
                                        : sim::QueueKind::kBinaryHeap;
  constexpr int kBatch = 65536;
  std::uint64_t fired = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine(kind);
    Rng rng(14);
    for (int i = 0; i < kBatch; ++i)
      engine.schedule_at(static_cast<double>(rng.below(512)) + 0.25,
                         [&fired] { ++fired; });
    state.ResumeTiming();
    engine.run();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
  state.SetLabel(kind == sim::QueueKind::kTimerWheel ? "wheel" : "heap");
}
BENCHMARK(BM_EngineThroughput)->Arg(0)->Arg(1);

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
  // oracle fills every ts5k-large stub's row in one distances() call,
  // fanned out over the hardware threads.
  Rng rng(8);
  const auto topo = topo::generate_transit_stub(
      topo::TransitStubParams::ts5k_large(), rng, "bench");
  std::vector<std::pair<topo::Vertex, topo::Vertex>> sources;
  for (const topo::Vertex v : topo.stub_vertices()) sources.emplace_back(v, v);
  for (auto _ : state) {
    topo::DistanceOracle oracle(topo.graph, topo.graph.vertex_count());
    benchmark::DoNotOptimize(oracle.distances(sources));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sources.size()));
}
BENCHMARK(BM_OracleFill)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
