// Tests for the engine flight recorder and the post-mortem hooks: the
// fixed ring of recent activity (sim/core), the engine/network stamping
// that fills it, the queue-introspection counters and their sim.*
// metrics export, and the anomaly paths (escaping exceptions, the
// wall-clock stall detector) that trigger a dump.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.h"
#include "golden_trace.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/core/flight_recorder.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace p2plb {
namespace {

using sim::core::FlightRecorder;

// The golden round (tests/golden_trace.h) traced, with a recorder
// attached.  Pinned before sends stamped their network tag slot instead
// of a recorder-interned index: the dump prints names, so it must not
// move.
constexpr const char* kGoldenFlightDump = R"(# p2plb engine flight dump
now 7
executed 25
pending 0
wheel_inserts 25
batch_splices 0
early_inserts 0
heap_inserts 0
batch_refills 17
wheel_occupancy_l0 0
wheel_occupancy_l1 0
wheel_occupancy_l2 0
wheel_occupancy_l3 0
far_pending 0
far_inserts 0
arena_high_water 4
arena_capacity 4
# recent events (oldest first)
records_total 50
records_kept 50
seq kind time src dst tag trace
0 send 0 0 0 lb.aggregation 1
0 send 0 0 1 lb.aggregation 1
0 send 0 0 1 lb.aggregation 1
0 send 0 1 1 lb.aggregation 1
0 exec 0 - - - 0
3 exec 0 - - - 0
1 exec 1 - - - 0
2 exec 1 - - - 0
0 send 1 1 1 lb.aggregation 1
4 exec 1 - - - 0
0 send 1 1 0 lb.aggregation 1
5 exec 2 - - - 0
0 send 2 0 0 lb.dissemination 1
0 send 2 0 1 lb.dissemination 1
6 exec 2 - - - 0
0 send 2 0 0 lb.dissemination 1
8 exec 2 - - - 0
7 exec 3 - - - 0
0 send 3 1 1 lb.dissemination 1
0 send 3 1 0 lb.dissemination 1
9 exec 3 - - - 0
0 send 3 1 1 lb.dissemination 1
11 exec 3 - - - 0
10 exec 4 - - - 0
0 send 4 0 0 lb.dissemination 1
12 exec 4 - - - 0
0 send 4 0 1 lb.vsa 1
0 send 4 0 1 lb.vsa 1
0 send 4 1 1 lb.vsa 1
15 exec 4 - - - 0
13 exec 5 - - - 0
14 exec 5 - - - 0
0 send 5 1 1 lb.vsa 1
0 send 5 1 1 lb.vsa 1
0 send 5 1 1 lb.vsa 1
16 exec 5 - - - 0
17 exec 5 - - - 0
18 exec 5 - - - 0
0 send 5 1 0 lb.vsa 1
0 send 5 1 0 lb.vsa 1
0 send 5 1 0 lb.vsa 1
19 exec 6 - - - 0
20 exec 6 - - - 0
21 exec 6 - - - 0
0 send 6 0 0 lb.vsa 1
0 send 6 0 1 lb.vsa 1
22 exec 6 - - - 0
0 send 6 0 1 lb.transfer 1
23 exec 7 - - - 0
24 exec 7 - - - 0
)";

TEST(FlightRecorder, RingKeepsOnlyTheNewestRecords) {
  FlightRecorder fr(4);
  EXPECT_EQ(fr.capacity(), 4u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    FlightRecorder::Record r;
    r.time = static_cast<double>(i);
    r.seq = i;
    fr.record(r);
  }
  EXPECT_EQ(fr.total_recorded(), 6u);
  EXPECT_EQ(fr.size(), 4u);
  const std::vector<FlightRecorder::Record> recent = fr.recent();
  ASSERT_EQ(recent.size(), 4u);
  // Oldest first, and the two oldest records were overwritten.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(recent[i].seq, i + 2);
  EXPECT_THROW(FlightRecorder(0), PreconditionError);
}

TEST(FlightRecorder, NameTagIsStableAndZeroMeansNoTag) {
  FlightRecorder fr;
  EXPECT_EQ(fr.tag_name(0), "");  // 0 = no tag
  fr.name_tag(3, "lb.transfer");  // indices may be named out of order
  fr.name_tag(1, "lb.vsa");
  fr.name_tag(1, "lb.vsa");  // naming again with the same name is a no-op
  EXPECT_EQ(fr.tag_name(1), "lb.vsa");
  EXPECT_EQ(fr.tag_name(3), "lb.transfer");
  EXPECT_EQ(fr.tag_name(2), "");  // unnamed
  EXPECT_EQ(fr.tag_name(9), "");  // past the table
  // One stamper owns the indices: a different name for a named index,
  // index 0 and an empty name are all rejected.
  EXPECT_THROW(fr.name_tag(1, "lb.transfer"), PreconditionError);
  EXPECT_THROW(fr.name_tag(0, "lb.vsa"), PreconditionError);
  EXPECT_THROW(fr.name_tag(2, ""), PreconditionError);
  EXPECT_EQ(fr.tag_name(1), "lb.vsa");
}

TEST(FlightRecorder, DumpListsRecordsOldestFirst) {
  FlightRecorder fr(8);
  FlightRecorder::Record exec;
  exec.time = 1.0;
  exec.seq = 42;
  fr.record(exec);
  FlightRecorder::Record send;
  send.time = 2.0;
  send.kind = FlightRecorder::kSend;
  send.src = 3;
  send.dst = 9;
  fr.name_tag(1, "lb.vsa");
  send.tag = 1;
  send.trace = 7;
  fr.record(send);

  std::ostringstream os;
  fr.dump(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("records_total 2"), std::string::npos);
  EXPECT_NE(dump.find("records_kept 2"), std::string::npos);
  EXPECT_NE(dump.find("42 exec 1"), std::string::npos);
  EXPECT_NE(dump.find("send 2 3 9 lb.vsa 7"), std::string::npos);
  // The exec line comes before the send line (oldest first).
  EXPECT_LT(dump.find("exec"), dump.find("send 2"));
}

TEST(FlightRecorder, NotesMakeDumpsSelfDescribing) {
  FlightRecorder fr(4);
  fr.set_note("trace_sample_keep", "1");
  fr.set_note("trace_sample_of", "16");
  fr.set_note("nodes", "128");
  fr.set_note("nodes", "16384");  // re-setting a key overwrites
  EXPECT_THROW(fr.set_note("", "x"), PreconditionError);
  ASSERT_EQ(fr.notes().size(), 3u);

  std::ostringstream os;
  fr.dump(os);
  const std::string dump = os.str();
  // Notes print first, in key order, before the record header.
  EXPECT_EQ(dump.rfind("note nodes 16384\n", 0), 0u);
  EXPECT_NE(dump.find("note trace_sample_keep 1\n"), std::string::npos);
  EXPECT_NE(dump.find("note trace_sample_of 16\n"), std::string::npos);
  EXPECT_LT(dump.find("note trace_sample_keep"),
            dump.find("note trace_sample_of"));
  EXPECT_LT(dump.find("note trace_sample_of"), dump.find("records_total"));
  EXPECT_EQ(dump.find("note nodes 128"), std::string::npos);
}

TEST(EngineFlightRecorder, EveryExecutedEventIsStamped) {
  sim::Engine engine;
  FlightRecorder fr(16);
  engine.attach_flight_recorder(&fr);
  for (int i = 0; i < 5; ++i)
    engine.schedule_at(static_cast<double>(i), [] {});
  engine.run();
  EXPECT_EQ(fr.total_recorded(), engine.events_executed());
  double last = -1.0;
  for (const FlightRecorder::Record& r : fr.recent()) {
    EXPECT_EQ(r.kind, FlightRecorder::kExecute);
    EXPECT_GE(r.time, last);  // stamped in execution order
    last = r.time;
  }
  // Detaching stops the stamping.
  engine.attach_flight_recorder(nullptr);
  engine.schedule_after(1.0, [] {});
  engine.run();
  EXPECT_EQ(fr.total_recorded(), 5u);
}

TEST(EngineFlightRecorder, NetworkStampsSendsWithTagAndTrace) {
  sim::Engine engine;
  FlightRecorder fr(16);
  engine.attach_flight_recorder(&fr);
  sim::Network net(engine, [](sim::Endpoint a, sim::Endpoint b) {
    return a == b ? 0.0 : 1.0;
  });
  obs::Tracer tracer;
  net.attach_tracer(&tracer);
  net.send(0, 1, [] {}, 24.0, 0.0, "lb.vsa");
  net.send(1, 0, [] {}, 24.0);  // untagged
  engine.run();

  std::vector<FlightRecorder::Record> sends;
  for (const FlightRecorder::Record& r : fr.recent())
    if (r.kind == FlightRecorder::kSend) sends.push_back(r);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[0].src, 0u);
  EXPECT_EQ(sends[0].dst, 1u);
  EXPECT_EQ(fr.tag_name(sends[0].tag), "lb.vsa");
  EXPECT_NE(sends[0].trace, 0u);  // traced send carries its trace id
  EXPECT_EQ(sends[1].tag, 0u);    // untagged send names nothing
}

TEST(EngineFlightRecorder, RecordTagIsTheNetworkTagSlot) {
  sim::Engine engine;
  sim::Network net(engine, [](sim::Endpoint, sim::Endpoint) { return 1.0; });
  // A tag sent before any recorder is attached still gets its slot's
  // index (slot + 1) once a recorder sees it.
  net.send(0, 1, [] {}, 0.0, 0.0, "lb.aggregation");
  FlightRecorder first(16);
  engine.attach_flight_recorder(&first);
  net.send(0, 1, [] {}, 0.0, 0.0, "lb.vsa");
  net.send(0, 1, [] {}, 0.0, 0.0, "lb.aggregation");
  net.send(0, 1, [] {}, 0.0, 0.0, "lb.vsa");
  // A second recorder is named afresh on its first send of each tag.
  FlightRecorder second(16);
  engine.attach_flight_recorder(&second);
  net.send(0, 1, [] {}, 0.0, 0.0, "lb.vsa");

  std::vector<std::uint16_t> tags;
  for (const FlightRecorder::Record& r : first.recent()) tags.push_back(r.tag);
  EXPECT_EQ(tags, (std::vector<std::uint16_t>{2, 1, 2}));
  EXPECT_EQ(first.tag_name(1), "lb.aggregation");
  EXPECT_EQ(first.tag_name(2), "lb.vsa");
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second.recent()[0].tag, 2u);
  EXPECT_EQ(second.tag_name(2), "lb.vsa");
  EXPECT_EQ(second.tag_name(1), "");

  // One Network stamps a given recorder: a second network's first tag
  // takes index 1 too, under another name.
  sim::Network other(engine, [](sim::Endpoint, sim::Endpoint) { return 1.0; });
  engine.attach_flight_recorder(&first);
  EXPECT_THROW(other.send(0, 1, [] {}, 0.0, 0.0, "lb.transfer"),
               PreconditionError);
}

TEST(EngineFlightRecorder, GoldenRoundDumpMatchesPinnedOutput) {
  obs::Tracer tracer;
  FlightRecorder fr;
  const golden::GoldenRun run = golden::run_golden_round(&tracer, &fr);
  EXPECT_EQ(run.flight_dump, kGoldenFlightDump);
}

TEST(EngineFlightRecorder, UntracedSendsRecordTraceZero) {
  sim::Engine engine;
  FlightRecorder fr(16);
  engine.attach_flight_recorder(&fr);
  sim::Network net(engine, [](sim::Endpoint, sim::Endpoint) { return 1.0; });
  net.send(0, 1, [] {}, 24.0, 0.0, "lb.vsa");
  engine.run();
  bool saw_send = false;
  for (const FlightRecorder::Record& r : fr.recent())
    if (r.kind == FlightRecorder::kSend) {
      saw_send = true;
      EXPECT_EQ(r.trace, 0u);
    }
  EXPECT_TRUE(saw_send);
}

TEST(EngineIntrospectionCounters, TrackTheQueueAndExportAsMetrics) {
  sim::Engine engine;
  for (int i = 0; i < 6; ++i)
    engine.schedule_at(static_cast<double>(i), [] {});
  engine.run();
  engine.schedule_after(2.0, [] {});  // one event left pending

  const sim::EngineIntrospection i = engine.introspection();
  EXPECT_EQ(i.executed, 6u);
  EXPECT_EQ(i.pending, 1u);
  EXPECT_EQ(i.heap_inserts, 0u);  // timer-wheel engine
  EXPECT_GE(i.wheel_inserts + i.batch_splices + i.early_inserts, 6u);
  EXPECT_GE(i.batch_refills, 1u);
  EXPECT_GE(i.arena_high_water, 1u);
  EXPECT_LE(i.arena_high_water, 7u);
  EXPECT_GE(i.arena_capacity, i.arena_high_water);

  std::vector<obs::Sample> rows;
  engine.export_metrics(rows);
  std::map<std::string, double> exported;
  for (const obs::Sample& r : rows) {
    EXPECT_EQ(r.t, engine.now()) << r.key;  // stamped with the clock
    EXPECT_TRUE(exported.emplace(r.key, r.value).second) << r.key;
  }
  EXPECT_EQ(exported.at("sim.engine.executed"), 6.0);
  EXPECT_EQ(exported.at("sim.engine.pending"), 1.0);
  EXPECT_EQ(exported.at("sim.arena.capacity"),
            static_cast<double>(i.arena_capacity));
  EXPECT_EQ(exported.count("sim.wheel.occupancy{level=0}"), 1u);
  EXPECT_EQ(exported.count("sim.wheel.occupancy{level=3}"), 1u);
  EXPECT_EQ(exported.count("sim.wheel.far_pending"), 1u);

  // The binary-heap reference engine books its inserts separately.
  sim::Engine heap(sim::QueueKind::kBinaryHeap);
  heap.schedule_after(1.0, [] {});
  heap.run();
  EXPECT_EQ(heap.introspection().heap_inserts, 1u);
  EXPECT_EQ(heap.introspection().wheel_inserts, 0u);
}

TEST(EngineAnomalies, EscapingExceptionFiresTheHookBeforeRethrow) {
  sim::Engine engine;
  FlightRecorder fr(8);
  engine.attach_flight_recorder(&fr);
  std::vector<std::string> anomalies;
  engine.set_anomaly_hook(
      [&anomalies](const std::string& what) { anomalies.push_back(what); });
  engine.schedule_after(1.0, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(engine.run(), std::runtime_error);
  ASSERT_EQ(anomalies.size(), 1u);
  EXPECT_NE(anomalies[0].find("exception escaped"), std::string::npos);
  EXPECT_NE(anomalies[0].find("boom"), std::string::npos);

  // The flight dump written by a typical hook includes the ring.
  std::ostringstream os;
  engine.write_flight_dump(os);
  EXPECT_NE(os.str().find("# p2plb engine flight dump"), std::string::npos);
  EXPECT_NE(os.str().find("records_total"), std::string::npos);
}

TEST(EngineAnomalies, StallDetectorFlagsASlowCallback) {
  sim::Engine engine;
  std::vector<std::string> anomalies;
  engine.set_anomaly_hook(
      [&anomalies](const std::string& what) { anomalies.push_back(what); });
  // A threshold below any real callback duration: the detector observes
  // the wall clock but never feeds it back into the schedule, so this
  // stays deterministic in everything except whether the hook fires --
  // and with a ~0 threshold plus deliberate busy work, it always does.
  engine.enable_stall_detector(1e-6);
  engine.schedule_after(1.0, [] {
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 200000; ++i) sink = sink + i;
  });
  engine.run();
  ASSERT_GE(anomalies.size(), 1u);
  EXPECT_NE(anomalies[0].find("stall"), std::string::npos);
  EXPECT_EQ(engine.events_executed(), 1u);  // the run itself completed

  // Disabled detector: the same work raises nothing.
  anomalies.clear();
  engine.enable_stall_detector(0.0);
  engine.schedule_after(1.0, [] {
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 200000; ++i) sink = sink + i;
  });
  engine.run();
  EXPECT_TRUE(anomalies.empty());
}

}  // namespace
}  // namespace p2plb
