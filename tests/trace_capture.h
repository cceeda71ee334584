// A trace sink that keeps every event, for tests that read a trace back.
// The Tracer itself keeps nothing: it only forwards to its sink.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace p2plb::test {

/// Captures the events a Tracer forwards, in emission order.
struct CaptureSink final : obs::TraceSink {
  std::vector<obs::TraceEvent> events;

  void on_event(const obs::TraceEvent& e) override { events.push_back(e); }

  /// The captured events as JSONL, byte-identical to what a
  /// JsonlTraceSink attached instead would have written.
  [[nodiscard]] std::string jsonl() const {
    std::ostringstream os;
    for (const obs::TraceEvent& e : events) obs::write_jsonl_event(os, e);
    return os.str();
  }
};

}  // namespace p2plb::test
