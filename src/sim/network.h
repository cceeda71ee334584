// Simulated message-passing network on top of the event engine.
//
// Endpoints are opaque integer ids (the physical node's attachment vertex
// in the topology, or any other index the caller chooses).  Delivery delay
// comes from a pluggable latency function, so unit tests can use constant
// latency while experiments plug in topology shortest-path distances.
//
// Every remote hop of every protocol is meant to pass through send(), so
// message / byte / latency accounting lives in exactly one place.  Sends
// may carry a tag ("lb.vsa", "ktree.maintenance", ...) and the network
// keeps an independent counter set per tag, which is how overlapping
// protocol phases on one shared network are told apart.  These tallies
// are the only traffic count: export_metrics() publishes them into an
// obs::MetricsRegistry (net.messages / net.bytes / net.latency_sum, plus
// a {tag=...} labelled set per tag) when a caller asks, so the send path
// never touches a registry.
//
// Observability: a tag lives in one slot -- its tally, its profiler
// frame, its trace lane ("net" for untagged sends) and its flight
// recorder index (slot index + 1; 0 = untagged) -- so a send looks its
// tag up once.  The tracer, profiler, flight recorder and windows each
// cost one pointer test per send when unset.
//
// Causal envelopes: when a tracer is attached, every message carries an
// obs::SpanContext.  The network holds an *ambient* context -- set by
// ContextScope (protocol roots) and, automatically, around every
// delivery callback -- and send() stamps each message as a child span of
// whatever context is ambient when it is scheduled.  Because a handler
// only runs when its last enabling input arrives, the single parent edge
// recorded this way is the true critical dependency, and no per-call-site
// plumbing is needed: any send made from inside a delivery handler
// parents to the delivering message, across every protocol layer.  The
// msg.send / msg.deliver instants both carry the message's context (so
// its span has a start and an end time), plus a flow arrow pair that
// the Chrome view (p2plb_trace --out FILE.json) draws as an arrow.  With
// no tracer attached nothing is allocated -- not even ids.  A traced or
// profiled send wraps its handler once, and the wrapper runs inside the
// payload's engine event, so the schedule is byte-identical either way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "sim/engine.h"

namespace p2plb::sim {

/// Identifier of a network endpoint (typically a physical node index).
using Endpoint = std::uint32_t;

/// Returns the one-way delivery latency between two endpoints, in the same
/// units as sim::Time.  Must be non-negative and need not be symmetric.
using LatencyFn = std::function<Time(Endpoint from, Endpoint to)>;

/// Flat latency callable: one context pointer plus a plain function
/// pointer, so the per-send lookup is a direct indirect call -- no
/// std::function type erasure, no potential closure allocation.  This is
/// what Network uses internally; latency providers (the distance oracle,
/// constant-latency tests) expose one of these, and a LatencyFn can
/// still be passed where convenience beats the last branch (the Network
/// wraps it behind a Latency pointing at the stored function).
struct Latency {
  void* ctx = nullptr;
  Time (*fn)(void* ctx, Endpoint from, Endpoint to) = nullptr;

  [[nodiscard]] Time operator()(Endpoint from, Endpoint to) const {
    return fn(ctx, from, to);
  }
};

/// One counter set: totals over some class of messages.
struct TrafficCounters {
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double latency_sum = 0.0;

  /// Mean per-message latency (0 if no messages).
  [[nodiscard]] double mean_latency() const noexcept {
    return messages == 0 ? 0.0
                         : latency_sum / static_cast<double>(messages);
  }
};

/// Message-delivery layer with per-message latency and traffic accounting.
class Network {
 public:
  /// `latency.ctx` must remain valid for the lifetime of the Network.
  Network(Engine& engine, Latency latency)
      : engine_(engine), latency_(latency) {
    P2PLB_REQUIRE(latency.fn != nullptr);
  }

  /// Convenience overload wrapping an owning std::function (unit tests,
  /// ad-hoc lambdas).  The hot path still goes through the flat callable;
  /// only the type-erased call inside remains.
  Network(Engine& engine, LatencyFn latency)
      : engine_(engine), owned_latency_(std::move(latency)) {
    P2PLB_REQUIRE(owned_latency_ != nullptr);
    latency_ = Latency{&owned_latency_, [](void* ctx, Endpoint from,
                                           Endpoint to) -> Time {
      return (*static_cast<LatencyFn*>(ctx))(from, to);
    }};
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// RAII guard installing `ctx` as the network's ambient causal context
  /// (restored on destruction).  Protocol roots use it so their first
  /// wave of sends parents to the root span; the network itself installs
  /// one around every delivery callback.
  class ContextScope {
   public:
    ContextScope(Network& net, const obs::SpanContext& ctx) noexcept
        : net_(net) {
      saved_ = net_.ambient_;
      net_.ambient_ = ctx;
    }
    ~ContextScope() { net_.ambient_ = saved_; }
    ContextScope(const ContextScope&) = delete;
    ContextScope& operator=(const ContextScope&) = delete;

   private:
    Network& net_;
    obs::SpanContext saved_;
  };

  /// The causal context of the message currently being delivered (or the
  /// innermost ContextScope); all-zero outside any scope or when no
  /// tracer is attached.
  [[nodiscard]] const obs::SpanContext& current_context() const noexcept {
    return ambient_;
  }

  /// Deliver `on_receive` at the destination after the link latency plus
  /// `processing_delay`.  `bytes` feeds the traffic counters only.  A
  /// non-empty `tag` additionally books the message under that tag's
  /// counter set (see counters()).  Returns the link latency charged, so
  /// a caller that needs it makes no second lookup.
  Time send(Endpoint from, Endpoint to, EventFn on_receive,
            double bytes = 0.0, Time processing_delay = 0.0,
            std::string_view tag = {}) {
    P2PLB_REQUIRE(processing_delay >= 0.0);
    const Time lat = latency_(from, to);
    P2PLB_ASSERT_MSG(lat >= 0.0, "latency function returned negative delay");
    account(totals_, lat, bytes);
    const std::uint32_t tag_id = tag.empty() ? 0 : tag_slot(tag) + 1;
    TagSlot* const slot = tag_id != 0 ? &tags_[tag_id - 1] : nullptr;
    if (slot != nullptr) account(slot->counters, lat, bytes);
    if (windows_ != nullptr) {
      // Passive, with series ids resolved at attach time: no allocation,
      // no lookups, no new events.
      windows_->record(win_messages_, engine_.now(), 1.0);
      windows_->record(win_bytes_, engine_.now(), bytes);
    }
    obs::SpanContext ctx;  // trace 0: the send is not traced
    if (tracer_ != nullptr) {
      // A child span of whatever context is ambient now.  Ids are
      // allocated whether or not the trace is sampled in -- sampling
      // never perturbs the id sequence -- and keeps() is a pure function
      // of the trace id, so send and delivery always agree.
      ctx = tracer_->child_of(ambient_);
      if (tracer_->keeps(ctx.trace)) {
        tracer_->instant(engine_.now(), lane_of(tag_id), "msg.send", ctx,
                         {obs::arg("from", from), obs::arg("to", to),
                          obs::arg("bytes", bytes), obs::arg("latency", lat)});
        tracer_->flow_start(engine_.now(), lane_of(tag_id), "msg", ctx.span);
      }
    }
    // The profiler's causal envelope: the ambient stack extended by the
    // tag frame, re-entered around the delivery (the root stack when the
    // send is not profiled).
    const obs::Profiler::StackId carried =
        profiler_ == nullptr ? obs::Profiler::kRootStack
                             : profiler_->push(profiler_->current(),
                                               slot ? slot->frame : net_frame_);
    if (core::FlightRecorder* fr = engine_.flight_recorder(); fr != nullptr) {
      if (slot != nullptr && slot->recorder != fr) {
        fr->name_tag(static_cast<std::uint16_t>(tag_id), slot->name);
        slot->recorder = fr;
      }
      fr->record({engine_.now(), 0, ctx.trace, from, to,
                  static_cast<std::uint16_t>(tag_id),
                  core::FlightRecorder::kSend});
    }
    const Time delay = lat + processing_delay;
    if (ctx.trace == 0 && carried == obs::Profiler::kRootStack) {
      engine_.schedule_after(delay, std::move(on_receive));
      return lat;
    }
    // The one delivery wrapper.  The tracer and profiler are re-read at
    // delivery: either may detach while the message is in flight.
    engine_.schedule_after(
        delay, [this, ctx, from, to, tag_id, carried,
                inner = std::move(on_receive)]() mutable {
          // Outermost, so the deliver instants count under the message.
          const obs::Profiler::Scope prof_scope(
              carried != obs::Profiler::kRootStack ? profiler_ : nullptr,
              carried);
          if (ctx.trace == 0) return inner();
          if (tracer_ != nullptr && tracer_->keeps(ctx.trace)) {
            tracer_->flow_end(engine_.now(), lane_of(tag_id), "msg", ctx.span);
            tracer_->instant(engine_.now(), lane_of(tag_id), "msg.deliver",
                             ctx, {obs::arg("from", from), obs::arg("to", to)});
          }
          const ContextScope scope(*this, ctx);  // its sends descend from it
          inner();
        });
    return lat;
  }

  [[nodiscard]] Engine& engine() noexcept { return engine_; }

  /// Record every send/deliver into `tracer` (nullptr detaches).
  void attach_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

  /// Attribute every delivery's wall time to `profiler` under the
  /// message's tag frame, nested in the causal stack that was ambient at
  /// send time, and hand it to the engine to time every event (nullptr
  /// detaches both).  The engine interns its frame first, then tag
  /// frames follow as (tag, layer-prefix); untagged sends use ("net",
  /// "net").  Tags already in use are re-interned here, later ones on
  /// their first send.
  void attach_profiler(obs::Profiler* profiler) {
    engine_.attach_profiler(profiler);
    profiler_ = profiler;
    net_frame_ = profiler != nullptr ? profiler->intern("net", "net") : 0;
    for (TagSlot& s : tags_) s.frame = tag_frame(s.name);
  }
  [[nodiscard]] obs::Profiler* profiler() const noexcept { return profiler_; }

  /// A registry the network creates on first use and owns.  The network
  /// never writes to it on its own: protocols publish their outcomes
  /// there, and export_metrics(metrics()) adds the traffic tallies.
  [[nodiscard]] obs::MetricsRegistry& metrics() {
    if (metrics_ == nullptr)
      metrics_ = std::make_unique<obs::MetricsRegistry>();
    return *metrics_;
  }

  /// Publish the traffic tallies into `registry` as gauges, like
  /// Engine::export_metrics: net.messages / net.bytes / net.latency_sum
  /// over every send, plus the same three labelled {tag=...} for each tag
  /// sent at least once.  Values are set, not added, so exporting again
  /// after more traffic overwrites them.
  void export_metrics(obs::MetricsRegistry& registry) const {
    const auto set = [&registry](const TrafficCounters& c,
                                 const obs::Labels& labels) {
      registry.gauge("net.messages", labels)
          .set(static_cast<double>(c.messages));
      registry.gauge("net.bytes", labels).set(c.bytes);
      registry.gauge("net.latency_sum", labels).set(c.latency_sum);
    };
    set(totals_, {});
    for (const TagSlot& s : tags_) set(s.counters, {{"tag", s.name}});
  }

  /// Feed every send into `windows`'s net.messages / net.bytes counter
  /// series, and hand it to the engine to close its buckets on time
  /// (nullptr detaches both).  Series ids resolve once here, so the
  /// per-send cost is one pointer test plus two record()s.
  void attach_windows(obs::WindowedAggregator* windows) {
    windows_ = windows;
    engine_.attach_windows(windows);
    if (windows != nullptr) {
      win_messages_ = windows->counter_series("net.messages");
      win_bytes_ = windows->counter_series("net.bytes");
    }
  }

  /// The latency the next send between these endpoints would pay (no
  /// accounting side effects).
  [[nodiscard]] Time latency_between(Endpoint from, Endpoint to) const {
    return latency_(from, to);
  }

  /// Totals over every send, tagged or not.
  [[nodiscard]] const TrafficCounters& totals() const noexcept {
    return totals_;
  }
  /// Counters for one tag (all-zero if nothing was sent under it).
  [[nodiscard]] TrafficCounters counters(std::string_view tag) const {
    for (const TagSlot& s : tags_)
      if (s.name == tag) return s.counters;
    return {};
  }

 private:
  /// The one place a tag lives: its name (also its trace lane), tally,
  /// profiler frame (0 when no profiler is attached), and the flight
  /// recorder its index has been named in.
  struct TagSlot {
    std::string name;
    TrafficCounters counters;
    obs::Profiler::FrameId frame = 0;
    const core::FlightRecorder* recorder = nullptr;
  };

  /// The trace lane of a tag id: the tag itself, "net" when untagged.
  [[nodiscard]] std::string_view lane_of(std::uint32_t tag_id) const {
    return tag_id == 0 ? "net" : std::string_view(tags_[tag_id - 1].name);
  }

  static void account(TrafficCounters& c, Time lat, double bytes) noexcept {
    ++c.messages;
    c.bytes += bytes;
    c.latency_sum += lat;
  }

  [[nodiscard]] obs::Profiler::FrameId tag_frame(std::string_view tag) const {
    return profiler_ != nullptr ? profiler_->intern(tag, obs::tag_layer(tag))
                                : 0;
  }

  /// The index of the slot for `tag`, created on its first send.  Sends
  /// come in long same-tag bursts (one protocol phase at a time), so the
  /// last slot hit is checked first; a miss scans the few tags in use.
  std::uint32_t tag_slot(std::string_view tag) {
    if (last_slot_ < tags_.size() && tags_[last_slot_].name == tag)
      return last_slot_;
    const auto it =
        std::find_if(tags_.begin(), tags_.end(),
                     [tag](const TagSlot& s) { return s.name == tag; });
    last_slot_ = static_cast<std::uint32_t>(it - tags_.begin());
    if (it == tags_.end()) {
      P2PLB_REQUIRE_MSG(tags_.size() < 0xFFFF, "too many network tags");
      tags_.push_back({std::string(tag), TrafficCounters{}, tag_frame(tag)});
    }
    return last_slot_;
  }

  Engine& engine_;
  LatencyFn owned_latency_;  ///< Backing store for the wrapping ctor only.
  Latency latency_;
  TrafficCounters totals_;
  // Per-tag tallies in first-use order, and the index of the last slot
  // hit (sends burst per tag).
  std::vector<TagSlot> tags_;
  std::uint32_t last_slot_ = 0;

  obs::Tracer* tracer_ = nullptr;
  obs::SpanContext ambient_;
  obs::Profiler* profiler_ = nullptr;
  obs::Profiler::FrameId net_frame_ = 0;       ///< ("net","net"), untagged
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  obs::WindowedAggregator* windows_ = nullptr;
  obs::SeriesId win_messages_;  ///< resolved at attach_windows time
  obs::SeriesId win_bytes_;
};

}  // namespace p2plb::sim
