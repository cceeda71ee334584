#include "ktree/protocol.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>

namespace p2plb::ktree {

VsLatencyFn unit_latency(const chord::Ring& ring, sim::Time unit) {
  P2PLB_REQUIRE(unit >= 0.0);
  return [&ring, unit](chord::Key from_vs, chord::Key to_vs) -> sim::Time {
    if (from_vs == to_vs) return 0.0;
    const std::optional<chord::NodeIndex> from = ring.find_owner(from_vs);
    if (!from) return unit;
    const std::optional<chord::NodeIndex> to = ring.find_owner(to_vs);
    return to && *from == *to ? 0.0 : unit;
  };
}

namespace {

/// Annotation context for a sweep instant: ties it to the
/// currently-delivering message (span 0 -- the instant is not a DAG node
/// of its own, it decorates its parent).
obs::SpanContext annotate(const sim::Network& net) {
  const obs::SpanContext& ambient = net.current_context();
  return obs::SpanContext{ambient.trace, 0, ambient.span};
}

/// Shared state of one in-flight sweep; events hold it via shared_ptr so
/// the begin_* call can return before the sweep finishes.
struct SweepState {
  const KTree* tree = nullptr;
  sim::Network* net = nullptr;
  NetSweepOptions opts;
  std::span<const sim::Endpoint> host;  // per KT node, owned by the caller
  std::vector<std::uint16_t> pending;  // bottom-up: children yet to report
  std::vector<bool> released;          // bottom-up: leaf already triggered
  std::size_t leaves_left = 0;         // top-down: leaves yet to receive
  SweepResult result;
  sim::Time start = 0.0;
  std::function<void(KtIndex)> on_leaf;
  std::function<void(const SweepResult&)> on_complete;

  void count(sim::Time lat) {
    if (lat > 0.0) {
      ++result.messages;
    } else {
      ++result.local_hops;
    }
  }

  /// Lane the sweep's trace events land on.
  [[nodiscard]] std::string_view lane() const noexcept {
    return opts.tag.empty() ? std::string_view("ktree") : opts.tag;
  }
};

std::shared_ptr<SweepState> make_state(sim::Network& net, const KTree& tree,
                                       std::span<const sim::Endpoint> host,
                                       NetSweepOptions options) {
  P2PLB_REQUIRE_MSG(host.size() == tree.size(),
                    "a sweep needs one endpoint per tree node");
  auto s = std::make_shared<SweepState>();
  s->tree = &tree;
  s->net = &net;
  s->opts = std::move(options);
  s->start = net.engine().now();
  s->host = host;
  return s;
}

// Completion bubbles upward: when node i's subtree is folded, its report
// travels the parent edge through the network.  Recursion goes through a
// free function (not a self-capturing shared closure) so the in-flight
// sends are the only owners of the state -- once they drain, it is freed.
void fold_up(const std::shared_ptr<SweepState>& s, KtIndex i) {
  const KTree& t = *s->tree;
  if (i == t.root()) {
    s->result.completion_time = s->net->engine().now() - s->start;
    if (obs::Tracer* tracer = s->net->tracer())
      tracer->instant(s->net->engine().now(), s->lane(), "sweep.root_folded",
                      annotate(*s->net),
                      {obs::arg("messages", s->result.messages),
                       obs::arg("local_hops", s->result.local_hops)});
    if (s->on_complete) s->on_complete(s->result);
    return;
  }
  const KtIndex parent = t.node(i).parent;
  // The traced instant precedes msg.send and carries the latency, so only
  // a traced hop looks it up ahead of the send.
  if (obs::Tracer* tracer = s->net->tracer())
    tracer->instant(
        s->net->engine().now(), s->lane(), "sweep.fold", annotate(*s->net),
        {obs::arg("node", i), obs::arg("parent", parent),
         obs::arg("latency",
                  s->net->latency_between(s->host[i], s->host[parent]))});
  s->count(s->net->send(
      s->host[i], s->host[parent],
      [s, parent] {
        P2PLB_ASSERT(s->pending[parent] > 0);
        if (--s->pending[parent] == 0) fold_up(s, parent);
      },
      s->opts.bytes_per_message, 0.0, s->opts.tag));
}

// Top-down mirror of fold_up, with the same ownership discipline.
void deliver_down(const std::shared_ptr<SweepState>& s, KtIndex i) {
  const KTree& t = *s->tree;
  if (t.node(i).is_leaf()) {
    // Events fire in time order, so the last leaf delivery is the max.
    s->result.completion_time = s->net->engine().now() - s->start;
    if (obs::Tracer* tracer = s->net->tracer())
      tracer->instant(s->net->engine().now(), s->lane(), "sweep.leaf_reached",
                      annotate(*s->net),
                      {obs::arg("leaf", i),
                       obs::arg("leaves_left", s->leaves_left - 1)});
    if (s->on_leaf) s->on_leaf(i);
    if (--s->leaves_left == 0 && s->on_complete) s->on_complete(s->result);
    return;
  }
  const KtIndex first = t.node(i).first_child;
  for (std::uint16_t c = 0; c < t.node(i).child_count; ++c) {
    const KtIndex child = first + c;
    if (obs::Tracer* tracer = s->net->tracer())
      tracer->instant(
          s->net->engine().now(), s->lane(), "sweep.deliver",
          annotate(*s->net),
          {obs::arg("node", i), obs::arg("child", child),
           obs::arg("latency",
                    s->net->latency_between(s->host[i], s->host[child]))});
    s->count(s->net->send(s->host[i], s->host[child],
                          [s, child] { deliver_down(s, child); },
                          s->opts.bytes_per_message, 0.0, s->opts.tag));
  }
}

}  // namespace

std::function<void(KtIndex)> begin_aggregation(
    sim::Network& net, const KTree& tree,
    std::span<const sim::Endpoint> host, NetSweepOptions options,
    std::function<void(const SweepResult&)> on_complete) {
  auto s = make_state(net, tree, host, std::move(options));
  s->on_complete = std::move(on_complete);
  s->pending.resize(tree.size());
  s->released.assign(tree.size(), false);
  for (KtIndex i = 0; i < tree.size(); ++i)
    s->pending[i] = tree.node(i).child_count;

  return [s](KtIndex leaf) {
    P2PLB_REQUIRE_MSG(s->tree->node(leaf).is_leaf(),
                      "only leaves start an aggregation");
    P2PLB_REQUIRE_MSG(!s->released[leaf], "leaf released twice");
    s->released[leaf] = true;
    fold_up(s, leaf);
  };
}

void begin_dissemination(sim::Network& net, const KTree& tree,
                         std::span<const sim::Endpoint> host,
                         NetSweepOptions options,
                         std::function<void(KtIndex)> on_leaf,
                         std::function<void(const SweepResult&)> on_complete) {
  auto s = make_state(net, tree, host, std::move(options));
  s->on_leaf = std::move(on_leaf);
  s->on_complete = std::move(on_complete);
  s->leaves_left = tree.leaf_count();
  deliver_down(s, tree.root());
}

MaintenanceProtocol::MaintenanceProtocol(sim::Engine& engine,
                                         chord::Ring& ring,
                                         std::uint32_t degree,
                                         sim::Time check_interval,
                                         VsLatencyFn latency)
    : engine_(engine),
      ring_(ring),
      degree_(degree),
      interval_(check_interval),
      latency_(std::move(latency)) {
  P2PLB_REQUIRE(degree_ >= 2);
  P2PLB_REQUIRE(check_interval > 0.0);
  P2PLB_REQUIRE(latency_ != nullptr);
}

void MaintenanceProtocol::start() {
  create_instance(Region::whole());
  // The root is planted at the deterministic center of the identifier
  // space; any node can locate (and if needed recreate) it.  Model that
  // with a watchdog firing every check interval.
  engine_.every(interval_, [this] {
    if (!by_region_.contains(Region::whole()) &&
        ring_.virtual_server_count() > 0) {
      ++reseeds_;  // the lookup that re-seeds the root
      // A reseed starts a fresh causal chain: nothing live caused it.
      const obs::SpanContext cause = trace_event(
          "maint.reseed", {}, Region::whole(),
          ring_.successor(Region::whole().midpoint()).id);
      create_instance(Region::whole(), cause);
    }
    return true;  // runs for the lifetime of the simulation
  });
}

obs::SpanContext MaintenanceProtocol::trace_event(
    std::string_view name, const obs::SpanContext& parent,
    const Region& region, chord::Key host) {
  if (tracer_ == nullptr) return {};
  const obs::SpanContext ctx = tracer_->child_of(parent);
  tracer_->instant(engine_.now(), "ktree.maintenance", name, ctx,
                   {obs::arg("lo", region.lo), obs::arg("len", region.len),
                    obs::arg("host", host)});
  return ctx;
}

void MaintenanceProtocol::create_instance(const Region& region,
                                          const obs::SpanContext& cause) {
  if (ring_.virtual_server_count() == 0) return;
  const auto [entry, inserted] = by_region_.try_emplace(region, 0);
  if (!inserted) return;
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    children_.resize(children_.size() + degree_);
  }
  entry->second = slot;
  Instance& inst = slots_[slot];
  inst.region = region;
  inst.host_vs = ring_.successor(region.midpoint()).id;
  ++inst.gen;
  inst.live = true;
  inst.ctx = trace_event("maint.create", cause, region, inst.host_vs);
  inst.entry = entry;
  std::fill_n(children_.begin() + std::ptrdiff_t{slot} * degree_, degree_,
              Handle{});
  schedule_check(Handle{slot, inst.gen});
}

void MaintenanceProtocol::destroy_instance(std::uint32_t slot) {
  Instance& inst = slots_[slot];
  by_region_.erase(inst.entry);
  inst.live = false;
  free_.push_back(slot);
}

void MaintenanceProtocol::schedule_check(Handle self) {
  engine_.schedule_after(interval_, [this, self] { check_instance(self); });
}

void MaintenanceProtocol::check_instance(Handle self) {
  if (!holds(self)) return;  // destroyed meanwhile: the chain ends here
  if (ring_.virtual_server_count() == 0) return;

  // Re-plant: the proper host is the current successor of the midpoint.
  Instance& inst = slots_[self.slot];
  const chord::Ring::SuccessorArc proper =
      ring_.successor_arc(inst.region.midpoint());
  if (inst.host_vs != proper.id) {
    ++replants_;  // state handoff to the new host
    inst.host_vs = proper.id;
    // The replant extends the instance's causal chain: later actions by
    // this instance parent to it.
    inst.ctx = trace_event("maint.replant", inst.ctx, inst.region, proper.id);
  }

  if (inst.region.len <= proper.arc) {
    prune_descendants(self.slot);
  } else {
    grow_children(self.slot, proper.id);
  }
  schedule_check(self);
}

void MaintenanceProtocol::prune_descendants(std::uint32_t slot) {
  // Prune every strict descendant, including orphans whose intermediate
  // ancestors already vanished.  Regions never wrap (children split
  // without crossing 2^32), so all descendants have lo in
  // [region.lo, region.lo + region.len) and smaller len -- a contiguous
  // range of the (lo, len)-ordered index around this instance's entry:
  // descendants sharing its lo sort just before it, the rest after it.
  const Region region = slots_[slot].region;
  auto it = slots_[slot].entry;
  while (it != by_region_.begin() && std::prev(it)->first.lo == region.lo)
    --it;
  while (it != by_region_.end() &&
         chord::distance_cw(region.lo, it->first.lo) < region.len) {
    // Ancestors (and this instance) share our lo with a len no smaller;
    // skip non-descendants.
    if (it->first.len >= region.len) {
      ++it;
      continue;
    }
    const std::uint32_t victim = it->second;
    ++prunes_;  // prune notification
    trace_event("maint.prune", slots_[slot].ctx, it->first,
                slots_[victim].host_vs);
    ++it;
    destroy_instance(victim);
  }
}

void MaintenanceProtocol::grow_children(std::uint32_t slot, chord::Key host) {
  const Region region = slots_[slot].region;
  Handle* cached = &children_[std::size_t{slot} * degree_];
  for (std::uint32_t c = 0; c < degree_; ++c) {
    const Region child = region.child(c, degree_);
    if (child.len == 0 || holds(cached[c])) continue;
    if (const auto it = by_region_.find(child); it != by_region_.end()) {
      cached[c] = Handle{it->second, slots_[it->second].gen};
      continue;
    }
    // Create the missing child after the create-message latency.
    const chord::Key child_host = ring_.successor(child.midpoint()).id;
    const sim::Time lat = latency_(host, child_host);
    if (lat > 0.0) ++creates_;
    // The child's creation is caused by this instance's check; capture
    // the parent context now so a replant in between doesn't rewrite
    // history.
    engine_.schedule_after(lat, [this, child, cause = slots_[slot].ctx] {
      create_instance(child, cause);
    });
  }
}

void MaintenanceProtocol::crash_node(chord::NodeIndex node) {
  // Capture the victim's servers, then remove it from the ring.
  const std::vector<chord::Key> victims = ring_.node(node).servers;
  ring_.remove_node(node);
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].live &&
        std::find(victims.begin(), victims.end(), slots_[slot].host_vs) !=
            victims.end())
      destroy_instance(slot);
  }
}

bool MaintenanceProtocol::converged() const {
  if (ring_.virtual_server_count() == 0) return by_region_.empty();
  const KTree target(ring_, degree_);
  if (by_region_.size() != target.size()) return false;
  for (KtIndex i = 0; i < target.size(); ++i) {
    const KtNode& n = target.node(i);
    const auto it = by_region_.find(n.region);
    if (it == by_region_.end()) return false;
    if (slots_[it->second].host_vs != n.host_vs) return false;
  }
  return true;
}

}  // namespace p2plb::ktree
