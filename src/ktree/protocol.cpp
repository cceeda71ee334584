#include "ktree/protocol.h"

#include <algorithm>
#include <memory>
#include <utility>

namespace p2plb::ktree {

VsLatencyFn unit_latency(const chord::Ring& ring, sim::Time unit) {
  P2PLB_REQUIRE(unit >= 0.0);
  return [&ring, unit](chord::Key from_vs, chord::Key to_vs) -> sim::Time {
    if (from_vs == to_vs) return 0.0;
    if (!ring.has_server(from_vs) || !ring.has_server(to_vs)) return unit;
    return ring.server_owner(from_vs) == ring.server_owner(to_vs) ? 0.0
                                                                  : unit;
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
  const sim::Time lat = s->net->latency_between(s->host[i], s->host[parent]);
  s->count(lat);
  if (obs::Tracer* tracer = s->net->tracer())
    tracer->instant(s->net->engine().now(), s->lane(), "sweep.fold",
                    annotate(*s->net),
                    {obs::arg("node", i), obs::arg("parent", parent),
                     obs::arg("latency", lat)});
  s->net->send(
      s->host[i], s->host[parent],
      [s, parent] {
        P2PLB_ASSERT(s->pending[parent] > 0);
        if (--s->pending[parent] == 0) fold_up(s, parent);
      },
      s->opts.bytes_per_message, 0.0, s->opts.tag);
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
    const sim::Time lat = s->net->latency_between(s->host[i], s->host[child]);
    s->count(lat);
    if (obs::Tracer* tracer = s->net->tracer())
      tracer->instant(s->net->engine().now(), s->lane(), "sweep.deliver",
                      annotate(*s->net),
                      {obs::arg("node", i), obs::arg("child", child),
                       obs::arg("latency", lat)});
    s->net->send(s->host[i], s->host[child],
                 [s, child] { deliver_down(s, child); },
                 s->opts.bytes_per_message, 0.0, s->opts.tag);
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
                                         VsLatencyFn latency,
                                         obs::MetricsRegistry* metrics)
    : engine_(engine),
      ring_(ring),
      degree_(degree),
      interval_(check_interval),
      latency_(std::move(latency)),
      metrics_(metrics) {
  P2PLB_REQUIRE(degree_ >= 2);
  P2PLB_REQUIRE(check_interval > 0.0);
  P2PLB_REQUIRE(latency_ != nullptr);
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  constexpr std::string_view kName = "ktree.maintenance.messages";
  msg_reseed_ = &metrics_->counter(kName, {{"kind", "reseed"}});
  msg_replant_ = &metrics_->counter(kName, {{"kind", "replant"}});
  msg_prune_ = &metrics_->counter(kName, {{"kind", "prune"}});
  msg_create_ = &metrics_->counter(kName, {{"kind", "create"}});
}

void MaintenanceProtocol::start() {
  create_instance(Region::whole());
  // The root is planted at the deterministic center of the identifier
  // space; any node can locate (and if needed recreate) it.  Model that
  // with a watchdog firing every check interval.
  engine_.every(interval_, [this] {
    if (!instances_.contains(Region::whole()) &&
        ring_.virtual_server_count() > 0) {
      msg_reseed_->increment();  // the lookup that re-seeds the root
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
  if (instances_.contains(region)) return;
  if (ring_.virtual_server_count() == 0) return;
  Instance inst;
  inst.host_vs = ring_.successor(region.midpoint()).id;
  inst.ctx = trace_event("maint.create", cause, region, inst.host_vs);
  instances_.emplace(region, inst);
  schedule_check(region);
}

void MaintenanceProtocol::schedule_check(const Region& region) {
  engine_.schedule_after(interval_, [this, region] {
    check_instance(region);
  });
}

void MaintenanceProtocol::check_instance(const Region& region) {
  const auto it = instances_.find(region);
  if (it == instances_.end()) return;  // destroyed meanwhile: stop checking
  if (ring_.virtual_server_count() == 0) return;

  // Re-plant: the proper host is the current successor of the midpoint.
  const chord::Key proper = ring_.successor(region.midpoint()).id;
  if (it->second.host_vs != proper) {
    msg_replant_->increment();  // state handoff to the new host
    it->second.host_vs = proper;
    // The replant extends the instance's causal chain: later actions by
    // this instance parent to it.
    it->second.ctx = trace_event("maint.replant", it->second.ctx, region,
                                 proper);
  }

  const bool is_leaf = region.len <= ring_.arc_size(proper);
  if (is_leaf) {
    // Prune every strict descendant, including orphans whose intermediate
    // ancestors already vanished.  Regions never wrap (children split
    // without crossing 2^32), so all descendants have lo in
    // [region.lo, region.lo + region.len) and smaller len -- a contiguous
    // range of the (lo, len)-ordered instance map.
    auto it2 = instances_.lower_bound(Region{region.lo, 0});
    while (it2 != instances_.end() &&
           chord::distance_cw(region.lo, it2->first.lo) < region.len) {
      // Ancestors can share our lo with a larger len; skip non-descendants.
      if (it2->first.len >= region.len) {
        ++it2;
        continue;
      }
      msg_prune_->increment();  // prune notification
      trace_event("maint.prune", it->second.ctx, it2->first,
                  it2->second.host_vs);
      it2 = instances_.erase(it2);
    }
  } else {
    // Grow: create any missing child after the create-message latency.
    for (std::uint32_t c = 0; c < degree_; ++c) {
      const Region child = region.child(c, degree_);
      if (child.len == 0 || instances_.contains(child)) continue;
      const chord::Key child_host = ring_.successor(child.midpoint()).id;
      const sim::Time lat = latency_(proper, child_host);
      if (lat > 0.0) msg_create_->increment();
      // The child's creation is caused by this instance's check; capture
      // the parent context now so a replant in between doesn't rewrite
      // history.
      engine_.schedule_after(lat, [this, child, cause = it->second.ctx] {
        create_instance(child, cause);
      });
    }
  }
  schedule_check(region);
}

void MaintenanceProtocol::crash_node(chord::NodeIndex node) {
  // Capture the victim's servers, then remove it from the ring.
  const std::vector<chord::Key> victims = ring_.node(node).servers;
  ring_.remove_node(node);
  for (auto it = instances_.begin(); it != instances_.end();) {
    const bool hosted_by_victim =
        std::find(victims.begin(), victims.end(), it->second.host_vs) !=
        victims.end();
    it = hosted_by_victim ? instances_.erase(it) : std::next(it);
  }
}

bool MaintenanceProtocol::converged() const {
  if (ring_.virtual_server_count() == 0) return instances_.empty();
  const KTree target(ring_, degree_);
  if (instances_.size() != target.size()) return false;
  for (KtIndex i = 0; i < target.size(); ++i) {
    const KtNode& n = target.node(i);
    const auto it = instances_.find(n.region);
    if (it == instances_.end()) return false;
    if (it->second.host_vs != n.host_vs) return false;
  }
  return true;
}

}  // namespace p2plb::ktree
