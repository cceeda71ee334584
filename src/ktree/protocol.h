// Event-driven K-nary tree protocols (Section 3.1's dynamic behaviour).
//
// The KTree class materializes the *converged* tree; this module models
// the protocol that reaches and maintains it:
//
//   * begin_aggregation / begin_dissemination -- a bottom-up fold (or,
//     symmetrically, a top-down delivery) over the converged tree as
//     sends on a sim::Network: a child forwards to its parent as soon as
//     its own subtree is complete; a hop the network charges no latency
//     (both KT nodes hosted on one physical node, under the usual latency
//     models) counts as a local hop, not a message.  The completion time
//     is the paper's "LBI aggregation is bound in O(log_K N) time"
//     quantity.
//
//   * MaintenanceProtocol -- soft-state tree maintenance: every KT-node
//     instance periodically re-checks its planting (host = successor of
//     the region midpoint), its leaf condition, and its children,
//     creating missing children and pruning redundant ones.  Crashing a
//     DHT node destroys the instances it hosted; the periodic checks
//     regrow them top-down, which is the self-repair property the paper
//     claims completes in O(log_K N) rounds.  Instances live in dense
//     generation-tagged slots under one ordered region index; a check
//     names its instance by (slot, generation), so a check chain dies
//     with its instance even if the region is recreated before the dead
//     instance's pending check fires.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "chord/ring.h"
#include "ktree/region.h"
#include "ktree/tree.h"
#include "obs/trace.h"
#include "sim/engine.h"
#include "sim/network.h"

namespace p2plb::ktree {

/// Latency between two *virtual servers* (in practice: between their
/// hosts' topology attachments, or a constant for abstract experiments).
using VsLatencyFn =
    std::function<sim::Time(chord::Key from_vs, chord::Key to_vs)>;

/// A VsLatencyFn charging `unit` per remote message and 0 when both
/// servers live on the same physical node.
[[nodiscard]] VsLatencyFn unit_latency(const chord::Ring& ring,
                                       sim::Time unit = 1.0);

/// Result of one simulated sweep.
struct SweepResult {
  sim::Time completion_time = 0.0;  ///< when the root (or last leaf) fired
  std::uint64_t messages = 0;       ///< remote (non-zero-latency) messages
  std::uint64_t local_hops = 0;     ///< zero-latency parent-child handoffs
};

/// Options for the Network-riding sweeps.  Every hop -- zero-latency ones
/// included -- goes through Network::send under `tag`, so the network's
/// per-tag counters see the sweep's complete logical message count while
/// SweepResult still separates remote messages from local handoffs.
struct NetSweepOptions {
  std::string tag;
  double bytes_per_message = 0.0;
};

/// Begin a bottom-up sweep over `tree` on `net`'s engine, starting at the
/// current simulated time.  Returns a release function: calling it marks
/// the given leaf's input complete (each leaf exactly once); the leaf's
/// report then climbs, and `on_complete(result)` fires from the engine
/// once the root has folded every subtree.  It never drains the engine,
/// so it composes with concurrent protocols (churn, maintenance, an
/// in-flight balancing round); a caller that wants the sweep alone runs
/// the engine itself.  `host[i]` is the
/// network endpoint of KT node i's host; it must hold tree.size()
/// entries.  `tree`, `host` and `net` must outlive the sweep.
[[nodiscard]] std::function<void(KtIndex)> begin_aggregation(
    sim::Network& net, const KTree& tree,
    std::span<const sim::Endpoint> host, NetSweepOptions options,
    std::function<void(const SweepResult&)> on_complete);

/// Top-down counterpart: delivery starts at the root immediately.
/// `on_leaf(leaf)` fires as each leaf receives (the hand-off to the
/// hosting node is the caller's concern); `on_complete` fires once every
/// leaf has received.  Never drains the engine.  `host` as for
/// begin_aggregation.
void begin_dissemination(sim::Network& net, const KTree& tree,
                         std::span<const sim::Endpoint> host,
                         NetSweepOptions options,
                         std::function<void(KtIndex)> on_leaf,
                         std::function<void(const SweepResult&)> on_complete);

/// Soft-state maintenance protocol over a (mutable) ring.
///
/// The experiment owns the ring and the engine; the protocol installs a
/// periodic check per live KT-node instance.  After membership changes,
/// call on_ring_changed() (and crash_node() *instead of* calling
/// Ring::remove_node directly, so instances hosted by the crashed node
/// disappear with it).  converged() compares the live instance set with
/// the converged KTree of the ring's current membership.
class MaintenanceProtocol {
 public:
  /// `ring`, `engine` must outlive the protocol.  `check_interval` is
  /// the paper's periodic-check period T.
  MaintenanceProtocol(sim::Engine& engine, chord::Ring& ring,
                      std::uint32_t degree, sim::Time check_interval,
                      VsLatencyFn latency);

  /// Bootstrap: create the root instance and start its periodic check.
  void start();

  /// Record the causal repair chain into `tracer` (nullptr detaches).
  /// Only *acting* checks emit events (maint.create / maint.replant /
  /// maint.prune / maint.reseed on the "ktree.maintenance" lane), each a
  /// child span of the instance event that caused it, so a repair after
  /// a crash reads as one connected DAG and an idle steady state adds no
  /// events at all.  With no tracer attached the protocol allocates no
  /// ids and its schedule is unchanged.
  void attach_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Crash a node: removes it from the ring and destroys every KT-node
  /// instance hosted by one of its virtual servers.
  void crash_node(chord::NodeIndex node);

  /// True iff the live instances exactly match the converged tree of the
  /// ring's current membership (same regions, same hosts).
  [[nodiscard]] bool converged() const;

  /// Number of live KT-node instances.
  [[nodiscard]] std::size_t instance_count() const {
    return by_region_.size();
  }
  /// Maintenance messages sent so far: root reseeds, replant handoffs,
  /// prune notifications and remote child creates.
  [[nodiscard]] std::uint64_t messages() const noexcept {
    return reseeds_ + replants_ + prunes_ + creates_;
  }

  /// Visit every live instance as fn(region, host_vs), in region order
  /// -- diagnostics.
  template <typename Fn>
  void for_each_instance(Fn&& fn) const {
    for (const auto& [region, slot] : by_region_)
      fn(region, slots_[slot].host_vs);
  }

  /// The tree degree K.
  [[nodiscard]] std::uint32_t degree() const noexcept { return degree_; }

  /// Whether an instance currently exists for this exact region.
  [[nodiscard]] bool has_instance(const Region& region) const {
    return by_region_.contains(region);
  }

  /// The hosting VS of an instance (throws if absent).
  [[nodiscard]] chord::Key instance_host(const Region& region) const {
    const auto it = by_region_.find(region);
    P2PLB_REQUIRE_MSG(it != by_region_.end(), "no such instance");
    return slots_[it->second].host_vs;
  }

 private:
  /// Region -> slot of its live instance, in RegionOrder.
  using RegionIndex = std::map<Region, std::uint32_t, RegionOrder>;

  /// Names one instance while it lives.  Each occupant of a slot gets
  /// the next generation, so a handle to a destroyed instance never
  /// matches again, even once its slot is reused.
  struct Handle {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;  ///< 0 matches nothing: occupants start at 1
  };

  /// One KT-node instance, in a dense slot recycled through free_.
  struct Instance {
    Region region;
    chord::Key host_vs = 0;
    std::uint32_t gen = 0;  ///< generation of the current or last occupant
    bool live = false;
    /// Causal identity of the instance's last recorded lifecycle event
    /// (creation or replant); children of its checks parent to it.
    obs::SpanContext ctx;
    RegionIndex::iterator entry;  ///< this instance's by_region_ entry
  };

  /// Emit a lifecycle instant as a child span of `parent` (no-op with no
  /// tracer attached); returns the new event's context.
  obs::SpanContext trace_event(std::string_view name,
                               const obs::SpanContext& parent,
                               const Region& region, chord::Key host);

  [[nodiscard]] bool holds(Handle h) const noexcept {
    return h.slot < slots_.size() && slots_[h.slot].live &&
           slots_[h.slot].gen == h.gen;
  }

  void create_instance(const Region& region,
                       const obs::SpanContext& cause = {});
  void destroy_instance(std::uint32_t slot);
  void check_instance(Handle self);
  void schedule_check(Handle self);
  /// A leaf's check: drop every instance of a strict descendant region.
  void prune_descendants(std::uint32_t slot);
  /// An internal node's check: create each missing child (hosted now at
  /// `host`) after the create-message latency.
  void grow_children(std::uint32_t slot, chord::Key host);

  sim::Engine& engine_;
  chord::Ring& ring_;
  std::uint32_t degree_;
  sim::Time interval_;
  VsLatencyFn latency_;
  std::vector<Instance> slots_;
  /// degree_ cached child handles per slot; a stale one is looked up
  /// again in by_region_.
  std::vector<Handle> children_;
  std::vector<std::uint32_t> free_;
  RegionIndex by_region_;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t reseeds_ = 0;   ///< lookups re-seeding the root
  std::uint64_t replants_ = 0;  ///< state handoffs to a new host
  std::uint64_t prunes_ = 0;    ///< prune notifications
  std::uint64_t creates_ = 0;   ///< remote child-create messages
};

}  // namespace p2plb::ktree
