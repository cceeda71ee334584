// One event-driven balancing round on the discrete-event engine.
//
// The four phases of Section 3 run as scheduled events over a shared
// sim::Network, so the paper's *temporal* claims -- LBI aggregation and
// VS assignment complete in O(log_K N) time, transfers overlap the sweep
// -- become measurable, and the round composes with concurrent protocols
// (churn, tree maintenance) on the same engine.
//
//   phase 1  every node sends its <L, C, L_min> triple to its entry
//            leaf; the fold climbs the tree via ktree::begin_aggregation.
//   phase 2  the root triple travels down via ktree::begin_dissemination;
//            each leaf hands it off to its hosting node.
//   phase 3  heavy/light records travel to their entry leaves; each KT
//            node pairs when its last input arrives and forwards
//            leftovers upward; pair notifications go to both endpoints.
//   phase 4  on receiving its notification, a heavy node streams the
//            virtual server to its destination (applied to the ring at
//            delivery time).  Phase 4 overlaps phase 3: deep rendezvous
//            fire before the sweep finishes (Section 3.5).
//
// What to transfer is decided from a ring snapshot at construction using
// the same oracle pipeline as run_balance_round -- aggregate_lbi,
// classify_all, build_entries_*, run_vsa -- and the events replay that
// dataflow with real latencies: Reporter gives each node's entry leaf,
// VsaEntries each leaf's records, the dense VsaTrace each KT node's
// forwarded count and assignment range, and nothing is re-decided.  The
// events are the only clock: they stamp Assignment::available_at and
// VsaResult::sweep_completion_time, which run_vsa leaves at 0.  Latency
// changes *when*, never *what*: for equal rng state the timed round and
// the synchronous wrapper produce identical pairings and identical
// post-transfer classifications.  Every
// remote hop passes through sim::Network::send under a per-phase tag, so
// message/byte/latency accounting lives in exactly one place: the
// per-phase counters are emitted as BalanceReport::phases.
//
// The ring may churn while a round is in flight: decisions were
// snapshotted, endpoints were snapshotted, and a transfer whose server
// vanished or whose destination died is skipped at delivery time (the
// lazy protocol) -- no event ever blocks on a crashed node, so a round
// always completes.
#pragma once

#include <array>
#include <functional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"
#include "ktree/tree.h"
#include "lb/balancer.h"
#include "obs/metrics.h"
#include "sim/network.h"

namespace p2plb::lb {

/// Per-phase traffic tags used on the shared network.
inline constexpr std::string_view kTagAggregation = "lb.aggregation";
inline constexpr std::string_view kTagDissemination = "lb.dissemination";
inline constexpr std::string_view kTagVsa = "lb.vsa";
inline constexpr std::string_view kTagTransfer = "lb.transfer";

/// Timed-round configuration.
struct ProtocolRoundConfig {
  BalancerConfig balancer;
};

/// A node's network endpoint: its topology attachment when it has one,
/// else its node index.  Latency functions driving the round must speak
/// this convention (topo::DistanceOracle::latency speaks attachment
/// vertices).
[[nodiscard]] sim::Endpoint node_endpoint(const chord::Ring& ring,
                                          chord::NodeIndex node);

/// One endpoint per KT node, indexed by KtIndex: the node_endpoint of the
/// node hosting it.  This is the `host` span the ktree sweeps take.
[[nodiscard]] std::vector<sim::Endpoint> host_endpoints(
    const ktree::KTree& tree);

/// One balancing round as a protocol over simulated time.
///
/// Construction snapshots the ring and decides everything (consuming the
/// same rng draws as run_balance_round); start() schedules phase 1 at the
/// engine's current time and the remaining phases chain behind it.  The
/// round object must outlive its events (i.e. live until done()); `net`,
/// `ring` and `rng` must outlive the round.
class ProtocolRound {
 public:
  ProtocolRound(sim::Network& net, chord::Ring& ring,
                const ProtocolRoundConfig& config, Rng& rng,
                std::span<const chord::Key> node_keys = {});

  /// Schedule the round starting now.  `on_complete`, if given, fires
  /// from the engine once the last transfer has been delivered.
  void start(std::function<void(const BalanceReport&)> on_complete = {});

  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// The finished report (throws unless done()).
  [[nodiscard]] const BalanceReport& report() const {
    P2PLB_REQUIRE_MSG(done_, "round has not completed");
    return report_;
  }

  /// The sweep decisions, fixed at construction -- what the round WILL
  /// do.  Valid before start(); timing fields are filled in as it runs.
  [[nodiscard]] const VsaResult& planned() const noexcept {
    return report_.vsa;
  }

  /// The converged tree snapshot the round runs over.
  [[nodiscard]] const ktree::KTree& tree() const noexcept { return tree_; }

 private:
  [[nodiscard]] PhaseMetrics& metrics(Phase p) noexcept {
    return report_.phases[static_cast<std::size_t>(p)];
  }
  static std::string_view tag_of(Phase p) noexcept;
  void begin_phase(Phase p);
  void end_phase(Phase p);

  void start_aggregation();
  void start_dissemination();
  void start_vsa();
  /// One phase-3 message; `on_receive` runs at delivery, before the
  /// outstanding count drops.  A template so the delivery closure holds
  /// the handler by value and stays within EventFn's inline buffer.
  template <class OnReceive>
  void vsa_send(sim::Endpoint from, sim::Endpoint to, double bytes,
                OnReceive on_receive);
  void vsa_record_arrival(ktree::KtIndex node);
  void vsa_process(ktree::KtIndex node);
  void finish_vsa();
  void begin_transfer(std::size_t assignment_index);
  void maybe_finish();

  sim::Network& net_;
  chord::Ring& ring_;
  ProtocolRoundConfig config_;
  ktree::KTree tree_;

  // Decisions and snapshots, fixed at construction.  Lookups here sit on
  // the per-message hot path of a timed round, so they are dense arrays
  // indexed by NodeIndex/KtIndex, not hash maps (trace_ included: vsa
  // events read trace_.forwarded_up and trace_.assignments_of directly).
  BalanceReport report_;
  VsaEntries entries_;
  VsaTrace trace_;
  std::vector<sim::Endpoint> host_ep_;  // per KT node: its host's endpoint
  std::vector<sim::Endpoint> node_ep_;  // per NodeIndex; live nodes only

  // Observability.  PhaseMetrics are deltas of the network's per-tag
  // tallies (see balancer.h); round outcomes (lb.*) go to the registry
  // the network owns.
  obs::MetricsRegistry* registry_ = nullptr;
  // Load moved by physical distance; null when the round moves nothing.
  obs::HistogramMetric* transfer_distance_ = nullptr;
  // Causal spans (zero when no tracer is attached): the round span roots
  // one trace; each phase span and per-transfer async span is a child of
  // the message whose delivery started it (the round span for phase 1).
  obs::SpanContext round_ctx_;
  std::array<obs::SpanContext, kPhaseCount> phase_ctx_{};
  std::vector<obs::SpanContext> transfer_ctx_;  // per assignment index

  // Event-time state.
  std::function<void(const BalanceReport&)> on_complete_;
  double t0_ = 0.0;
  std::array<sim::TrafficCounters, kPhaseCount> phase_base_{};
  std::vector<std::uint32_t> lbi_waits_;  // per KT node (leaves only used)
  std::function<void(ktree::KtIndex)> release_leaf_;
  std::size_t handoffs_left_ = 0;
  std::vector<std::uint32_t> vsa_waits_;  // per KT node
  std::uint64_t vsa_outstanding_ = 0;
  bool vsa_done_ = false;
  std::size_t transfers_outstanding_ = 0;
  bool transfer_started_ = false;
  bool started_ = false;
  bool done_ = false;
};

}  // namespace p2plb::lb
