// The end-to-end load balancer: the paper's four phases in one call.
//
//   1. LBI aggregation over the K-nary tree          (Section 3.2)
//   2. Node classification                           (Section 3.3)
//   3. Virtual server assignment, bottom-up sweep    (Sections 3.4, 4.3)
//   4. Virtual server transferring                   (Section 3.5)
//
// This is the library's primary entry point.  run_balance_round is a
// thin wrapper over lb::ProtocolRound (protocol_round.h) driven on a
// zero-latency network until drained: the round's message/byte accounting
// comes from sim::Network's per-tag counters in both the synchronous and
// the timed path, and the timed path additionally reports per-phase
// start/end times and the round's completion time.  Callers that need a
// physical-cost breakdown pass a topology-aware ring (nodes attached to
// vertices) and use lb::transfer_costs on the returned assignments.
#pragma once

#include <array>
#include <optional>
#include <span>

#include "chord/ring.h"
#include "common/rng.h"
#include "lb/classify.h"
#include "lb/lbi.h"
#include "lb/reporting.h"
#include "lb/vsa.h"
#include "lb/vst.h"

namespace p2plb::lb {

/// Which VSA entry mapping to use.
enum class BalanceMode : std::uint8_t {
  kProximityIgnorant,  ///< Section 3.4 -- records enter at random VSs
  kProximityAware,     ///< Section 4.3 -- records enter at Hilbert keys
};

/// Balancer configuration (defaults follow the paper's experiments).
struct BalancerConfig {
  std::uint32_t tree_degree = 2;  ///< K (paper: 2 and 8)
  /// Target slack: T_i = (1 + epsilon) * (L/C) * C_i.  The paper calls 0
  /// ideal, but with epsilon exactly 0 the aggregate light spare equals
  /// the aggregate heavy excess *minus* what neutral nodes hold back,
  /// while heavy nodes offer their excess *plus* subset-rounding
  /// overshoot -- so a few percent of shed servers can never place, in
  /// any number of rounds.  A small positive epsilon (0.05 here) restores
  /// the slack and reproduces the paper's "all heavy nodes become light"
  /// figures in a single round; bench/ablation_epsilon sweeps the knob.
  double epsilon = 0.05;
  std::size_t rendezvous_threshold = 30; ///< interior pairing threshold
  SelectionPolicy selection = SelectionPolicy::kExact;
  BalanceMode mode = BalanceMode::kProximityIgnorant;
  /// Pair same-Hilbert-number records first at their entry leaf (see
  /// VsaParams::key_local_rendezvous).  Only affects kProximityAware.
  bool key_local_rendezvous = true;
  /// When false, phase 4 is skipped (assignments are reported but the
  /// ring is left untouched -- useful for what-if analysis).
  bool apply_transfers = true;
};

/// The four phases of one balancing round (indexes BalanceReport::phases).
enum class Phase : std::uint8_t {
  kAggregation = 0,    ///< bottom-up LBI sweep (node reports + tree fold)
  kDissemination = 1,  ///< top-down LBI sweep + leaf-to-node handoffs
  kVsa = 2,            ///< record publication + rendezvous sweep
  kTransfer = 3,       ///< virtual-server moves (overlaps the VSA sweep)
};
inline constexpr std::size_t kPhaseCount = 4;

/// Short display name of a phase ("aggregation", "dissemination", "vsa",
/// "transfer") -- shared by report printers and trace span names.
[[nodiscard]] constexpr const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::kAggregation:
      return "aggregation";
    case Phase::kDissemination:
      return "dissemination";
    case Phase::kVsa:
      return "vsa";
    case Phase::kTransfer:
      return "transfer";
  }
  return "?";
}

/// Traffic and timing of one protocol phase.  Counts are diffs of the
/// network's per-tag tally (sim::Network::counters) taken at the phase
/// boundaries.  Under the synchronous wrapper the message/byte counts are
/// real but every time is zero (constant-zero latency).  Times are in
/// sim::Time units; kTransfer may start before kVsa ends (Section 3.5's
/// VSA/VST overlap).
struct PhaseMetrics {
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double start = 0.0;
  double end = 0.0;
  [[nodiscard]] double duration() const noexcept { return end - start; }
};

/// Everything one balancing round produced.
struct BalanceReport {
  Lbi system;                    ///< root triple after aggregation
  LbiAggregation aggregation;    ///< phase-1 details
  LbiDissemination dissemination;
  Classification before;         ///< phase-2 classes, pre-transfer
  VsaResult vsa;                 ///< phase-3 pairings
  std::size_t transfers_applied = 0;  ///< phase-4 count
  Classification after;          ///< re-classification post-transfer
                                 ///< (same system triple)
  /// Simulated time from round start to the last transfer delivery (0
  /// under the synchronous wrapper's zero-latency network).
  double completion_time = 0.0;
  /// Per-phase traffic and timing, indexed by Phase.
  std::array<PhaseMetrics, kPhaseCount> phases{};

  [[nodiscard]] const PhaseMetrics& phase(Phase p) const {
    return phases[static_cast<std::size_t>(p)];
  }
};

/// Run one complete balancing round over the ring: a ProtocolRound on a
/// private zero-latency network, drained to completion.  For the same
/// (rng state, ring, config) it makes exactly the transfer decisions the
/// timed path would -- the two differ only in *when* things happen.
///
/// For kProximityAware, `node_keys[i]` must hold node i's Hilbert-derived
/// DHT key (see hilbert::GridQuantizer and lb/proximity.h); it may be
/// empty for kProximityIgnorant.
[[nodiscard]] BalanceReport run_balance_round(
    chord::Ring& ring, const BalancerConfig& config, Rng& rng,
    std::span<const chord::Key> node_keys = {});

}  // namespace p2plb::lb
