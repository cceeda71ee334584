// Derived system-health gauges, sampled at window boundaries.
//
// The network's tallies and the BalanceReport count what the protocols
// *did* (messages, transfers, phase timings); a HealthProbe computes
// what the system *is* at one instant: how unbalanced, how heavy, how
// stale.  Each reading is a pure function of the ring (plus the
// optionally attached maintenance tree), and the windowed plane that
// samples them schedules nothing, so observing never perturbs the
// simulation -- the schedule-invariance property the observability tests
// pin.
//
// All load gauges are in *unit load*: node i's load divided by its
// capacity-proportional fair share (L / C) * C_i.  1.0 means exactly
// fair, 1.5 means 50% over; the paper's epsilon threshold (a node is
// heavy above (1 + epsilon) x share) reads directly off the same scale.
#pragma once

#include "chord/ring.h"
#include "ktree/protocol.h"
#include "obs/window.h"

namespace p2plb::lb {

/// Point-in-time health gauges over a ring (and an optional tree).
class HealthProbe {
 public:
  /// `ring` must outlive the probe.  Node i is heavy iff its load exceeds
  /// (1 + epsilon) x its fair share (matches classify_node).
  explicit HealthProbe(const chord::Ring& ring, double epsilon = 0.1);

  /// Also report the maintenance tree's instance count and height
  /// (`ktree_instances`, `ktree_depth`).  Must outlive the probe;
  /// attach before register_windows (a later attach is not exported).
  void attach_tree(const ktree::MaintenanceProtocol* tree) noexcept {
    tree_ = tree;
  }

  /// Publish into the online metrics plane.  Registers gauge series
  /// `health.<gauge>` -- always nodes, heavy_fraction, mean/max/p99
  /// unit load, imbalance (max unit load / mean unit load),
  /// gini_unit_load and vs_per_node{q=max|p50|p99}; the tree's gauges
  /// when attached -- plus a per-node
  /// `health.unit_load` SoA column folded into a histogram each
  /// bucket.  A boundary probe samples them all into every closing
  /// bucket, stamped with the boundary time: the signals the alert
  /// rules read and obs::record_series exports.  The probe and
  /// `windows` must outlive each other's use; call once per aggregator.
  void register_windows(obs::WindowedAggregator& windows) const;

 private:
  const chord::Ring& ring_;
  double epsilon_;
  const ktree::MaintenanceProtocol* tree_ = nullptr;
};

}  // namespace p2plb::lb
