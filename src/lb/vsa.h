// Virtual Server Assignment (Sections 3.4 and 4.3).
//
// Heavy nodes publish <L_i,k, v_i,k, addr(i)> for each virtual server
// they intend to shed; light nodes publish <delta_j = T_j - L_j, addr(j)>.
// Records enter the K-nary tree at a leaf (which leaf depends on the
// mode: the reporter's own random VS for the proximity-ignorant scheme,
// the leaf owning the node's Hilbert key for the proximity-aware scheme)
// and climb toward the root.  Any KT node whose two lists together reach
// the rendezvous threshold pairs them greedily:
//
//   repeat: take the heaviest unassigned server load L; pick the light
//   node with the smallest delta >= L (best fit); re-insert the residual
//   delta' = delta - L if delta' >= L_min.
//
// Unpairable records propagate to the parent; the root pairs without the
// threshold constraint.  Because each subtree covers a contiguous arc of
// the identifier space, pairing happens first among records that entered
// close together -- which the proximity-aware mapping turns into
// *physical* closeness.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "chord/ring.h"
#include "ktree/tree.h"

namespace p2plb::lb {

/// A virtual server a heavy node offers to shed.
struct ShedCandidate {
  double load = 0.0;
  chord::Key vs = 0;
  chord::NodeIndex from = 0;
  /// The DHT key the record was published under (the node's Hilbert
  /// number in proximity-aware mode; its reporting VS id otherwise).
  chord::Key origin_key = 0;
};

/// A light node's spare target capacity.
struct SpareCapacity {
  double delta = 0.0;
  chord::NodeIndex node = 0;
  /// See ShedCandidate::origin_key.
  chord::Key origin_key = 0;
};

/// One matched transfer decided by the VSA sweep.
struct Assignment {
  chord::Key vs = 0;
  chord::NodeIndex from = 0;
  chord::NodeIndex to = 0;
  double load = 0.0;
  /// Tree depth of the rendezvous KT node that made the pairing (root=0).
  std::uint16_t rendezvous_depth = 0;
  /// When the rendezvous fired, relative to the start of the VSA phase:
  /// set by lb::ProtocolRound as it runs, 0 from run_vsa.  Deep
  /// rendezvous fire early -- this is what lets VST overlap VSA
  /// (Section 3.5).
  double available_at = 0.0;
};

/// Where each record enters the tree: leaf index -> records.
///
/// Ordered maps on purpose: the sweep seeds its leaves, and
/// lb::ProtocolRound sends its entry records, by walking these maps, so
/// their order fixes the order of assignments, trace events and network
/// sends.  Hash order would make all of that standard-library-dependent
/// (see the no-unordered-iteration lint rule).
struct VsaEntries {
  std::map<ktree::KtIndex, std::vector<ShedCandidate>> heavy;
  std::map<ktree::KtIndex, std::vector<SpareCapacity>> light;

  [[nodiscard]] std::size_t heavy_count() const;
  [[nodiscard]] std::size_t light_count() const;
};

/// What the sweep did at each KT node, dense over KtIndex: which
/// assignments the node's rendezvous produced and how many leftover
/// records it pushed to its parent.  Together with VsaEntries this is the
/// sweep's complete dataflow, which lb::ProtocolRound replays as scheduled
/// events on the sim engine -- the replay re-times the sweep without
/// re-deciding anything, so the timed and synchronous paths pair
/// identically.
struct VsaTrace {
  /// Leftover records each KT node forwarded to its parent (one message
  /// each); 0 for the root and for untouched nodes.
  std::vector<std::uint32_t> forwarded_up;
  /// CSR over KtIndex: node i's assignments are
  /// assignments[offsets[i], offsets[i + 1]).
  std::vector<std::uint32_t> offsets;
  /// Indices into VsaResult::assignments, grouped by node, each node's in
  /// pairing order.
  std::vector<std::uint32_t> assignments;

  /// Assignments made at KT node i, in pairing order.
  [[nodiscard]] std::span<const std::uint32_t> assignments_of(
      ktree::KtIndex i) const {
    return std::span<const std::uint32_t>(assignments)
        .subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }
};

/// Total order of the sweep.  Assignment order is observable (it numbers
/// ProtocolRound's transfers and orders its sends), so every tie-break
/// below is part of the contract; VsaTieBreak.PinnedUnderTies pins it.
///
///  - Inbox.  A leaf's records arrive in VsaEntries order; an interior
///    node's are its children's leftovers, children in ascending KtIndex,
///    each child's in the order it left.  A node below the threshold
///    forwards its inbox as it is; a pairing node first sorts heavies by
///    load and lights by delta, stably, so equal keys keep inbox order.
///  - Key-local rendezvous (before the sweep, leaves in ascending
///    KtIndex).  A leaf groups its records by origin_key, ascending; each
///    group sorts as above and pairs if it holds both kinds and reaches
///    the threshold.  The leaf then holds its groups' leftovers sorted by
///    load (delta), so equal loads are ordered by origin_key first.
///  - Pairing.  The heaviest candidate goes first, the last inserted
///    among equal loads.  Best fit takes the first light among equal
///    deltas.  A residual goes after the existing equal deltas.
///  - Parking.  Heavies that found no light leave in the order they were
///    popped, so equal loads leave a pairing node reversed.
///  - Numbering.  Assignments are numbered in pairing order: key-local
///    pairs first, then the sweep, deepest level first and ascending
///    KtIndex within a level.

/// Sweep parameters.
struct VsaParams {
  /// Interior KT nodes pair only once |heavy|+|light| reaches this
  /// (the paper's example value is 30); the root always pairs.
  std::size_t rendezvous_threshold = 30;
  /// System L_min: a light's residual spare is re-inserted only if it
  /// could still fit the smallest server in the system.
  double min_load = 0.0;
  /// When true, a leaf rendezvous first pairs records published under
  /// *identical* DHT keys before mixing its whole list.  Records with
  /// equal Hilbert numbers are certified physically close (Section
  /// 4.2.1: "a smaller n increases the likelihood that two physically
  /// close nodes have the same Hilbert number"), but several distinct
  /// numbers usually share one leaf -- the identifier space is much
  /// coarser than the grid -- so without this finest-level rendezvous
  /// the leaf would mix nearby-but-distinct clusters.  No effect on the
  /// proximity-ignorant scheme, whose origin keys are per-node unique.
  bool key_local_rendezvous = true;
  /// When set, overwritten with the per-node dataflow of the sweep (see
  /// VsaTrace), sized to the tree.  Must outlive the run_vsa call.
  VsaTrace* trace = nullptr;
};

/// Outcome of one bottom-up VSA sweep.
struct VsaResult {
  std::vector<Assignment> assignments;
  /// Records that reached the root and still could not be paired.
  std::vector<ShedCandidate> unassigned_heavy;
  std::vector<SpareCapacity> unassigned_light;
  /// Bottom-up rounds (== tree height + 1): the O(log_K N) bound.
  std::uint32_t rounds = 0;
  /// assignments-per-rendezvous-depth histogram (index = depth).
  std::vector<std::uint32_t> pairs_per_depth;
  /// When the last KT node ending the record flow fired, relative to the
  /// start of the VSA phase: set by lb::ProtocolRound, 0 from run_vsa.
  double sweep_completion_time = 0.0;

  [[nodiscard]] double assigned_load() const;
};

/// Run the bottom-up VSA sweep over the converged tree.
[[nodiscard]] VsaResult run_vsa(const ktree::KTree& tree,
                                const VsaEntries& entries,
                                const VsaParams& params);

}  // namespace p2plb::lb
