// VSA record publication: where heavy/light records enter the tree.
//
// Proximity-ignorant (Section 3.4): a node reports through one of its own
// randomly chosen virtual servers, so its records enter the tree at a
// leaf determined by its (random) position in the identifier space.
//
// Proximity-aware (Section 4.3): a node publishes its records into the
// DHT with its Hilbert number as the key; the records enter the tree at
// the leaf owning that key, so physically close nodes' records meet low
// in the tree.
#pragma once

#include <span>

#include "common/rng.h"
#include "ktree/tree.h"
#include "lb/classify.h"
#include "lb/lbi.h"
#include "lb/selection.h"
#include "lb/vsa.h"

namespace p2plb::lb {

/// Build entries for the proximity-ignorant scheme.  `reporter_vs` (from
/// the LBI sweep) supplies each node's reporting key and entry leaf, so a
/// node's records enter where its LBI triple did.
[[nodiscard]] VsaEntries build_entries_ignorant(
    const ktree::KTree& tree, const Classification& classification,
    std::span<const Reporter> reporter_vs,
    SelectionPolicy policy = SelectionPolicy::kExact);

/// Build entries for the proximity-aware scheme.  `node_keys[i]` is the
/// Hilbert-derived DHT key of node i (indexed by NodeIndex; it must cover
/// every node mentioned by the classification).
[[nodiscard]] VsaEntries build_entries_proximity(
    const ktree::KTree& tree, const Classification& classification,
    std::span<const chord::Key> node_keys,
    SelectionPolicy policy = SelectionPolicy::kExact);

}  // namespace p2plb::lb
