// The Chord ring with virtual servers (Section 2).
//
// Physical DHT nodes host multiple virtual servers (VS); each VS owns the
// arc (predecessor, id] of the 32-bit identifier space.  Moving a VS
// between physical nodes (the paper's load-movement primitive) changes
// only the VS's host: the ring structure, and therefore every arc, is
// unaffected -- which is why the paper models it as a leave+join pair.
//
// This class is the authoritative ring state used by the tree, the
// balancer and the experiments.  It is a simulator: operations execute
// immediately and atomically (the message-level behaviour is modelled by
// the sim/ layer where experiments need latency).
//
// Storage is structure-of-arrays: a virtual server is a *slot* into
// parallel id/owner/load columns, recycled through an explicit free list
// under churn, with a flat key->slot index for lookups and a lazily
// maintained ring-order index for successor queries and ordered
// iteration.  VirtualServer remains the value type queries return --
// materialized from the columns on demand.
//
// The key->slot index is open addressing in one power-of-two array of
// 8-byte {key, slot} entries (slot 0xFFFFFFFF marks an empty entry).  A
// key's home entry is the high bits of key * 0x9E3779B97F4A7C15
// (Fibonacci hashing: evenly spaced ids, common in tests and examples,
// would cluster under a plain mask), and a lookup probes linearly from
// there to the key or the first empty entry.  The table doubles before
// it passes half full, so a lookup is one or two cache lines; the key is
// stored inline so a probe never reads the id column.  Removal shifts
// the rest of the probe run back over the hole (backward-shift
// deletion), leaving no tombstones however long the churn.  The index
// can only find, insert and erase -- it has no iteration, so hash order
// cannot leak into any output.
//
// The order index is merged, not re-sorted: the first ordered query after
// membership changes drops the removed slots, sorts only the `a` slots
// added since the last query and merges them into the survivors, so a
// join under churn costs O(S + a log a) rather than O(S log S).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "chord/id.h"

namespace p2plb::chord {

/// Dense index of a physical DHT node.  Stable across node removal
/// (removed nodes leave a tombstone).
using NodeIndex = std::uint32_t;

/// A physical DHT node.
struct Node {
  /// Relative capacity (the paper's Gnutella-like profile spans 1..10^4).
  double capacity = 1.0;
  /// Attachment vertex in the physical topology (kNoAttachment if the
  /// experiment runs without a topology).
  std::uint32_t attachment = kNoAttachment;
  /// False once the node has left or crashed.
  bool alive = true;
  /// Ids of the virtual servers this node currently hosts, kept sorted
  /// ascending.  The order is an invariant, not a convenience: balancing
  /// samples reporters from this vector (aggregate_lbi), so if it
  /// depended on the order transfers were *applied*, the timed and
  /// synchronous controllers would drift apart after the first round.
  std::vector<Key> servers;

  static constexpr std::uint32_t kNoAttachment = 0xFFFFFFFFu;
};

/// A virtual server: one contiguous arc of the identifier space.
/// Returned by value -- a snapshot of one slot of the ring's columns.
struct VirtualServer {
  Key id = 0;
  NodeIndex owner = 0;
  /// Abstract load (storage / bandwidth / CPU -- the scheme is agnostic).
  double load = 0.0;
};

/// The simulated Chord ring.
class Ring {
 public:
  Ring() = default;

  // --- membership -------------------------------------------------------

  /// Add a physical node with the given capacity (> 0) and optional
  /// topology attachment.  Returns its index.
  NodeIndex add_node(double capacity,
                     std::uint32_t attachment = Node::kNoAttachment);

  /// Place a new virtual server with the exact id, owned by `owner`.
  /// Throws if the id is already taken or the owner is not alive.
  void add_virtual_server(NodeIndex owner, Key id);

  /// Place a new virtual server at a fresh uniformly-random id.
  Key add_random_virtual_server(NodeIndex owner, Rng& rng);

  /// Remove one virtual server (its arc is absorbed by the successor).
  void remove_virtual_server(Key id);

  /// Crash/leave: removes the node's virtual servers and marks it dead.
  void remove_node(NodeIndex node);

  /// Move a virtual server to a new live host.  Ring arcs are unchanged.
  void transfer_virtual_server(Key id, NodeIndex new_owner);

  /// Make room in the key->slot index for `count` virtual servers in
  /// total, so that adding up to that many never rehashes it.  The
  /// columns still grow by doubling: presizing them as well raised the
  /// peak RSS of repeated ring builds in one process (each freed block
  /// above glibc's mmap threshold raises the threshold).
  void reserve_servers(std::size_t count);

  // --- queries ----------------------------------------------------------

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::size_t live_node_count() const noexcept {
    return live_nodes_;
  }
  [[nodiscard]] std::size_t virtual_server_count() const noexcept {
    return vs_count_;
  }

  [[nodiscard]] const Node& node(NodeIndex i) const {
    P2PLB_REQUIRE(i < nodes_.size());
    return nodes_[i];
  }

  [[nodiscard]] VirtualServer server(Key id) const;
  [[nodiscard]] bool has_server(Key id) const {
    return vs_index_.find(id) != SlotIndex::kNone;
  }
  /// Owner of `id`, or nullopt if no such virtual server: has_server and
  /// server_owner from one lookup.
  [[nodiscard]] std::optional<NodeIndex> find_owner(Key id) const {
    const std::uint32_t slot = vs_index_.find(id);
    if (slot == SlotIndex::kNone) return std::nullopt;
    return vs_owner_[slot];
  }

  /// O(1) column reads, for the per-entry hot paths that used to pay a
  /// map find per access.  Both require the id to exist.
  [[nodiscard]] double server_load(Key id) const {
    return vs_load_[slot_checked(id)];
  }
  [[nodiscard]] NodeIndex server_owner(Key id) const {
    return vs_owner_[slot_checked(id)];
  }

  /// The virtual server whose arc contains `k` (first id clockwise from
  /// k, inclusive).  Requires a non-empty ring.
  [[nodiscard]] VirtualServer successor(Key k) const;

  /// successor(k).id together with arc_size of that id, from one search.
  struct SuccessorArc {
    Key id = 0;
    std::uint64_t arc = 0;
  };
  [[nodiscard]] SuccessorArc successor_arc(Key k) const;

  /// Id of the predecessor virtual server of `id` (the id counter-
  /// clockwise-adjacent on the ring).  With a single VS this is itself.
  [[nodiscard]] Key predecessor_key(Key id) const;

  /// Number of keys in the arc (pred, id] owned by this virtual server.
  /// A singleton ring owns the whole space (2^32).
  [[nodiscard]] std::uint64_t arc_size(Key id) const;

  /// arc_size / 2^32.
  [[nodiscard]] double arc_fraction(Key id) const {
    return static_cast<double>(arc_size(id)) /
           static_cast<double>(kSpaceSize);
  }

  /// Whether the arc (pred(holder), holder] fully contains the region
  /// [lo, lo+len) -- the K-nary tree leaf test.
  [[nodiscard]] bool arc_contains_region(Key holder, Key lo,
                                         std::uint64_t len) const;

  /// All virtual-server ids in ring order (ascending key).
  [[nodiscard]] std::vector<Key> server_ids() const;

  /// Iterate over all virtual servers in ring order.
  template <typename Fn>
  void for_each_server(Fn&& fn) const {
    ensure_order();
    for (const std::uint32_t slot : order_)
      fn(VirtualServer{vs_id_[slot], vs_owner_[slot], vs_load_[slot]});
  }

  /// Live node indices, ascending.
  [[nodiscard]] std::vector<NodeIndex> live_nodes() const;

  // --- load -------------------------------------------------------------

  /// Set the load carried by a virtual server (>= 0).
  void set_load(Key id, double load);

  /// Total load over a node's virtual servers.
  [[nodiscard]] double node_load(NodeIndex i) const;

  /// Minimum virtual-server load on a node; nullopt if it hosts none.
  [[nodiscard]] std::optional<double> node_min_server_load(NodeIndex i) const;

  /// Sum of all virtual-server loads in the system.
  [[nodiscard]] double total_load() const;
  /// Sum of live nodes' capacities.
  [[nodiscard]] double total_capacity() const;
  /// Smallest virtual-server load in the system (0 if no servers).
  [[nodiscard]] double min_server_load() const;

 private:
  Node& mutable_node(NodeIndex i);
  /// Key -> slot, as described in the file comment: find, insert and
  /// erase only.
  class SlotIndex {
   public:
    static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

    /// The slot holding `key`, or kNone.
    [[nodiscard]] std::uint32_t find(Key key) const noexcept {
      return entries_.empty() ? kNone : entries_[probe(key)].slot;
    }
    /// Map an absent `key` to `slot`.
    void insert(Key key, std::uint32_t slot);
    /// Unmap `key`; returns the slot it held, or kNone if it was absent.
    std::uint32_t erase(Key key);
    /// Make room for `count` keys without a rehash.
    void reserve(std::size_t count);

   private:
    static constexpr std::size_t kMinEntries = 16;
    struct Entry {
      Key key = 0;
      std::uint32_t slot = kNone;
    };
    [[nodiscard]] std::size_t home(Key key) const noexcept {
      return static_cast<std::size_t>(
          (std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    [[nodiscard]] std::size_t mask() const noexcept {
      return entries_.size() - 1;
    }
    /// Entry holding `key`, or the empty entry that ends its probe run.
    /// Requires a non-empty table.
    [[nodiscard]] std::size_t probe(Key key) const noexcept {
      std::size_t i = home(key);
      while (entries_[i].slot != kNone && entries_[i].key != key)
        i = (i + 1) & mask();
      return i;
    }
    void rehash(std::size_t capacity);

    std::vector<Entry> entries_;  // size 0 or a power of two >= 2 * size_
    unsigned shift_ = 64;         // 64 - log2(entries_.size())
    std::size_t size_ = 0;
  };

  [[nodiscard]] std::uint32_t slot_checked(Key id) const {
    const std::uint32_t slot = vs_index_.find(id);
    P2PLB_REQUIRE_MSG(slot != SlotIndex::kNone, "no such virtual server");
    return slot;
  }
  /// Bring the ring-order index up to date if membership changed since
  /// the last ordered query.
  void ensure_order() const;
  /// Index into order_ of the slot holding exactly `id`.
  [[nodiscard]] std::size_t order_pos(Key id) const;
  /// Index into order_ of successor(k)'s slot (wrapping past the end).
  [[nodiscard]] std::size_t successor_pos(Key k) const;

  /// Per-slot state.  A slot added since the last ordered query is
  /// kUnordered until ensure_order merges it in; an order_ entry is
  /// current only while its slot is kOrdered (a slot freed and reused
  /// between two queries leaves a stale entry at its old id's place).
  enum SlotState : std::uint8_t { kFree = 0, kOrdered = 1, kUnordered = 2 };

  std::vector<Node> nodes_;
  std::size_t live_nodes_ = 0;

  // Virtual-server columns, indexed by slot.  A slot is live until its
  // VS is removed, then parked on vs_free_ for reuse by the next add.
  std::vector<Key> vs_id_;
  std::vector<NodeIndex> vs_owner_;
  std::vector<double> vs_load_;
  mutable std::vector<std::uint8_t> vs_state_;  // SlotState
  std::vector<std::uint32_t> vs_free_;
  std::size_t vs_count_ = 0;
  SlotIndex vs_index_;  // key -> live slot
  // kOrdered slots sorted by id; brought up to date lazily after
  // membership changes so bulk setup does not pay a per-add O(S) insertion.
  mutable std::vector<std::uint32_t> order_;
  mutable bool order_dirty_ = false;
};

}  // namespace p2plb::chord
