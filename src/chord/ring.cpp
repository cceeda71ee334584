#include "chord/ring.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace p2plb::chord {

NodeIndex Ring::add_node(double capacity, std::uint32_t attachment) {
  P2PLB_REQUIRE(capacity > 0.0);
  P2PLB_REQUIRE_MSG(nodes_.size() < std::numeric_limits<NodeIndex>::max(),
                    "node index space exhausted");
  Node n;
  n.capacity = capacity;
  n.attachment = attachment;
  nodes_.push_back(std::move(n));
  ++live_nodes_;
  return static_cast<NodeIndex>(nodes_.size() - 1);
}

Node& Ring::mutable_node(NodeIndex i) {
  P2PLB_REQUIRE(i < nodes_.size());
  return nodes_[i];
}

void Ring::add_virtual_server(NodeIndex owner, Key id) {
  Node& n = mutable_node(owner);
  P2PLB_REQUIRE_MSG(n.alive, "cannot add a virtual server to a dead node");
  P2PLB_REQUIRE_MSG(!has_server(id), "virtual server id collision");
  std::uint32_t slot;
  if (!vs_free_.empty()) {
    slot = vs_free_.back();
    vs_free_.pop_back();
    vs_id_[slot] = id;
    vs_owner_[slot] = owner;
    vs_load_[slot] = 0.0;
    vs_state_[slot] = kUnordered;
  } else {
    slot = static_cast<std::uint32_t>(vs_id_.size());
    vs_id_.push_back(id);
    vs_owner_.push_back(owner);
    vs_load_.push_back(0.0);
    vs_state_.push_back(kUnordered);
  }
  vs_index_.insert(id, slot);
  ++vs_count_;
  order_dirty_ = true;
  n.servers.insert(std::lower_bound(n.servers.begin(), n.servers.end(), id),
                   id);
}

Key Ring::add_random_virtual_server(NodeIndex owner, Rng& rng) {
  for (;;) {
    const Key id = static_cast<Key>(rng() >> 32);
    if (!has_server(id)) {
      add_virtual_server(owner, id);
      return id;
    }
  }
}

void Ring::remove_virtual_server(Key id) {
  const std::uint32_t slot = vs_index_.erase(id);
  P2PLB_REQUIRE_MSG(slot != SlotIndex::kNone, "no such virtual server");
  Node& n = mutable_node(vs_owner_[slot]);
  std::erase(n.servers, id);
  vs_state_[slot] = kFree;
  vs_free_.push_back(slot);
  --vs_count_;
  order_dirty_ = true;
}

void Ring::remove_node(NodeIndex node) {
  Node& n = mutable_node(node);
  P2PLB_REQUIRE_MSG(n.alive, "node already removed");
  for (const Key id : n.servers) {
    const std::uint32_t slot = vs_index_.erase(id);
    P2PLB_REQUIRE_MSG(slot != SlotIndex::kNone, "no such virtual server");
    vs_state_[slot] = kFree;
    vs_free_.push_back(slot);
    --vs_count_;
  }
  if (!n.servers.empty()) order_dirty_ = true;
  n.servers.clear();
  n.alive = false;
  --live_nodes_;
}

void Ring::transfer_virtual_server(Key id, NodeIndex new_owner) {
  const std::uint32_t slot = slot_checked(id);
  Node& dst = mutable_node(new_owner);
  P2PLB_REQUIRE_MSG(dst.alive, "cannot transfer to a dead node");
  if (vs_owner_[slot] == new_owner) return;
  Node& src = mutable_node(vs_owner_[slot]);
  std::erase(src.servers, id);
  dst.servers.insert(
      std::lower_bound(dst.servers.begin(), dst.servers.end(), id), id);
  vs_owner_[slot] = new_owner;  // ring order untouched: ids are unchanged
}

void Ring::reserve_servers(std::size_t count) {
  P2PLB_REQUIRE_MSG(count <= kSpaceSize, "more virtual servers than ids");
  vs_index_.reserve(count);
}

void Ring::SlotIndex::insert(Key key, std::uint32_t slot) {
  P2PLB_ASSERT(slot != kNone);
  if (2 * (size_ + 1) > entries_.size())
    rehash(std::max(kMinEntries, 2 * entries_.size()));
  Entry& e = entries_[probe(key)];
  P2PLB_ASSERT(e.slot == kNone);
  e = Entry{key, slot};
  ++size_;
}

std::uint32_t Ring::SlotIndex::erase(Key key) {
  if (entries_.empty()) return kNone;
  std::size_t hole = probe(key);
  const std::uint32_t slot = entries_[hole].slot;
  if (slot == kNone) return kNone;
  // Backward shift: walk the rest of the probe run and move back into the
  // hole every entry whose home does not lie cyclically in (hole, j] --
  // i.e. whose probe path passes the hole -- so no lookup ever stops
  // early at it.
  for (std::size_t j = (hole + 1) & mask(); entries_[j].slot != kNone;
       j = (j + 1) & mask()) {
    if (((j - home(entries_[j].key)) & mask()) >= ((j - hole) & mask())) {
      entries_[hole] = entries_[j];
      hole = j;
    }
  }
  entries_[hole] = Entry{};
  --size_;
  return slot;
}

void Ring::SlotIndex::reserve(std::size_t count) {
  const std::size_t capacity =
      std::bit_ceil(std::max(kMinEntries, 2 * count));
  if (capacity > entries_.size()) rehash(capacity);
}

void Ring::SlotIndex::rehash(std::size_t capacity) {
  const std::vector<Entry> old =
      std::exchange(entries_, std::vector<Entry>(capacity));
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  for (const Entry& e : old)
    if (e.slot != kNone) entries_[probe(e.key)] = e;
}

void Ring::ensure_order() const {
  if (!order_dirty_) return;
  std::erase_if(order_, [this](std::uint32_t slot) {
    return vs_state_[slot] != kOrdered;
  });
  const auto kept = static_cast<std::ptrdiff_t>(order_.size());
  order_.reserve(vs_count_);
  for (std::uint32_t slot = 0; slot < vs_state_.size(); ++slot) {
    if (vs_state_[slot] != kUnordered) continue;
    vs_state_[slot] = kOrdered;
    order_.push_back(slot);
  }
  const auto by_id = [this](std::uint32_t a, std::uint32_t b) {
    return vs_id_[a] < vs_id_[b];
  };
  std::sort(order_.begin() + kept, order_.end(), by_id);
  std::inplace_merge(order_.begin(), order_.begin() + kept, order_.end(),
                     by_id);
  order_dirty_ = false;
}

std::size_t Ring::order_pos(Key id) const {
  ensure_order();
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), id,
      [this](std::uint32_t slot, Key k) { return vs_id_[slot] < k; });
  P2PLB_ASSERT(it != order_.end() && vs_id_[*it] == id);
  return static_cast<std::size_t>(it - order_.begin());
}

VirtualServer Ring::server(Key id) const {
  const std::uint32_t slot = slot_checked(id);
  return VirtualServer{vs_id_[slot], vs_owner_[slot], vs_load_[slot]};
}

std::size_t Ring::successor_pos(Key k) const {
  P2PLB_REQUIRE_MSG(vs_count_ > 0, "successor() on an empty ring");
  ensure_order();
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), k,
      [this](std::uint32_t slot, Key key) { return vs_id_[slot] < key; });
  return it != order_.end() ? static_cast<std::size_t>(it - order_.begin())
                            : 0;
}

VirtualServer Ring::successor(Key k) const {
  const std::size_t pos = successor_pos(k);
  const std::uint32_t slot = order_[pos];
  return VirtualServer{vs_id_[slot], vs_owner_[slot], vs_load_[slot]};
}

Ring::SuccessorArc Ring::successor_arc(Key k) const {
  const std::size_t pos = successor_pos(k);
  const Key id = vs_id_[order_[pos]];
  const Key pred = vs_id_[pos == 0 ? order_.back() : order_[pos - 1]];
  // A singleton ring owns the whole space, as in arc_size.
  return {id, pred == id ? kSpaceSize : distance_cw(pred, id)};
}

Key Ring::predecessor_key(Key id) const {
  // "no such virtual server" must surface before any order walk.
  static_cast<void>(slot_checked(id));
  const std::size_t pos = order_pos(id);
  const std::uint32_t slot = pos == 0 ? order_.back() : order_[pos - 1];
  return vs_id_[slot];
}

std::uint64_t Ring::arc_size(Key id) const {
  const Key pred = predecessor_key(id);
  if (pred == id) return kSpaceSize;  // singleton ring owns everything
  return distance_cw(pred, id);
}

bool Ring::arc_contains_region(Key holder, Key lo, std::uint64_t len) const {
  P2PLB_REQUIRE(len >= 1);
  if (len > kSpaceSize) return false;
  const std::uint64_t arc = arc_size(holder);
  if (arc >= kSpaceSize) return true;
  if (len > arc) return false;
  // Arc is (pred, holder]; region is [lo, lo+len).  Containment needs both
  // endpoints inside and no wrap mismatch; with len <= arc it suffices
  // that lo and lo+len-1 both lie in (pred, holder].
  const Key pred = predecessor_key(holder);
  const Key last = static_cast<Key>(lo + static_cast<std::uint32_t>(len - 1));
  return in_oc(pred, holder, lo) && in_oc(pred, holder, last) &&
         distance_cw(pred, lo) <= distance_cw(pred, last);
}

std::vector<Key> Ring::server_ids() const {
  ensure_order();
  std::vector<Key> out;
  out.reserve(order_.size());
  for (const std::uint32_t slot : order_) out.push_back(vs_id_[slot]);
  return out;
}

std::vector<NodeIndex> Ring::live_nodes() const {
  std::vector<NodeIndex> out;
  out.reserve(live_nodes_);
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    if (nodes_[i].alive) out.push_back(static_cast<NodeIndex>(i));
  return out;
}

void Ring::set_load(Key id, double load) {
  P2PLB_REQUIRE(load >= 0.0);
  vs_load_[slot_checked(id)] = load;
}

double Ring::node_load(NodeIndex i) const {
  const Node& n = node(i);
  double total = 0.0;
  for (const Key id : n.servers) total += vs_load_[slot_checked(id)];
  return total;
}

std::optional<double> Ring::node_min_server_load(NodeIndex i) const {
  const Node& n = node(i);
  if (n.servers.empty()) return std::nullopt;
  double best = std::numeric_limits<double>::infinity();
  for (const Key id : n.servers)
    best = std::min(best, vs_load_[slot_checked(id)]);
  return best;
}

double Ring::total_load() const {
  // Ring order, not slot order: float addition is order-sensitive and
  // this sum is compared against protocol-side aggregates in tests.
  ensure_order();
  double total = 0.0;
  for (const std::uint32_t slot : order_) total += vs_load_[slot];
  return total;
}

double Ring::total_capacity() const {
  double total = 0.0;
  for (const Node& n : nodes_)
    if (n.alive) total += n.capacity;
  return total;
}

double Ring::min_server_load() const {
  double best = std::numeric_limits<double>::infinity();
  for (std::uint32_t slot = 0; slot < vs_id_.size(); ++slot)
    if (vs_state_[slot] != kFree) best = std::min(best, vs_load_[slot]);
  return vs_count_ == 0 ? 0.0 : best;
}

}  // namespace p2plb::chord
