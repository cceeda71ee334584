#include "lb/vsa.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/error.h"

namespace p2plb::lb {

std::size_t VsaEntries::heavy_count() const {
  std::size_t n = 0;
  for (const auto& [leaf, records] : heavy) n += records.size();
  return n;
}

std::size_t VsaEntries::light_count() const {
  std::size_t n = 0;
  for (const auto& [leaf, records] : light) n += records.size();
  return n;
}

double VsaResult::assigned_load() const {
  double total = 0.0;
  for (const Assignment& a : assignments) total += a.load;
  return total;
}

namespace {

bool load_less(const ShedCandidate& a, const ShedCandidate& b) {
  return a.load < b.load;
}

bool delta_less(const SpareCapacity& a, const SpareCapacity& b) {
  return a.delta < b.delta;
}

/// One KT node's records, as index ranges into its Level's buffers.
struct Inbox {
  ktree::KtIndex node = 0;
  std::size_t heavy_begin = 0;
  std::size_t heavy_end = 0;
  std::size_t light_begin = 0;
  std::size_t light_end = 0;
};

/// Records waiting at one tree depth.  The first `seeded` inboxes are the
/// level's leaves (ascending KtIndex); the rest are the level's interior
/// nodes, appended as their children forward leftovers.  BFS layout makes
/// a level's parents non-decreasing, so a parent's records arrive
/// contiguous and its inboxes arrive in ascending KtIndex too.
struct Level {
  std::vector<ShedCandidate> heavies;
  std::vector<SpareCapacity> lights;
  std::vector<Inbox> inboxes;
  std::size_t seeded = 0;
};

/// What a rendezvous leaves behind: parked heavies and unpaired lights
/// (residuals included), both still sorted.
struct Leftovers {
  std::span<ShedCandidate> heavies;
  std::span<SpareCapacity> lights;
};

/// Move `from` down to start at `to` (to <= from.data()); returns the
/// end of the moved range.
template <typename Record>
Record* slide_to(std::span<Record> from, Record* to) {
  if (to != from.data()) std::move(from.begin(), from.end(), to);
  return to + from.size();
}

/// The bottom-up sweep over dense per-level storage (see the total order
/// in vsa.h).
class Sweep {
 public:
  Sweep(const ktree::KTree& tree, const VsaParams& params, VsaResult& out)
      : tree_(tree),
        params_(params),
        out_(out),
        levels_(static_cast<std::size_t>(tree.height()) + 1) {
    if (params_.trace) forwarded_up_.assign(tree_.size(), 0);
  }

  /// Enter every record at its leaf, ascending by leaf, running the
  /// key-local rendezvous as each leaf fills.
  void seed(const VsaEntries& entries) {
    auto h = entries.heavy.begin();
    auto l = entries.light.begin();
    while (h != entries.heavy.end() || l != entries.light.end()) {
      const ktree::KtIndex leaf =
          l == entries.light.end() ||
                  (h != entries.heavy.end() && h->first <= l->first)
              ? h->first
              : l->first;
      P2PLB_REQUIRE(leaf < tree_.size());
      P2PLB_REQUIRE_MSG(tree_.node(leaf).is_leaf(),
                        "VSA records must enter at leaves");
      const std::uint16_t depth = tree_.node(leaf).depth;
      Level& level = levels_[depth];
      Inbox box{leaf, level.heavies.size(), level.heavies.size(),
                level.lights.size(), level.lights.size()};
      if (h != entries.heavy.end() && h->first == leaf) {
        level.heavies.insert(level.heavies.end(), h->second.begin(),
                             h->second.end());
        ++h;
      }
      if (l != entries.light.end() && l->first == leaf) {
        level.lights.insert(level.lights.end(), l->second.begin(),
                            l->second.end());
        ++l;
      }
      box.heavy_end = level.heavies.size();
      box.light_end = level.lights.size();
      if (params_.key_local_rendezvous) key_local(box, depth, level);
      level.inboxes.push_back(box);
    }
    for (Level& level : levels_) level.seeded = level.inboxes.size();
  }

  /// Deepest level first; within a level, ascending KtIndex.
  void run() {
    for (std::size_t d = levels_.size(); d-- > 0;) {
      Level& level = levels_[d];
      std::inplace_merge(level.inboxes.begin(),
                         level.inboxes.begin() +
                             static_cast<std::ptrdiff_t>(level.seeded),
                         level.inboxes.end(),
                         [](const Inbox& a, const Inbox& b) {
                           return a.node < b.node;
                         });
      for (const Inbox& box : level.inboxes)
        process(box, static_cast<std::uint16_t>(d), level);
      level = Level{};  // release the buffers as the sweep climbs
    }
  }

  /// Move the per-node dataflow into `trace`.
  void fill_trace(VsaTrace& trace) {
    trace.forwarded_up = std::move(forwarded_up_);
    trace.offsets.assign(tree_.size() + 1, 0);
    for (const ktree::KtIndex node : paired_at_) ++trace.offsets[node + 1];
    std::partial_sum(trace.offsets.begin(), trace.offsets.end(),
                     trace.offsets.begin());
    std::vector<std::uint32_t> cursor(trace.offsets.begin(),
                                      trace.offsets.end() - 1);
    trace.assignments.resize(paired_at_.size());
    for (std::size_t a = 0; a < paired_at_.size(); ++a)
      trace.assignments[cursor[paired_at_[a]]++] =
          static_cast<std::uint32_t>(a);
  }

 private:
  /// Finest-level rendezvous: within a leaf, records published under
  /// identical DHT keys pair first (see VsaParams::key_local_rendezvous).
  /// This happens at the leaf's host, so it costs no extra messages.
  void key_local(Inbox& box, std::uint16_t depth, Level& level) {
    const std::span<ShedCandidate> heavies(
        level.heavies.data() + box.heavy_begin,
        box.heavy_end - box.heavy_begin);
    const std::span<SpareCapacity> lights(
        level.lights.data() + box.light_begin,
        box.light_end - box.light_begin);
    std::stable_sort(heavies.begin(), heavies.end(),
                     [](const ShedCandidate& a, const ShedCandidate& b) {
                       return a.origin_key != b.origin_key
                                  ? a.origin_key < b.origin_key
                                  : a.load < b.load;
                     });
    std::stable_sort(lights.begin(), lights.end(),
                     [](const SpareCapacity& a, const SpareCapacity& b) {
                       return a.origin_key != b.origin_key
                                  ? a.origin_key < b.origin_key
                                  : a.delta < b.delta;
                     });
    // Walk the key groups in ascending key, compacting each group's
    // leftovers to the front of the leaf's ranges.
    std::size_t h = 0;
    std::size_t l = 0;
    ShedCandidate* heavy_out = heavies.data();
    SpareCapacity* light_out = lights.data();
    while (h < heavies.size() || l < lights.size()) {
      const chord::Key key =
          l == lights.size() || (h < heavies.size() &&
                                 heavies[h].origin_key <= lights[l].origin_key)
              ? heavies[h].origin_key
              : lights[l].origin_key;
      std::size_t h_end = h;
      while (h_end < heavies.size() && heavies[h_end].origin_key == key)
        ++h_end;
      std::size_t l_end = l;
      while (l_end < lights.size() && lights[l_end].origin_key == key)
        ++l_end;
      Leftovers group{heavies.subspan(h, h_end - h),
                      lights.subspan(l, l_end - l)};
      if (!group.heavies.empty() && !group.lights.empty() &&
          group.heavies.size() + group.lights.size() >=
              params_.rendezvous_threshold)
        group = pair_node(box.node, depth, group.heavies, group.lights);
      heavy_out = slide_to(group.heavies, heavy_out);
      light_out = slide_to(group.lights, light_out);
      h = h_end;
      l = l_end;
    }
    box.heavy_end = box.heavy_begin +
                    static_cast<std::size_t>(heavy_out - heavies.data());
    box.light_end = box.light_begin +
                    static_cast<std::size_t>(light_out - lights.data());
    std::stable_sort(heavies.data(), heavy_out, load_less);
    std::stable_sort(lights.data(), light_out, delta_less);
  }

  /// One KT node of the sweep: pair if it is the root or reaches the
  /// threshold, then forward what is left to the parent.
  void process(const Inbox& box, std::uint16_t depth, Level& level) {
    const ktree::KtIndex i = box.node;
    const bool is_root = (i == tree_.root());
    Leftovers left{
        {level.heavies.data() + box.heavy_begin,
         box.heavy_end - box.heavy_begin},
        {level.lights.data() + box.light_begin,
         box.light_end - box.light_begin}};
    const std::size_t inbox_size = left.heavies.size() + left.lights.size();
    if (is_root || inbox_size >= params_.rendezvous_threshold) {
      std::stable_sort(left.heavies.begin(), left.heavies.end(), load_less);
      std::stable_sort(left.lights.begin(), left.lights.end(), delta_less);
      left = pair_node(i, depth, left.heavies, left.lights);
    }
    const std::size_t total = left.heavies.size() + left.lights.size();
    if (is_root) {
      out_.unassigned_heavy.assign(left.heavies.begin(), left.heavies.end());
      out_.unassigned_light.assign(left.lights.begin(), left.lights.end());
      return;
    }
    if (total == 0) return;  // the record flow ends here
    // Push leftovers to the parent (one message per record).
    const ktree::KtIndex parent = tree_.node(i).parent;
    Level& up = levels_[depth - 1];
    if (up.inboxes.empty() || up.inboxes.back().node != parent)
      up.inboxes.push_back({parent, up.heavies.size(), up.heavies.size(),
                            up.lights.size(), up.lights.size()});
    up.heavies.insert(up.heavies.end(), left.heavies.begin(),
                      left.heavies.end());
    up.lights.insert(up.lights.end(), left.lights.begin(), left.lights.end());
    up.inboxes.back().heavy_end = up.heavies.size();
    up.inboxes.back().light_end = up.lights.size();
    if (params_.trace)
      forwarded_up_[i] = static_cast<std::uint32_t>(total);
  }

  /// The rendezvous step (Section 3.4) over sorted records, in place.
  Leftovers pair_node(ktree::KtIndex node, std::uint16_t depth,
                      std::span<ShedCandidate> heavies,
                      std::span<SpareCapacity> lights) {
    // heavies[parked, end) collects the candidates that found no light,
    // last popped first; lights[0, live) are still unpaired.
    std::size_t parked = heavies.size();
    std::size_t live = lights.size();
    for (std::size_t c = heavies.size(); c-- > 0;) {
      // Heaviest candidate first.
      const ShedCandidate candidate = heavies[c];
      const auto end = lights.begin() + static_cast<std::ptrdiff_t>(live);
      // Best fit: the light node with the smallest delta >= load.
      const auto fit = std::lower_bound(
          lights.begin(), end, candidate.load,
          [](const SpareCapacity& s, double load) { return s.delta < load; });
      if (fit == end) {
        // Lighter candidates may still pair, so the loop continues.
        heavies[--parked] = candidate;
        continue;
      }
      const SpareCapacity spare = *fit;
      out_.assignments.push_back({candidate.vs, candidate.from, spare.node,
                                  candidate.load, depth});
      if (params_.trace) paired_at_.push_back(node);
      if (depth >= out_.pairs_per_depth.size())
        out_.pairs_per_depth.resize(static_cast<std::size_t>(depth) + 1, 0);
      ++out_.pairs_per_depth[depth];
      const double residual = spare.delta - candidate.load;
      if (!(residual > 0.0 && residual >= params_.min_load)) {
        std::move(fit + 1, end, fit);
        --live;
        continue;
      }
      // Re-insert the residual after every light of equal delta: rotate
      // the matched slot there, then overwrite it.
      const auto after = [](double delta, const SpareCapacity& s) {
        return delta < s.delta;
      };
      auto slot = std::upper_bound(lights.begin(), fit, residual, after);
      if (slot != fit) {
        std::rotate(slot, fit, fit + 1);
      } else {
        // Nothing before the matched light is larger, so the residual's
        // slot is the matched one -- or past it, if a zero-load candidate
        // left the delta unchanged.
        slot = std::upper_bound(fit + 1, end, residual, after) - 1;
        std::rotate(fit, fit + 1, slot + 1);
      }
      *slot = SpareCapacity{residual, spare.node};
    }
    // The parked candidates sit in ascending load, but equal loads must
    // stay in popped order: reverse each run of ties.
    const std::span<ShedCandidate> rest = heavies.subspan(parked);
    for (auto run = rest.begin(); run != rest.end();) {
      const auto run_end =
          std::find_if(run, rest.end(), [&](const ShedCandidate& x) {
            return x.load != run->load;
          });
      std::reverse(run, run_end);
      run = run_end;
    }
    return {rest, lights.first(live)};
  }

  const ktree::KTree& tree_;
  const VsaParams& params_;
  VsaResult& out_;
  std::vector<Level> levels_;
  /// Trace only: per KtIndex, and the node of each assignment.
  std::vector<std::uint32_t> forwarded_up_;
  std::vector<ktree::KtIndex> paired_at_;
};

}  // namespace

VsaResult run_vsa(const ktree::KTree& tree, const VsaEntries& entries,
                  const VsaParams& params) {
  VsaResult result;
  result.rounds = static_cast<std::uint32_t>(tree.height()) + 1;
  Sweep sweep(tree, params, result);
  sweep.seed(entries);
  sweep.run();
  if (params.trace) sweep.fill_trace(*params.trace);
  return result;
}

}  // namespace p2plb::lb
