#include "obs/profiler.h"

#include <fstream>
#include <ostream>
#include <string>
#include <vector>


namespace p2plb::obs {

namespace {

/// Frame names and layers embed into space- and semicolon-delimited
/// encodings, so those delimiters (and newlines) are banned at intern
/// time rather than escaped at every export.
bool encodable(std::string_view s) noexcept {
  for (const char c : s)
    if (c == ' ' || c == ';' || c == '\n' || c == '\r' || c == '\t')
      return false;
  return true;
}

}  // namespace

Profiler::FrameId Profiler::intern(std::string_view name,
                                   std::string_view layer) {
  P2PLB_REQUIRE_MSG(!name.empty(), "profiler frame name must be non-empty");
  P2PLB_REQUIRE_MSG(encodable(name) && encodable(layer),
                    "profiler frame names may not contain whitespace or ';'");
  const auto it = frame_index_.find({std::string(name), std::string(layer)});
  if (it != frame_index_.end()) return it->second;
  const auto id = static_cast<FrameId>(frames_.size());
  frames_.push_back(Frame{std::string(name), std::string(layer)});
  frame_index_.emplace(std::make_pair(std::string(name), std::string(layer)),
                       id);
  return id;
}

Profiler::StackId Profiler::push(StackId parent, FrameId frame) {
  P2PLB_REQUIRE(static_cast<std::size_t>(parent) < nodes_.size());
  P2PLB_REQUIRE(frame < frames_.size());
  const auto parent_index = static_cast<std::size_t>(parent);
  {
    const Node& p = nodes_[parent_index];
    // Immediate-recursion collapse: a chain of same-frame pushes (one
    // tagged hop causing the next) folds into a single node.
    if (parent != kRootStack && p.frame == frame) return parent;
    if (p.depth >= kMaxDepth) return parent;
    const auto it = p.children.find(frame);
    if (it != p.children.end()) return it->second;
  }
  const StackId id{static_cast<std::uint32_t>(nodes_.size())};
  Node child;
  child.parent = parent;
  child.frame = frame;
  child.depth = static_cast<std::uint16_t>(nodes_[parent_index].depth + 1);
  nodes_.push_back(std::move(child));  // may invalidate references above
  nodes_[parent_index].children.emplace(frame, id);
  return id;
}

void Profiler::enter(StackId stack) {
  P2PLB_REQUIRE(static_cast<std::size_t>(stack) < nodes_.size());
  ++nodes_[static_cast<std::size_t>(stack)].count;
  active_.push_back(Active{stack, clock_(), 0, current_});
  current_ = stack;
}

void Profiler::exit() {
  P2PLB_ASSERT(!active_.empty());
  const Active a = active_.back();
  active_.pop_back();
  const std::uint64_t end_ns = clock_();
  const std::uint64_t elapsed = end_ns >= a.start_ns ? end_ns - a.start_ns : 0;
  // Telescoping self time: elapsed minus the children's elapsed, so the
  // self columns over the whole trie sum to total_ns() exactly.
  const std::uint64_t self = elapsed >= a.child_ns ? elapsed - a.child_ns : 0;
  nodes_[static_cast<std::size_t>(a.stack)].self_ns += self;
  current_ = a.saved;
  if (!active_.empty())
    active_.back().child_ns += elapsed;
  else
    total_ns_ += elapsed;
}

void Profiler::note_span(std::string_view name, double sim_start,
                         double sim_end) {
  P2PLB_REQUIRE_MSG(!name.empty() && encodable(name),
                    "span note names share the frame-name constraints");
  P2PLB_REQUIRE(sim_end >= sim_start);
  notes_.push_back(SpanNote{std::string(name), sim_start, sim_end});
}

std::vector<Profiler::FrameStat> Profiler::frame_table() const {
  std::vector<FrameStat> out(frames_.size());
  for (std::size_t f = 0; f < frames_.size(); ++f) {
    out[f].name = frames_[f].name;
    out[f].layer = frames_[f].layer;
  }
  // `seen` marks the frames already credited on the current ancestor
  // walk, so a frame repeating on one path counts each nanosecond once.
  std::vector<std::uint32_t> seen(frames_.size(), 0);
  std::uint32_t pass = 0;
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    out[n.frame].count += n.count;
    out[n.frame].self_ns += n.self_ns;
    if (n.self_ns == 0) continue;
    ++pass;
    for (StackId at{static_cast<std::uint32_t>(i)}; at != kRootStack;
         at = node(at).parent) {
      const FrameId f = node(at).frame;
      if (seen[f] == pass) continue;
      seen[f] = pass;
      out[f].total_ns += n.self_ns;
    }
  }
  return out;
}

void Profiler::write_profile(std::ostream& os) const {
  os << "# p2plb-prof-1\n"
     << "total_ns " << total_ns_ << '\n';
  for (const SpanNote& s : notes_)
    os << "span " << s.name << ' ' << s.sim_start << ' ' << s.sim_end << '\n';
  for (std::size_t f = 0; f < frames_.size(); ++f)
    os << "frame " << f << ' '
       << (frames_[f].layer.empty() ? "-" : frames_[f].layer.c_str()) << ' '
       << frames_[f].name << '\n';
  // The root (stack 0) is implicit; every other node names its parent,
  // which always precedes it (parents are created first).
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    os << "stack " << i << ' ' << static_cast<std::uint32_t>(n.parent) << ' '
       << n.frame << ' ' << n.count << ' ' << n.self_ns << '\n';
  }
}

void Profiler::write_profile_file(const std::string& path) const {
  std::ofstream out(path);
  P2PLB_REQUIRE_MSG(out.is_open(), "cannot open profile output: " + path);
  write_profile(out);
}

}  // namespace p2plb::obs
