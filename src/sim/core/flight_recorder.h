// Fixed-size ring of recent engine activity, for post-mortem debugging.
//
// Tracing answers "what happened over the whole run" at a cost; the
// flight recorder answers "what happened *just now*" for free enough to
// stay always-on: a preallocated ring of small fixed-size records (no
// allocation, no formatting on the hot path) that the engine and the
// network stamp as events execute and messages are sent.  When a run
// dies -- an invariant throws, or the stall detector sees one callback
// hog the wall clock -- the last N records are dumped for inspection
// without any tracing having been enabled.
//
// Layering: this is a pure data structure in sim/core (common only, no
// obs).  The engine owns turning the queue introspection counters into
// sim.* metric rows (see Engine::export_metrics -- sim may depend on
// obs; sim/core may not).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "sim/core/types.h"

namespace p2plb::sim::core {

/// Ring buffer of recent event records with a tag-name table.
/// Not thread-safe (the simulator is single-threaded).
class FlightRecorder {
 public:
  /// What a record describes.
  enum Kind : std::uint8_t {
    kExecute = 0,  ///< the engine fired an event
    kSend = 1,     ///< the network sent a message
  };

  /// One recorded moment; `tag` indexes the tag-name table (0 for
  /// tagless records).
  struct Record {
    double time = 0.0;        ///< sim time at the record
    std::uint64_t seq = 0;    ///< engine schedule seq (execute records)
    std::uint64_t trace = 0;  ///< causal trace id, 0 when untraced
    std::uint32_t src = 0;    ///< sender node (send records)
    std::uint32_t dst = 0;    ///< receiver node (send records)
    std::uint16_t tag = 0;    ///< message tag index (see name_tag)
    std::uint8_t kind = kExecute;
  };

  explicit FlightRecorder(std::size_t capacity = 4096)
      : ring_(capacity) {
    P2PLB_REQUIRE_MSG(capacity > 0, "flight recorder capacity must be > 0");
  }

  /// Name tag index `index` (>= 1; 0 means no tag).  The indices belong
  /// to whoever stamps the records -- sim::Network uses its tag-slot
  /// index + 1 -- so naming an index twice must repeat the same name.
  void name_tag(std::uint16_t index, std::string_view name) {
    P2PLB_REQUIRE_MSG(index != 0 && !name.empty(),
                      "flight recorder tags need an index >= 1 and a name");
    if (index >= names_.size()) names_.resize(std::size_t{index} + 1);
    P2PLB_REQUIRE_MSG(names_[index].empty() || names_[index] == name,
                      "flight recorder tag index renamed");
    names_[index] = name;
  }

  void record(const Record& r) noexcept {
    ring_[next_] = r;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
    ++total_;
  }

  /// Records ever written (>= size(): the ring keeps only the newest).
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return total_;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return total_ < ring_.size() ? static_cast<std::size_t>(total_)
                                 : ring_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }

  /// The name given to `index` ("" for 0 and for unnamed indices).
  [[nodiscard]] std::string_view tag_name(std::uint16_t index) const {
    return index < names_.size() ? std::string_view(names_[index]) : "";
  }

  /// Attach a free-form run-context note (trace-sampling policy, seed,
  /// scenario size, ...) printed at the top of dump(), so a dump shipped
  /// as a CI failure artifact is self-describing.  Re-setting a key
  /// overwrites its value.
  void set_note(std::string_view key, std::string_view value) {
    P2PLB_REQUIRE_MSG(!key.empty(), "flight recorder note key must be non-empty");
    notes_[std::string(key)] = std::string(value);
  }
  /// All notes, in key order (the order dump() prints them).
  [[nodiscard]] const std::map<std::string, std::string, std::less<>>& notes()
      const noexcept {
    return notes_;
  }

  /// The retained records, oldest first.
  [[nodiscard]] std::vector<Record> recent() const {
    std::vector<Record> out;
    out.reserve(size());
    const std::size_t n = size();
    std::size_t at = total_ < ring_.size() ? 0 : next_;
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(ring_[at]);
      at = at + 1 == ring_.size() ? 0 : at + 1;
    }
    return out;
  }

  /// Human-readable dump: run-context notes first, then the retained
  /// records, oldest first.
  void dump(std::ostream& os) const {
    for (const auto& [key, value] : notes_)
      os << "note " << key << ' ' << value << "\n";
    os << "records_total " << total_ << "\n"
       << "records_kept " << size() << "\n"
       << "seq kind time src dst tag trace\n";
    for (const Record& r : recent()) {
      os << r.seq << ' ' << (r.kind == kSend ? "send" : "exec") << ' '
         << r.time;
      if (r.kind == kSend)
        os << ' ' << r.src << ' ' << r.dst << ' '
           << (r.tag == 0 ? std::string_view("-") : tag_name(r.tag));
      else
        os << " - - -";
      os << ' ' << r.trace << "\n";
    }
  }

 private:
  std::vector<Record> ring_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::string> names_ = std::vector<std::string>(1);  // [0]: none
  // Ordered so dump() prints notes deterministically.
  std::map<std::string, std::string, std::less<>> notes_;
};

}  // namespace p2plb::sim::core
