// Streaming trace sinks and the p2plb-btrace-1 compact binary format.
//
// JSONL tracing costs ~150 bytes per event; a 64k-node round emits ~2 GB
// of it.  This header provides the scale tier: trace *sinks* that write
// events as they happen (attached via Tracer::set_sink, so trace memory
// is O(1) in run length) and a binary wire format that shrinks the same
// event stream >= 5x while round-tripping losslessly back to the exact
// JSONL bytes the golden tests pin.
//
// Format `p2plb-btrace-1`
// ----------------------
// An 8-byte magic ("p2plbBT1") followed by frames.  Each frame is a
// 0xF5 marker byte, a varint payload length, and the payload; frames
// are pure chunking for streaming consumers -- all decoder state (the
// string table, the delta baselines) spans frames.  Varints are LEB128
// (7 bits per byte, low bits first); signed values are zigzag-encoded.
//
// The payload is a sequence of records.  The first byte's low 3 bits
// select the record type: 0..6 are the EventKind values, 7 defines the
// next string-table entry (varint length + UTF-8 bytes; entries are
// numbered sequentially from 0 and shared by lanes, names and arg
// keys).  For event records the remaining bits are flags:
//
//   0x08  timestamp is integral: zigzag varint delta vs the previous
//         integral timestamp (else 8 raw little-endian IEEE-754 bytes)
//   0x10  causal context follows: zigzag varint deltas for trace, span
//         and parent, each against its own previous raw value
//   0x20  args follow: varint count, then per arg a varint key index, a
//         varint byte length and the raw pre-encoded JSON value text
//
// After the flags: varint lane index, varint name index, the timestamp,
// then -- for async/flow kinds only -- a zigzag varint id delta vs the
// previous id, then context and args per the flags.  Storing arg values
// as their exact JSON text is what makes the round-trip byte-identical:
// nothing is ever re-formatted.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"

namespace p2plb::obs {

inline constexpr std::string_view kBinaryTraceMagic = "p2plbBT1";

/// Streaming JSONL sink: writes each event as one line with
/// write_jsonl_event, the writer the binary decoder's JSONL output uses
/// too.
class JsonlTraceSink final : public TraceSink {
 public:
  /// Write to a caller-owned stream.
  explicit JsonlTraceSink(std::ostream& os) : os_(&os) {}
  /// Open `path` for writing; throws PreconditionError when unwritable.
  explicit JsonlTraceSink(const std::string& path);

  void on_event(const TraceEvent& e) override;
  void flush() override { os_->flush(); }

  [[nodiscard]] std::uint64_t events_written() const noexcept {
    return events_;
  }

 private:
  std::ofstream owned_;
  std::ostream* os_;
  std::uint64_t events_ = 0;
};

/// Streaming p2plb-btrace-1 encoder.  Buffers ~64 KiB of records, then
/// emits one frame; flush() (and the destructor) frame out the rest.
class BinaryTraceSink final : public TraceSink {
 public:
  /// Write to a caller-owned stream (must be binary-safe).
  explicit BinaryTraceSink(std::ostream& os);
  /// Open `path` in binary mode; throws PreconditionError when
  /// unwritable.
  explicit BinaryTraceSink(const std::string& path);
  ~BinaryTraceSink() override;

  BinaryTraceSink(const BinaryTraceSink&) = delete;
  BinaryTraceSink& operator=(const BinaryTraceSink&) = delete;

  void on_event(const TraceEvent& e) override;
  void flush() override;

  [[nodiscard]] std::uint64_t events_encoded() const noexcept {
    return events_;
  }
  /// Bytes emitted to the stream so far (magic + completed frames).
  [[nodiscard]] std::uint64_t bytes_framed() const noexcept {
    return bytes_;
  }

 private:
  std::uint64_t intern(const std::string& s);
  void frame_out();

  std::ofstream owned_;
  std::ostream* os_;
  std::string payload_;
  std::unordered_map<std::string, std::uint64_t> table_;
  std::vector<std::uint64_t> key_indices_;  // scratch, reused per event
  std::uint64_t events_ = 0;
  std::uint64_t bytes_ = 0;
  std::int64_t last_time_ = 0;
  std::int64_t last_id_ = 0;
  std::int64_t last_trace_ = 0;
  std::int64_t last_span_ = 0;
  std::int64_t last_parent_ = 0;
};

/// The one way a driver opens its --trace file: a JsonlTraceSink for a
/// name ending in ".jsonl", a BinaryTraceSink for ".btrace" (both
/// case-insensitive, see obs::path_has_extension).  Throws
/// PreconditionError on any other suffix -- Chrome trace_event JSON is
/// a view `p2plb_trace --out FILE.json` derives from either file -- and
/// on an unwritable path.
[[nodiscard]] std::unique_ptr<TraceSink> open_trace_sink(
    const std::string& path);

/// Stream-decode a p2plb-btrace-1 file from `is`, invoking `fn` once
/// per event in file order.  Memory is O(frame + string table), never
/// O(file).  Returns the event count.  Throws PreconditionError on a
/// missing magic, a bad frame marker or a truncated/corrupt record --
/// a corrupt length or count included: nothing is allocated for bytes
/// the input does not hold.
std::uint64_t read_binary_trace(
    std::istream& is, const std::function<void(const TraceEvent&)>& fn);

/// True when `is` starts with the p2plb-btrace-1 magic.  Reads and
/// seeks back to the start, so the stream must be seekable (a file).
[[nodiscard]] bool sniff_binary_trace(std::istream& is);

}  // namespace p2plb::obs
