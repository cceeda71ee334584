#include "obs/binary_trace.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>

#include "common/error.h"
#include "obs/format.h"

namespace p2plb::obs {

namespace {

constexpr unsigned char kFrameMarker = 0xF5;
constexpr std::size_t kFrameTarget = 64 * 1024;
constexpr std::uint8_t kStringDef = 7;
constexpr std::uint8_t kKindMask = 0x07;
constexpr std::uint8_t kFlagIntTime = 0x08;
constexpr std::uint8_t kFlagCtx = 0x10;
constexpr std::uint8_t kFlagArgs = 0x20;

/// Doubles with this property round-trip through int64 exactly (same
/// predicate json_number uses for its integer fast path).
bool integral_time(double v) noexcept {
  return v == std::floor(v) && std::abs(v) < 9.007199254740992e15;
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// Append `delta = value - *last` as a zigzag varint and advance *last.
void put_delta(std::string& out, std::int64_t value, std::int64_t* last) {
  put_varint(out, zigzag(value - *last));
  *last = value;
}

void put_double_le(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>(bits >> (8 * i)));
}

/// Bounded cursor over one decoded frame payload.
struct Cursor {
  const unsigned char* p;
  const unsigned char* end;

  [[nodiscard]] bool done() const noexcept { return p >= end; }
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return static_cast<std::uint64_t>(end - p);
  }

  std::uint8_t u8() {
    P2PLB_REQUIRE_MSG(p < end, "btrace: truncated record");
    return *p++;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
      P2PLB_REQUIRE_MSG(shift < 64, "btrace: varint overflow");
    }
  }

  double f64le() {
    P2PLB_REQUIRE_MSG(end - p >= 8, "btrace: truncated record");
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
      bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    p += 8;
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::string bytes(std::uint64_t n) {
    P2PLB_REQUIRE_MSG(remaining() >= n, "btrace: truncated record");
    std::string s(reinterpret_cast<const char*>(p),
                  static_cast<std::size_t>(n));
    p += n;
    return s;
  }
};

}  // namespace

std::unique_ptr<TraceSink> open_trace_sink(const std::string& path) {
  if (path_has_extension(path, ".jsonl"))
    return std::make_unique<JsonlTraceSink>(path);
  if (path_has_extension(path, ".btrace"))
    return std::make_unique<BinaryTraceSink>(path);
  throw PreconditionError(
      "trace file must end in .jsonl or .btrace, got " + path +
      "; for Chrome trace_event JSON convert one of them with "
      "p2plb_trace --in FILE.jsonl --out FILE.json");
}

JsonlTraceSink::JsonlTraceSink(const std::string& path)
    : owned_(path), os_(&owned_) {
  P2PLB_REQUIRE_MSG(owned_.good(), "cannot open trace file: " + path);
}

void JsonlTraceSink::on_event(const TraceEvent& e) {
  write_jsonl_event(*os_, e);
  ++events_;
}

BinaryTraceSink::BinaryTraceSink(std::ostream& os) : os_(&os) {
  os_->write(kBinaryTraceMagic.data(),
             static_cast<std::streamsize>(kBinaryTraceMagic.size()));
  bytes_ += kBinaryTraceMagic.size();
}

BinaryTraceSink::BinaryTraceSink(const std::string& path)
    : owned_(path, std::ios::binary), os_(&owned_) {
  P2PLB_REQUIRE_MSG(owned_.good(), "cannot open trace file: " + path);
  os_->write(kBinaryTraceMagic.data(),
             static_cast<std::streamsize>(kBinaryTraceMagic.size()));
  bytes_ += kBinaryTraceMagic.size();
}

BinaryTraceSink::~BinaryTraceSink() { frame_out(); }

std::uint64_t BinaryTraceSink::intern(const std::string& s) {
  const auto it = table_.find(s);
  if (it != table_.end()) return it->second;
  const std::uint64_t index = table_.size();
  table_.emplace(s, index);
  payload_.push_back(static_cast<char>(kStringDef));
  put_varint(payload_, s.size());
  payload_.append(s);
  return index;
}

void BinaryTraceSink::on_event(const TraceEvent& e) {
  // Intern every string before the event head: definition records must
  // land in the payload ahead of the record that references them.
  const std::uint64_t lane_index = intern(e.lane);
  const std::uint64_t name_index = intern(e.name);
  key_indices_.clear();
  for (const Arg& a : e.args) key_indices_.push_back(intern(a.key));

  std::uint8_t head = static_cast<std::uint8_t>(e.kind);
  const bool int_time = integral_time(e.time);
  const bool has_ctx =
      (e.ctx.trace | e.ctx.span | e.ctx.parent) != 0;
  if (int_time) head |= kFlagIntTime;
  if (has_ctx) head |= kFlagCtx;
  if (!e.args.empty()) head |= kFlagArgs;
  payload_.push_back(static_cast<char>(head));
  put_varint(payload_, lane_index);
  put_varint(payload_, name_index);
  if (int_time) {
    put_delta(payload_, static_cast<std::int64_t>(e.time), &last_time_);
  } else {
    put_double_le(payload_, e.time);
  }
  if (kind_has_id(e.kind))
    put_delta(payload_, static_cast<std::int64_t>(e.id), &last_id_);
  if (has_ctx) {
    put_delta(payload_, static_cast<std::int64_t>(e.ctx.trace), &last_trace_);
    put_delta(payload_, static_cast<std::int64_t>(e.ctx.span), &last_span_);
    put_delta(payload_, static_cast<std::int64_t>(e.ctx.parent),
              &last_parent_);
  }
  if (!e.args.empty()) {
    put_varint(payload_, e.args.size());
    for (std::size_t i = 0; i < e.args.size(); ++i) {
      put_varint(payload_, key_indices_[i]);
      put_varint(payload_, e.args[i].json.size());
      payload_.append(e.args[i].json);
    }
  }
  ++events_;
  if (payload_.size() >= kFrameTarget) frame_out();
}

void BinaryTraceSink::frame_out() {
  if (payload_.empty()) return;
  std::string header;
  header.push_back(static_cast<char>(kFrameMarker));
  put_varint(header, payload_.size());
  os_->write(header.data(), static_cast<std::streamsize>(header.size()));
  os_->write(payload_.data(), static_cast<std::streamsize>(payload_.size()));
  bytes_ += header.size() + payload_.size();
  payload_.clear();
}

void BinaryTraceSink::flush() {
  frame_out();
  os_->flush();
}

std::uint64_t read_binary_trace(
    std::istream& is, const std::function<void(const TraceEvent&)>& fn) {
  char magic[8] = {};
  is.read(magic, sizeof magic);
  P2PLB_REQUIRE_MSG(is.gcount() == static_cast<std::streamsize>(sizeof magic) &&
                        kBinaryTraceMagic ==
                            std::string_view(magic, sizeof magic),
                    "btrace: missing p2plb-btrace-1 magic");

  std::vector<std::string> table;
  std::int64_t last_time = 0;
  std::int64_t last_id = 0;
  std::int64_t last_trace = 0;
  std::int64_t last_span = 0;
  std::int64_t last_parent = 0;
  std::uint64_t count = 0;
  std::string payload;

  while (true) {
    const int marker = is.get();
    if (marker == std::char_traits<char>::eof()) break;
    P2PLB_REQUIRE_MSG(marker == kFrameMarker, "btrace: bad frame marker");
    std::uint64_t length = 0;
    int shift = 0;
    while (true) {
      const int b = is.get();
      P2PLB_REQUIRE_MSG(b != std::char_traits<char>::eof(),
                        "btrace: truncated frame header");
      length |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
      P2PLB_REQUIRE_MSG(shift < 64, "btrace: varint overflow");
    }
    // Grow the payload only as its bytes arrive, so a corrupt length
    // fails as a truncated frame instead of allocating it up front.
    payload.clear();
    while (payload.size() < length) {
      const std::size_t have = payload.size();
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>(length - have, kFrameTarget));
      payload.resize(have + chunk);
      is.read(payload.data() + have, static_cast<std::streamsize>(chunk));
      P2PLB_REQUIRE_MSG(static_cast<std::size_t>(is.gcount()) == chunk,
                        "btrace: truncated frame payload");
    }

    Cursor cur{reinterpret_cast<const unsigned char*>(payload.data()),
               reinterpret_cast<const unsigned char*>(payload.data()) +
                   payload.size()};
    while (!cur.done()) {
      const std::uint8_t head = cur.u8();
      if ((head & kKindMask) == kStringDef) {
        table.push_back(cur.bytes(cur.varint()));
        continue;
      }
      TraceEvent e;
      e.kind = static_cast<EventKind>(head & kKindMask);
      const std::uint64_t lane_index = cur.varint();
      const std::uint64_t name_index = cur.varint();
      P2PLB_REQUIRE_MSG(
          lane_index < table.size() && name_index < table.size(),
          "btrace: string index out of range");
      e.lane = table[lane_index];
      e.name = table[name_index];
      if ((head & kFlagIntTime) != 0) {
        last_time += unzigzag(cur.varint());
        e.time = static_cast<double>(last_time);
      } else {
        e.time = cur.f64le();
      }
      if (kind_has_id(e.kind)) {
        last_id += unzigzag(cur.varint());
        e.id = static_cast<std::uint64_t>(last_id);
      }
      if ((head & kFlagCtx) != 0) {
        last_trace += unzigzag(cur.varint());
        last_span += unzigzag(cur.varint());
        last_parent += unzigzag(cur.varint());
        e.ctx.trace = static_cast<std::uint64_t>(last_trace);
        e.ctx.span = static_cast<std::uint64_t>(last_span);
        e.ctx.parent = static_cast<std::uint64_t>(last_parent);
      }
      if ((head & kFlagArgs) != 0) {
        const std::uint64_t n = cur.varint();
        // Each arg takes at least two bytes (key index, value length).
        P2PLB_REQUIRE_MSG(n <= cur.remaining() / 2,
                          "btrace: args count exceeds the record");
        e.args.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
          const std::uint64_t key_index = cur.varint();
          P2PLB_REQUIRE_MSG(key_index < table.size(),
                            "btrace: string index out of range");
          Arg a;
          a.key = table[key_index];
          a.json = cur.bytes(cur.varint());
          e.args.push_back(std::move(a));
        }
      }
      fn(e);
      ++count;
    }
  }
  return count;
}

bool sniff_binary_trace(std::istream& is) {
  char magic[8] = {};
  is.read(magic, sizeof magic);
  const bool matched =
      is.gcount() == static_cast<std::streamsize>(sizeof magic) &&
      kBinaryTraceMagic == std::string_view(magic, sizeof magic);
  is.clear();
  is.seekg(0);
  return matched;
}

}  // namespace p2plb::obs
