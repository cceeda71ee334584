#include "obs/trace.h"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "common/error.h"

namespace p2plb::obs {

namespace {

constexpr char kPhaseLetter[] = {'B', 'E', 'b', 'e', 'i', 's', 'f'};

bool is_async(EventKind kind) noexcept {
  return kind == EventKind::kAsyncBegin || kind == EventKind::kAsyncEnd;
}

bool is_flow(EventKind kind) noexcept {
  return kind == EventKind::kFlowStart || kind == EventKind::kFlowEnd;
}

}  // namespace

void write_args_object(std::ostream& os, const std::vector<Arg>& args) {
  os << '{';
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) os << ',';
    os << json_string(args[i].key) << ':' << args[i].json;
  }
  os << '}';
}

bool kind_has_id(EventKind kind) noexcept {
  return is_async(kind) || is_flow(kind);
}

char kind_phase_letter(EventKind kind) noexcept {
  return kPhaseLetter[static_cast<std::size_t>(kind)];
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";  // JSON has no NaN/Inf
  char buf[64];
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  std::snprintf(buf, sizeof buf, "%.6f", v);
  std::string s = buf;
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

Arg arg(std::string key, std::string_view value) {
  return Arg{std::move(key), json_string(value)};
}

Arg arg(std::string key, double value) {
  return Arg{std::move(key), json_number(value)};
}

void Tracer::push(double t, EventKind kind, std::string_view lane,
                  std::string_view name, std::uint64_t id,
                  const SpanContext& ctx, std::vector<Arg> args) {
  if (ctx.trace != 0 && !keeps(ctx.trace)) return;
  ++recorded_;
  if (sink_ == nullptr) return;
  sink_->on_event(TraceEvent{t, kind, std::string(lane), std::string(name),
                             id, ctx, std::move(args)});
}

void Tracer::set_trace_sampling(std::uint64_t keep, std::uint64_t of,
                                std::uint64_t seed) {
  P2PLB_REQUIRE_MSG(of >= 1 && keep <= of,
                    "trace sampling rate must satisfy keep <= of, of >= 1");
  sample_keep_ = keep;
  sample_of_ = of;
  sample_seed_ = seed;
}

void Tracer::begin(double t, std::string_view lane, std::string_view name,
                   const SpanContext& ctx, std::vector<Arg> args) {
  push(t, EventKind::kBegin, lane, name, 0, ctx, std::move(args));
}

void Tracer::end(double t, std::string_view lane, std::string_view name,
                 const SpanContext& ctx, std::vector<Arg> args) {
  push(t, EventKind::kEnd, lane, name, 0, ctx, std::move(args));
}

void Tracer::async_begin(double t, std::string_view lane,
                         std::string_view name, std::uint64_t id,
                         const SpanContext& ctx, std::vector<Arg> args) {
  push(t, EventKind::kAsyncBegin, lane, name, id, ctx, std::move(args));
}

void Tracer::async_end(double t, std::string_view lane, std::string_view name,
                       std::uint64_t id, const SpanContext& ctx,
                       std::vector<Arg> args) {
  push(t, EventKind::kAsyncEnd, lane, name, id, ctx, std::move(args));
}

void Tracer::instant(double t, std::string_view lane, std::string_view name,
                     const SpanContext& ctx, std::vector<Arg> args) {
  push(t, EventKind::kInstant, lane, name, 0, ctx, std::move(args));
}

void Tracer::flow_start(double t, std::string_view lane,
                        std::string_view name, std::uint64_t id) {
  push(t, EventKind::kFlowStart, lane, name, id, {}, {});
}

void Tracer::flow_end(double t, std::string_view lane, std::string_view name,
                      std::uint64_t id) {
  push(t, EventKind::kFlowEnd, lane, name, id, {}, {});
}

void write_jsonl_event(std::ostream& os, const TraceEvent& e) {
  os << "{\"t\":" << json_number(e.time) << ",\"ph\":\""
     << kPhaseLetter[static_cast<std::size_t>(e.kind)] << "\",\"lane\":"
     << json_string(e.lane) << ",\"name\":" << json_string(e.name);
  if (kind_has_id(e.kind)) os << ",\"id\":" << e.id;
  if (e.ctx.trace != 0) os << ",\"trace\":" << e.ctx.trace;
  if (e.ctx.span != 0) os << ",\"span\":" << e.ctx.span;
  if (e.ctx.parent != 0) os << ",\"parent\":" << e.ctx.parent;
  if (!e.args.empty()) {
    os << ",\"args\":";
    write_args_object(os, e.args);
  }
  os << "}\n";
}

}  // namespace p2plb::obs
