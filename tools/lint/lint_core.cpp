#include "lint_core.h"

#include "mutable_state.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

namespace p2plb::lint {
namespace {

// ---------------------------------------------------------------------------
// The declared layer DAG.  A file in src/<module>/ may include headers of
// its own module and of the modules listed here, nothing else.  Keep this
// table in sync with docs/ARCHITECTURE.md ("Layering & static analysis").
struct LayerRule {
  const char* module;
  std::initializer_list<const char*> deps;
};

constexpr std::initializer_list<LayerRule> kLayerDag = {
    {"common", {}},
    {"hilbert", {"common"}},
    {"obs", {"common"}},
    // Nested module: the engine's queue internals (arena + timer wheel)
    // are pure data structures -- they may not reach back into the
    // observer layer or the rest of sim.
    {"sim/core", {"common"}},
    {"sim", {"common", "obs", "sim/core"}},
    {"chord", {"common", "sim"}},
    {"topo", {"common", "sim"}},
    {"workload", {"common", "chord", "sim"}},
    {"ktree", {"common", "chord", "obs", "sim"}},
    {"lb", {"common", "hilbert", "topo", "obs", "sim", "chord", "ktree"}},
    // Tool subdirectories are modules too (the top-level tools/*.cpp
    // binaries stay ungoverned -- they compose every layer by design).
    {"tools/lint", {}},
    {"tools/prof", {"common", "obs"}},
    {"tools/trace", {"common", "obs"}},
};

// The one audited wall-clock escape: the monotonic shim.  Every other
// allow(no-wall-clock) in governed code is itself a finding (see
// rule_wallclock_confinement).
constexpr const char* kWallClockShim = "src/obs/wallclock.h";

/// True when `name` is declared in the layer DAG (one- or two-component).
bool declared_module(const std::string& name) {
  return std::any_of(kLayerDag.begin(), kLayerDag.end(),
                     [&](const LayerRule& r) { return name == r.module; });
}

/// How a module is named in findings: src modules (including nested ones
/// like "sim/core") as "src/<name>", tool modules by their path as-is.
std::string module_label(const std::string& module) {
  return module.rfind("tools/", 0) == 0 ? module : "src/" + module;
}

// Wall-clock *types*: their mere presence in src/ is a finding (they
// only exist to be read).
constexpr std::array kWallClockIdentifiers = {
    "system_clock", "steady_clock", "high_resolution_clock"};

// Wall-clock *functions*: a finding only when called (bare or
// std-qualified), so `#include <ctime>` or a member named time() is fine.
constexpr std::array kWallClockCalls = {
    "time",   "clock",        "gettimeofday", "localtime", "gmtime",
    "mktime", "timespec_get", "ctime",        "difftime"};

constexpr std::array kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

constexpr std::array kOrderedContainers = {"map", "set", "multimap",
                                           "multiset"};

bool contains(std::initializer_list<const char*> list, const std::string& s) {
  return std::any_of(list.begin(), list.end(),
                     [&](const char* d) { return s == d; });
}

template <std::size_t N>
bool contains(const std::array<const char*, N>& list, const std::string& s) {
  return std::any_of(list.begin(), list.end(),
                     [&](const char* d) { return s == d; });
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident(const std::string& t) {
  return !t.empty() && (std::isalpha(static_cast<unsigned char>(t[0])) != 0 ||
                        t[0] == '_');
}

// ---------------------------------------------------------------------------
// Pass 1: strip comments (collecting them for allow-directives), then
// blank string/char literal contents so the tokenizer never sees them.

struct StrippedFile {
  std::string code;  ///< Comments and literal contents replaced by spaces.
  struct Comment {
    std::size_t line;
    std::string text;
  };
  std::vector<Comment> comments;
  std::vector<bool> line_has_code;  ///< Indexed by line number (1-based).
};

StrippedFile strip(const std::string& in) {
  StrippedFile out;
  out.code.reserve(in.size());
  std::size_t line = 1;
  out.line_has_code.assign(2, false);
  std::string comment_text;
  std::size_t comment_line = 0;

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kRawString,
    kChar
  } state = State::kCode;
  std::string raw_delim;  // for )delim" matching

  auto flush_comment = [&] {
    if (!comment_text.empty())
      out.comments.push_back({comment_line, comment_text});
    comment_text.clear();
  };
  auto note_line = [&] {
    ++line;
    if (out.line_has_code.size() <= line + 1)
      out.line_has_code.resize(line + 2, false);
  };

  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_line = line;
          out.code += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_line = line;
          out.code += "  ";
          ++i;
        } else if (c == '"') {
          // R"delim(...)delim" -- the R (with optional encoding prefix)
          // is already emitted; detect it by looking back.
          std::size_t back = out.code.size();
          while (back > 0 && is_ident_char(out.code[back - 1])) --back;
          const std::string prefix = out.code.substr(back);
          if (!prefix.empty() && prefix.back() == 'R') {
            raw_delim = ")";
            for (std::size_t j = i + 1;
                 j < in.size() && in[j] != '(' && raw_delim.size() < 20; ++j)
              raw_delim += in[j];
            raw_delim += '"';
            state = State::kRawString;
          } else {
            state = State::kString;
          }
          out.code += '"';
        } else if (c == '\'' && !(out.code.size() > 0 &&
                                  is_ident_char(out.code.back()))) {
          // An apostrophe after an identifier/number character is a
          // digit separator (1'000), not a character literal.
          state = State::kChar;
          out.code += '\'';
        } else {
          out.code += c;
          if (std::isspace(static_cast<unsigned char>(c)) == 0)
            out.line_has_code[line] = true;
          if (c == '\n') note_line();
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          flush_comment();
          out.code += '\n';
          note_line();
          state = State::kCode;
        } else {
          comment_text += c;
          out.code += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          flush_comment();
          out.code += "  ";
          ++i;
          state = State::kCode;
        } else {
          comment_text += c;
          if (c == '\n') {
            // Multi-line allow comments attach to their first line.
            out.code += '\n';
            note_line();
          } else {
            out.code += ' ';
          }
        }
        break;
      case State::kString:
        // Contents stay (include paths are read from this text); a later
        // blank_literals() pass hides them from the tokenizer.
        if (c == '\\' && next != '\0') {
          out.code += c;
          out.code += next;
          ++i;
        } else {
          out.code += c;
          if (c == '\n') note_line();  // unterminated; keep lines aligned
          if (c == '"') state = State::kCode;
        }
        break;
      case State::kRawString:
        if (in.compare(i, raw_delim.size(), raw_delim) == 0) {
          out.code += raw_delim;
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else {
          out.code += c;
          if (c == '\n') note_line();
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out.code += c;
          out.code += next;
          ++i;
        } else {
          out.code += c;
          if (c == '\n') note_line();
          if (c == '\'') state = State::kCode;
        }
        break;
    }
  }
  flush_comment();
  return out;
}

/// Replace string and character literal *contents* with spaces (keeping
/// the quotes and line breaks) so the tokenizer never sees them.
/// Comments are already gone by the time this runs.
std::string blank_literals(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  enum class State { kCode, kString, kRawString, kChar } state = State::kCode;
  std::string raw_delim;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    const char next = i + 1 < in.size() ? in[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '"') {
          std::size_t back = out.size();
          while (back > 0 && is_ident_char(out[back - 1])) --back;
          const std::string prefix = out.substr(back);
          if (!prefix.empty() && prefix.back() == 'R') {
            raw_delim = ")";
            for (std::size_t j = i + 1;
                 j < in.size() && in[j] != '(' && raw_delim.size() < 20; ++j)
              raw_delim += in[j];
            raw_delim += '"';
            state = State::kRawString;
          } else {
            state = State::kString;
          }
          out += '"';
        } else if (c == '\'' &&
                   !(out.size() > 0 && is_ident_char(out.back()))) {
          state = State::kChar;
          out += '\'';
        } else {
          out += c;
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          out += "  ";
          ++i;
        } else if (c == '"') {
          out += '"';
          state = State::kCode;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kRawString:
        if (in.compare(i, raw_delim.size(), raw_delim) == 0) {
          out.append(raw_delim.size() - 1, ' ');
          out += '"';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          out += '\'';
          state = State::kCode;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pass 2: tokenize the blanked code.  `::` and `->` are single tokens so
// qualifier and member chains are easy to walk; everything else that is
// not an identifier or number is a single character.

std::vector<SourceFile::Token> tokenize(const std::string& code) {
  std::vector<SourceFile::Token> tokens;
  std::size_t line = 1;
  for (std::size_t i = 0; i < code.size();) {
    const char c = code[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (is_ident_char(c)) {
      std::size_t j = i;
      while (j < code.size() && is_ident_char(code[j])) ++j;
      tokens.push_back({code.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c == ':' && i + 1 < code.size() && code[i + 1] == ':') {
      tokens.push_back({"::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < code.size() && code[i + 1] == '>') {
      tokens.push_back({"->", line});
      i += 2;
      continue;
    }
    tokens.push_back({std::string(1, c), line});
    ++i;
  }
  return tokens;
}

void collect_includes(const std::string& code, SourceFile& out) {
  std::istringstream is(code);
  std::string raw;
  for (std::size_t line = 1; std::getline(is, raw); ++line) {
    std::size_t p = raw.find_first_not_of(" \t");
    if (p == std::string::npos || raw[p] != '#') continue;
    p = raw.find_first_not_of(" \t", p + 1);
    if (p == std::string::npos || raw.compare(p, 7, "include") != 0) continue;
    const std::size_t open = raw.find('"', p + 7);
    if (open == std::string::npos) continue;
    const std::size_t close = raw.find('"', open + 1);
    if (close == std::string::npos) continue;
    out.includes.push_back({raw.substr(open + 1, close - open - 1), line});
  }
}

void collect_allows(const StrippedFile& stripped, SourceFile& out) {
  for (const auto& comment : stripped.comments) {
    std::size_t p = comment.text.find("p2plb-lint:");
    if (p == std::string::npos) continue;
    p = comment.text.find("allow(", p);
    if (p == std::string::npos) continue;
    const std::size_t close = comment.text.find(')', p);
    if (close == std::string::npos) continue;
    std::vector<std::string> rules;
    std::string id;
    for (std::size_t i = p + 6; i <= close; ++i) {
      const char c = comment.text[i];
      if (c == ',' || c == ')') {
        if (!id.empty()) rules.push_back(id);
        id.clear();
      } else if (std::isspace(static_cast<unsigned char>(c)) == 0) {
        id += c;
      }
    }
    if (rules.empty()) continue;
    out.allows.emplace_back(comment.line, rules);
    // A comment on a line of its own also covers the next line.
    if (comment.line < stripped.line_has_code.size() &&
        !stripped.line_has_code[comment.line])
      out.allows.emplace_back(comment.line + 1, rules);
  }
}

// ---------------------------------------------------------------------------
// Declared-name table for the unordered-iteration rule: every variable,
// member or alias declared with an unordered container type, across the
// whole tree, mapped to its declaration site.

struct DeclaredNames {
  // name -> "file:line of the declaration" (first wins).
  std::map<std::string, std::string> names;
  std::set<std::string> aliases;  // type aliases for unordered containers
};

/// Starting at tokens[i] == '<', return the index one past the matching
/// '>' (tracking nested <>, () and []), or tokens.size() on imbalance.
std::size_t skip_template_args(const std::vector<SourceFile::Token>& t,
                               std::size_t i) {
  int angle = 0;
  int other = 0;
  for (; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "(" || s == "[") ++other;
    if (s == ")" || s == "]") --other;
    if (other == 0 && s == "<") ++angle;
    if (other == 0 && s == ">" && --angle == 0) return i + 1;
    if (s == ";") break;  // statement ended: not a template argument list
  }
  return t.size();
}

void scan_declarations(const SourceFile& f, DeclaredNames& out) {
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const bool unordered_type = contains(kUnorderedContainers, t[i].text);
    const bool alias_use = out.aliases.count(t[i].text) > 0;
    if (!unordered_type && !alias_use) continue;

    std::size_t j = i + 1;
    if (unordered_type) {
      if (j >= t.size() || t[j].text != "<") continue;
      j = skip_template_args(t, j);
      // `using Alias = std::unordered_map<...>;` registers an alias.
      if (i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std" &&
          i >= 4 && t[i - 3].text == "=" && is_ident(t[i - 4].text) &&
          i >= 5 && t[i - 5].text == "using") {
        out.aliases.insert(t[i - 4].text);
        out.names.emplace(t[i - 4].text, f.path.generic_string() + ":" +
                                             std::to_string(t[i - 4].line));
        continue;
      }
    }
    while (j < t.size() &&
           (t[j].text == "&" || t[j].text == "*" || t[j].text == "const"))
      ++j;
    if (j < t.size() && is_ident(t[j].text) && t[j].text != "const") {
      out.names.emplace(t[j].text, f.path.generic_string() + ":" +
                                       std::to_string(t[j].line));
    }
  }
}

// ---------------------------------------------------------------------------
// Rules.

using Emit = std::vector<Finding>&;

void emit(Emit findings, const SourceFile& f, std::size_t line,
          const char* rule, std::string message) {
  if (f.allowed(line, rule)) return;
  findings.push_back(
      {f.path.generic_string(), line, rule, std::move(message)});
}

void rule_layering(const SourceFile& f, Emit findings) {
  if (f.module.empty()) return;  // layering governs src/ only
  const LayerRule* self = nullptr;
  for (const LayerRule& r : kLayerDag)
    if (f.module == r.module) self = &r;
  if (self == nullptr) {
    emit(findings, f, 1, kRuleLayering,
         "module '" + module_label(f.module) +
             "' is not declared in the layer DAG (tools/lint/lint_core.cpp)");
    return;
  }
  for (const auto& inc : f.includes) {
    const std::size_t slash = inc.target.find('/');
    if (slash == std::string::npos) continue;  // sibling include, no module
    std::string target_module = inc.target.substr(0, slash);
    // A declared nested module ("sim/core/types.h" -> "sim/core") is its
    // own layer; an undeclared subdirectory belongs to its parent.
    const std::size_t slash2 = inc.target.find('/', slash + 1);
    if (slash2 != std::string::npos &&
        declared_module(inc.target.substr(0, slash2)))
      target_module = inc.target.substr(0, slash2);
    if (!declared_module(target_module))
      continue;  // not a module path (e.g. a generated dir)
    if (target_module == f.module || contains(self->deps, target_module))
      continue;
    emit(findings, f, inc.line, kRuleLayering,
         "layer violation: " + module_label(f.module) +
             " may not include \"" + inc.target +
             "\" (allowed layers below '" + f.module +
             "' only; see the DAG in docs/ARCHITECTURE.md)");
  }
}

/// True when the identifier at index i is qualified by something other
/// than `std::` (a member access or a non-std namespace), which exempts
/// it from the bare-call bans.
bool non_std_qualified(const std::vector<SourceFile::Token>& t,
                       std::size_t i) {
  if (i == 0) return false;
  const std::string& prev = t[i - 1].text;
  if (prev == "." || prev == "->") return true;
  if (prev == "::")
    return !(i >= 2 && t[i - 2].text == "std");
  return false;
}

void rule_determinism(const SourceFile& f, const DeclaredNames& declared,
                      Emit findings) {
  if (f.module.empty()) return;  // determinism bans govern src/ only
  const auto& t = f.tokens;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    const bool called = i + 1 < t.size() && t[i + 1].text == "(";

    if ((s == "rand" || s == "srand") && !non_std_qualified(t, i) && called)
      emit(findings, f, t[i].line, kRuleStdRand,
           "'" + s + "' draws from ambient global state; use p2plb::Rng "
           "(explicitly seeded) instead");

    if (s == "random_device")
      emit(findings, f, t[i].line, kRuleRandomDevice,
           "'std::random_device' is nondeterministic by design; seed a "
           "p2plb::Rng from the experiment configuration instead");

    if (contains(kWallClockIdentifiers, s))
      emit(findings, f, t[i].line, kRuleWallClock,
           "'" + s + "' reads the wall clock; library code must use "
           "sim::Engine::now() so runs are replayable");

    if (contains(kWallClockCalls, s) && called && !non_std_qualified(t, i))
      emit(findings, f, t[i].line, kRuleWallClock,
           "'" + s + "()' reads the wall clock; library code must use "
           "sim::Engine::now() so runs are replayable");

    // Range-for over a container declared unordered anywhere in src/.
    if (s == "for" && i + 1 < t.size() && t[i + 1].text == "(") {
      int depth = 0;
      std::size_t colon = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        const std::string& u = t[j].text;
        if (u == "(" || u == "[" || u == "{") ++depth;
        if (u == ")" || u == "]" || u == "}") {
          --depth;
          if (depth == 0) {
            close = j;
            break;
          }
        }
        if (u == ":" && depth == 1) colon = j;
      }
      if (colon == 0 || close == 0) continue;
      // The range expression's trailing identifier: `entries.heavy` ->
      // "heavy"; call results (`tree.level(d)`) end in ')' and are skipped.
      const std::string& last = t[close - 1].text;
      if (!is_ident(last)) continue;
      const auto it = declared.names.find(last);
      if (it == declared.names.end()) continue;
      emit(findings, f, t[colon].line, kRuleUnorderedIter,
           "range-for over '" + last + "' (declared unordered at " +
               it->second +
               "): hash order is implementation-defined, so any emission "
               "or tie-break downstream becomes platform-dependent; "
               "iterate a sorted view or use std::map");
    }

    // Pointer-keyed containers and std::hash over pointers.
    const bool unordered_ctr = contains(kUnorderedContainers, s);
    const bool ordered_ctr = contains(kOrderedContainers, s) || s == "hash";
    const bool std_qualified =
        i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std";
    if ((unordered_ctr || (ordered_ctr && std_qualified)) &&
        i + 1 < t.size() && t[i + 1].text == "<") {
      // Walk to the end of the first template argument (the key type):
      // the ',' or the container's own closing '>' at nesting depth 1.
      int depth = 0;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        const std::string& u = t[j].text;
        if (u == ";") break;
        if (u == "(" || u == "[") {
          ++depth;
        } else if (u == ")" || u == "]") {
          --depth;
        } else if (u == "<") {
          ++depth;
        } else if ((u == ">" && depth == 1) || (u == "," && depth == 1)) {
          if (t[j - 1].text == "*")
            emit(findings, f, t[j - 1].line, kRulePointerKeys,
                 "'" + s + "' keyed by a pointer: addresses vary run to "
                 "run, so ordering or hashing them is nondeterministic; "
                 "key by a stable id instead");
          break;
        } else if (u == ">") {
          --depth;
        }
      }
    }
  }
}

/// Library code must not open files behind the observability layer's
/// back: every trace/metrics byte goes through the obs sink classes
/// (obs::TraceSink implementations, write_*_file), so exporters stay
/// byte-stable and the only file-format knowledge lives in src/obs.
/// The obs module itself implements the sinks and is exempt; so are
/// tools/bench/tests (drivers may open their own outputs).
void rule_obs_sink(const SourceFile& f, Emit findings) {
  if (f.module.empty() || f.module == "obs") return;
  if (f.module.rfind("tools/", 0) == 0) return;
  for (const auto& tok : f.tokens) {
    if (tok.text == "ofstream")
      emit(findings, f, tok.line, kRuleObsSink,
           "'ofstream' outside the obs sink classes: src/ code must not "
           "write observability files directly; emit through an "
           "obs::TraceSink / MetricsRegistry and let obs/ own the "
           "formats");
  }
}

/// The wall-clock ban stays meaningful only if its escape hatch cannot
/// proliferate: the single audited `allow(no-wall-clock)` lives in
/// src/obs/wallclock.h (the monotonic shim everything else calls), and
/// writing that allow anywhere else in governed code is itself a
/// finding.  Findings are pushed directly -- NOT through emit() -- so
/// the very comment being reported cannot suppress its own report.
void rule_wallclock_confinement(const SourceFile& f, Emit findings) {
  if (f.module.empty()) return;  // determinism rules govern src/ + tools/
  if (f.path.generic_string() == kWallClockShim) return;
  std::set<std::size_t> lines;
  for (const auto& [line, rules] : f.allows)
    for (const std::string& r : rules)
      if (r == kRuleWallClock) lines.insert(line);
  for (const std::size_t line : lines) {
    // A directive on its own line registers twice (its line and the
    // next); report the comment's own line only.
    if (line > 0 && lines.count(line - 1) > 0) continue;
    findings.push_back(
        {f.path.generic_string(), line, kRuleWallClock,
         "allow(no-wall-clock) outside " + std::string(kWallClockShim) +
             ": wall-clock escapes are confined to the audited shim; "
             "call obs::wall_now_ns()/wall_now_ms() instead"});
  }
}

/// An allow() naming a rule that does not exist is silently inert -- the
/// author believes something is suppressed when nothing is.  Make the
/// typo itself a finding.  Pushed directly (not through emit()) so a
/// broken directive cannot suppress its own report; `allow(all)` stays
/// valid.
void rule_bad_allow(const SourceFile& f, Emit findings) {
  // line -> unknown rule ids named there (set: own-line directives
  // register twice; report the comment's own line only).
  std::map<std::string, std::set<std::size_t>> unknown;
  for (const auto& [line, rules] : f.allows)
    for (const std::string& r : rules) {
      if (r == "all") continue;
      // Prose describing the grammar ("allow(<rule>)") is not a
      // directive: only rule-id-shaped arguments are validated.
      if (!std::all_of(r.begin(), r.end(), [](char c) {
            return is_ident_char(c) || c == '-';
          }))
        continue;
      const auto& known = all_rules();
      if (std::find(known.begin(), known.end(), r) == known.end())
        unknown[r].insert(line);
    }
  for (const auto& [rule, lines] : unknown)
    for (const std::size_t line : lines) {
      if (line > 0 && lines.count(line - 1) > 0) continue;
      findings.push_back(
          {f.path.generic_string(), line, kRuleBadAllow,
           "allow(" + rule + ") names no known rule, so it suppresses "
           "nothing; see p2plb_lint --list-rules"});
    }
}

void rule_header_hygiene(const SourceFile& f, Emit findings) {
  if (!f.is_header) return;
  const auto& t = f.tokens;
  const bool pragma_once = t.size() >= 3 && t[0].text == "#" &&
                           t[1].text == "pragma" && t[2].text == "once";
  const bool classic_guard = t.size() >= 6 && t[0].text == "#" &&
                             t[1].text == "ifndef" && t[3].text == "#" &&
                             t[4].text == "define" &&
                             t[2].text == t[5].text;
  if (!pragma_once && !classic_guard)
    emit(findings, f, 1, kRuleHeaderGuard,
         "header must start with '#pragma once' (or a classic include "
         "guard) before any other code");

  for (std::size_t i = 0; i + 1 < t.size(); ++i)
    if (t[i].text == "using" && t[i + 1].text == "namespace")
      emit(findings, f, t[i].line, kRuleUsingNamespace,
           "'using namespace' in a header leaks into every includer; "
           "qualify names or move the directive into a .cpp");
}

}  // namespace

std::string Finding::to_string() const {
  return file + ":" + std::to_string(line) + ": [" + rule + "] " + message;
}

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> rules = {
      kRuleLayering,      kRuleStdRand,     kRuleRandomDevice,
      kRuleWallClock,     kRuleUnorderedIter, kRulePointerKeys,
      kRuleHeaderGuard,   kRuleUsingNamespace, kRuleObsSink,
      kRuleMutableGlobal, kRuleStaticLocal,   kRuleBadAllow};
  return rules;
}

bool SourceFile::allowed(std::size_t line, const std::string& rule) const {
  for (const auto& [l, rules] : allows) {
    if (l != line) continue;
    for (const std::string& r : rules)
      if (r == rule || r == "all") return true;
  }
  return false;
}

SourceFile parse_source(const std::filesystem::path& rel_path,
                        const std::string& contents) {
  SourceFile f;
  f.path = rel_path;
  const std::string ext = rel_path.extension().string();
  f.is_header = ext == ".h" || ext == ".hpp";
  auto it = rel_path.begin();
  if (it != rel_path.end() && *it == "src") {
    ++it;
    if (it != rel_path.end() && it->has_extension() == false) {
      f.module = it->string();
      // src/<a>/<b>/ is the module "<a>/<b>" when that nested name is
      // declared in the DAG (e.g. sim/core); otherwise the subdirectory
      // stays part of its parent module.
      auto nested = std::next(it);
      if (nested != rel_path.end() && nested->has_extension() == false &&
          declared_module(f.module + "/" + nested->string()))
        f.module += "/" + nested->string();
    }
  } else if (it != rel_path.end() && *it == "tools") {
    // tools/<dir>/ is the module "tools/<dir>"; files directly under
    // tools/ (the experiment binaries) carry no module.
    ++it;
    if (it != rel_path.end() && it->has_extension() == false)
      f.module = "tools/" + it->string();
  }
  StrippedFile stripped = strip(contents);
  collect_includes(stripped.code, f);
  collect_allows(stripped, f);
  f.tokens = tokenize(blank_literals(stripped.code));
  return f;
}

std::vector<Finding> run_rules(const std::vector<SourceFile>& files) {
  DeclaredNames declared;
  // Two passes so aliases declared in headers resolve before use sites;
  // only src/ declarations feed the table (tests may iterate unordered
  // scratch freely).
  for (const SourceFile& f : files)
    if (!f.module.empty()) scan_declarations(f, declared);
  for (const SourceFile& f : files)
    if (!f.module.empty()) scan_declarations(f, declared);

  std::vector<Finding> findings;
  for (const SourceFile& f : files) {
    rule_layering(f, findings);
    rule_determinism(f, declared, findings);
    rule_wallclock_confinement(f, findings);
    rule_bad_allow(f, findings);
    rule_obs_sink(f, findings);
    rule_header_hygiene(f, findings);
    rule_mutable_state(f, findings);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

std::vector<Finding> lint_tree(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const char* dir : {"src", "tools", "bench", "examples", "tests"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".hpp" && ext != ".cpp" && ext != ".cc")
        continue;
      const std::string rel =
          fs::relative(entry.path(), root).generic_string();
      if (rel.find("lint_fixtures") != std::string::npos) continue;
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& p : paths) {
    std::ifstream is(p, std::ios::binary);
    if (!is)
      throw std::runtime_error("p2plb-lint: cannot read " + p.string());
    std::ostringstream buf;
    buf << is.rdbuf();
    files.push_back(parse_source(fs::relative(p, root), buf.str()));
  }
  return run_rules(files);
}

}  // namespace p2plb::lint
