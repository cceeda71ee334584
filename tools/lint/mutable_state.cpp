#include "mutable_state.h"

#include <algorithm>
#include <array>
#include <cctype>

namespace p2plb::lint {
namespace {

using Token = SourceFile::Token;

bool is_ident_tok(const std::string& t) {
  return !t.empty() && (std::isalpha(static_cast<unsigned char>(t[0])) != 0 ||
                        t[0] == '_');
}

/// Any of these in a declaration makes it immutable.
constexpr std::array kConstSpecifiers = {"const", "constexpr", "constinit"};

/// Tokens legal between a function declarator's `)` and its `;`/`{`
/// (anything else there demotes the declaration back to a variable).
constexpr std::array kPostParenQualifiers = {
    "const", "noexcept", "override", "final", "volatile", "&", "&&",
    "try" /* function-try-block */};

template <std::size_t N>
bool in(const std::array<const char*, N>& list, const std::string& s) {
  return std::any_of(list.begin(), list.end(),
                     [&](const char* d) { return s == d; });
}

/// Drop preprocessor lines (backslash continuations included) so brace
/// matching never sees the inside of a macro definition.
std::vector<Token> without_preprocessor(const std::vector<Token>& in) {
  std::vector<Token> out;
  out.reserve(in.size());
  std::size_t skip_line = 0;  // drop tokens while on this line
  std::size_t prev_line = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Token& t = in[i];
    const bool line_start = t.line != prev_line;
    prev_line = t.line;
    if (skip_line != 0 && t.line == skip_line) {
      // A trailing backslash continues the directive onto the next line.
      if (t.text == "\\" && (i + 1 == in.size() || in[i + 1].line != t.line))
        skip_line = t.line + 1;
      continue;
    }
    skip_line = 0;
    if (t.text == "#" && line_start) {
      skip_line = t.line;
      continue;
    }
    out.push_back(t);
  }
  return out;
}

/// Index one past the matching closer for the opener at `i` ("(", "[",
/// "{"), or t.size() on imbalance.
std::size_t skip_balanced(const std::vector<Token>& t, std::size_t i) {
  const std::string& open = t[i].text;
  const std::string close = open == "(" ? ")" : open == "[" ? "]" : "}";
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].text == open) ++depth;
    else if (t[i].text == close && --depth == 0) return i + 1;
  }
  return t.size();
}

/// Starting at '<', one past the matching '>' (or t.size() when a ';'
/// comes first).
std::size_t skip_angles(const std::vector<Token>& t, std::size_t i) {
  int angle = 0;
  int other = 0;
  for (; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "(" || s == "[" || s == "{") ++other;
    if (s == ")" || s == "]" || s == "}") --other;
    if (other == 0 && s == "<") ++angle;
    if (other == 0 && s == ">" && --angle == 0) return i + 1;
    if (s == ";") break;
  }
  return t.size();
}

struct Scope {
  enum class Kind { kNamespace, kClass } kind;
  std::string name;  ///< "" for anonymous namespaces.
};

/// A scope-tracked linear walk over one file: classifies namespace- and
/// class-scope declarations and scans function bodies for statics.
class Scanner {
 public:
  Scanner(const SourceFile& file, std::vector<Finding>& findings)
      : f_(file), t_(without_preprocessor(file.tokens)), findings_(findings) {}

  void run() {
    std::size_t i = 0;
    while (i < t_.size()) i = top_level(i);
  }

 private:
  [[nodiscard]] std::string qualified(const std::string& name) const {
    std::string chain;
    for (const Scope& s : stack_)
      chain += (s.name.empty() ? "(anonymous)" : s.name) + "::";
    return chain + name;
  }

  [[nodiscard]] bool in_class() const {
    return !stack_.empty() && stack_.back().kind == Scope::Kind::kClass;
  }

  void emit(std::size_t line, const char* rule, std::string message) {
    if (f_.allowed(line, rule)) return;
    findings_.push_back(
        {f_.path.generic_string(), line, rule, std::move(message)});
  }

  std::size_t top_level(std::size_t i) {
    const std::string& s = t_[i].text;
    if (s == "}") {
      // Pop as many scope components as this brace's opener pushed
      // (namespace a::b { ... } pushes two for one brace).
      if (!brace_pops_.empty()) {
        for (std::size_t n = brace_pops_.back(); n > 0 && !stack_.empty(); --n)
          stack_.pop_back();
        brace_pops_.pop_back();
      }
      return i + 1;
    }
    if (s == ";") return i + 1;
    if (s == "{") {  // extern "C" { ... } and other transparent braces
      brace_pops_.push_back(0);
      return i + 1;
    }
    if (s == "namespace") return parse_namespace(i);
    if (s == "template") {
      const std::size_t j = i + 1;
      if (j < t_.size() && t_[j].text == "<") return skip_angles(t_, j);
      return j;
    }
    if (s == "using" || s == "typedef" || s == "friend")
      return skip_to_semicolon(i);
    if (s == "enum") return parse_enum(i);
    if ((s == "class" || s == "struct" || s == "union") &&
        !(i > 0 && t_[i - 1].text == "enum"))
      return parse_class(i);
    if ((s == "public" || s == "private" || s == "protected") &&
        i + 1 < t_.size() && t_[i + 1].text == ":")
      return i + 2;
    if (s == "extern" && i + 1 < t_.size() && t_[i + 1].text == "\"\"")
      return i + 2;  // extern "C" -- the '{' case is handled above
    return parse_declaration(i);
  }

  std::size_t skip_to_semicolon(std::size_t i) {
    int depth = 0;
    for (; i < t_.size(); ++i) {
      const std::string& s = t_[i].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      else if (s == ")" || s == "]") --depth;
      else if (s == "}") {
        // An inline body ends the declaration too (friend operators).
        if (--depth == 0) return i + 1;
      } else if (s == ";" && depth == 0) {
        return i + 1;
      }
    }
    return t_.size();
  }

  std::size_t parse_namespace(std::size_t i) {
    // namespace A::B { ... } | namespace { ... } | namespace X = ...;
    std::string name;
    std::size_t j = i + 1;
    while (j < t_.size() && (is_ident_tok(t_[j].text) || t_[j].text == "::")) {
      name += t_[j].text;
      ++j;
    }
    if (j < t_.size() && t_[j].text == "=") return skip_to_semicolon(j);
    if (j < t_.size() && t_[j].text == "{") {
      // Nested shorthand (namespace a::b) pushes one scope per component.
      std::size_t pos = 0;
      std::size_t pushed = 0;
      if (name.empty()) {
        stack_.push_back({Scope::Kind::kNamespace, ""});
        pushed = 1;
      } else {
        while (pos <= name.size()) {
          const std::size_t sep = name.find("::", pos);
          stack_.push_back({Scope::Kind::kNamespace,
                            name.substr(pos, sep == std::string::npos
                                                 ? std::string::npos
                                                 : sep - pos)});
          ++pushed;
          if (sep == std::string::npos) break;
          pos = sep + 2;
        }
      }
      brace_pops_.push_back(pushed);
      return j + 1;
    }
    return j;
  }

  std::size_t parse_enum(std::size_t i) {
    std::size_t j = i + 1;
    while (j < t_.size() && t_[j].text != "{" && t_[j].text != ";") ++j;
    if (j < t_.size() && t_[j].text == "{") j = skip_balanced(t_, j);
    // Trailing `;` (or declarator names for `enum {..} x;`) -- skip.
    while (j < t_.size() && t_[j].text != ";") ++j;
    return j < t_.size() ? j + 1 : j;
  }

  std::size_t parse_class(std::size_t i) {
    // class [attrs] Name [final] [: bases] { ... } [;]
    // A `;` before '{' is a forward declaration.
    std::string name;
    std::size_t j = i + 1;
    for (; j < t_.size(); ++j) {
      const std::string& s = t_[j].text;
      if (s == "(" || s == "[") { j = skip_balanced(t_, j) - 1; continue; }
      if (s == "<") { j = skip_angles(t_, j) - 1; continue; }
      if (s == ";") return j + 1;  // forward declaration
      if (s == ":") {
        // Base clause: name is fixed; scan on for the '{'.
        for (std::size_t k = j + 1; k < t_.size(); ++k) {
          const std::string& u = t_[k].text;
          if (u == "<") { k = skip_angles(t_, k) - 1; continue; }
          if (u == "{") { j = k; break; }
          if (u == ";") return k + 1;
        }
        break;
      }
      if (s == "{") break;
      if (is_ident_tok(s) && s != "final") name = s;
    }
    if (j >= t_.size() || t_[j].text != "{") return t_.size();
    stack_.push_back({Scope::Kind::kClass, name});
    brace_pops_.push_back(1);
    return j + 1;
  }

  /// One declaration at namespace/class scope: a variable, a function
  /// declaration, or a function definition (whose body is scanned).
  std::size_t parse_declaration(std::size_t i) {
    bool saw_static = false;
    bool saw_const = false;
    bool is_operator = false;
    std::string chain;               // identifier chain being built
    std::string fn_name;             // chain before the last real '(' group
    std::size_t last_paren_end = 0;  // one past the fn params ')' token
    std::size_t last_ident_idx = 0;
    for (std::size_t j = i; j < t_.size(); ++j) {
      const std::string& s = t_[j].text;
      if (s == "[") { j = skip_balanced(t_, j) - 1; continue; }
      if (s == "typedef" || s == "using" || s == "friend")
        return skip_to_semicolon(j);  // `__extension__ typedef ...`
      if (s == "static") { saw_static = true; continue; }
      if (in(kConstSpecifiers, s)) { saw_const = true; continue; }
      if (s == "operator") {
        is_operator = true;
        chain = "operator";
        continue;
      }
      if (s == "<" && j > i && is_ident_tok(t_[j - 1].text) &&
          !(is_operator && fn_name.empty())) {
        j = skip_angles(t_, j) - 1;
        continue;
      }
      if (is_ident_tok(s)) {
        if (is_operator && fn_name.empty()) {
          chain += s;  // "operator bool"
        } else if (j >= 1 && t_[j - 1].text == "::") {
          chain += "::" + s;
        } else if (j >= 1 && t_[j - 1].text == "~") {
          chain = "~" + s;
        } else {
          chain = s;
        }
        last_ident_idx = j;
        continue;
      }
      if (is_operator && fn_name.empty() && s.size() == 1 &&
          std::string("+-*/%^&|~!=<>,").find(s[0]) != std::string::npos) {
        chain += s;  // operator> , operator== , ...
        continue;
      }
      if (s == "(") {
        if (is_operator && j + 1 < t_.size() && t_[j + 1].text == ")" &&
            j + 2 < t_.size() && t_[j + 2].text == "(") {
          chain += "()";
          j += 1;  // land on ')' so the next '(' is the parameter list
          continue;
        }
        const bool after_ident =
            (j > i && (is_ident_tok(t_[j - 1].text) || t_[j - 1].text == ")")) ||
            (is_operator && chain.size() > 8 /* "operator" plus symbols */);
        const std::size_t end = skip_balanced(t_, j);
        if (after_ident && !chain.empty()) {
          fn_name = chain;
          last_paren_end = end;
        }
        j = end - 1;
        continue;
      }
      if (s != "=" && s != ":" && s != "{" && s != ";") continue;
      const bool after_declarator =
          last_paren_end != 0 && only_qualifiers(last_paren_end, j);
      if (s == "=") {
        // `= default / delete / 0` right after a declarator's parens is
        // still a function declaration; any other initializer makes
        // this a variable.
        const bool fn_default =
            after_declarator && j + 1 < t_.size() &&
            (t_[j + 1].text == "default" || t_[j + 1].text == "delete" ||
             t_[j + 1].text == "0");
        const std::size_t next = skip_to_semicolon(j);
        if (!fn_default) variable(j, chain, saw_static, saw_const);
        return next;
      }
      if (s == ":" && after_declarator) {
        // Constructor initializer list: scan to the body's '{'.
        std::size_t k = j + 1;
        for (; k < t_.size(); ++k) {
          const std::string& u = t_[k].text;
          if (u == "(" || u == "[") { k = skip_balanced(t_, k) - 1; continue; }
          if (u == "<") { k = skip_angles(t_, k) - 1; continue; }
          if (u == "{") break;
          if (u == ";") return k + 1;  // malformed; bail
        }
        if (k >= t_.size()) return t_.size();
        return function_body(fn_name, k);
      }
      if (s == "{") {
        if (after_declarator) return function_body(fn_name, j);
        // Braced init (`T x{...};`) or an unrecognized scope: skip it.
        const std::size_t end = skip_balanced(t_, j);
        if (j > i && is_ident_tok(t_[j - 1].text) && !chain.empty())
          variable(j, chain, saw_static, saw_const);
        std::size_t k = end;
        while (k < t_.size() && t_[k].text == ";") ++k;
        return k;
      }
      if (s == ";") {
        if (!after_declarator && !chain.empty() && last_ident_idx > i)
          variable(j, chain, saw_static, saw_const);
        return j + 1;
      }
    }
    return t_.size();
  }

  /// True when tokens in [from, to) are only post-paren qualifiers,
  /// noexcept(...) / [[attribute]] groups or trailing-return tokens.
  bool only_qualifiers(std::size_t from, std::size_t to) const {
    bool in_trailing_return = false;
    for (std::size_t k = from; k < to; ++k) {
      const std::string& s = t_[k].text;
      if (s == "->") { in_trailing_return = true; continue; }
      if (in_trailing_return) continue;
      if (in(kPostParenQualifiers, s)) continue;
      if (s == "(" || s == "[") { k = skip_balanced(t_, k) - 1; continue; }
      return false;
    }
    return true;
  }

  /// The declared name just before the terminator at `term`, walking
  /// back over array suffixes and paren groups.
  std::pair<std::string, std::size_t> declared_name(std::size_t term) const {
    std::size_t k = term;
    while (k > 0) {
      const std::string& s = t_[k - 1].text;
      if (s == ")" || s == "]") {
        // Walk back to the matching opener.
        int depth = 0;
        std::size_t m = k - 1;
        const std::string open = s == ")" ? "(" : "[";
        for (; m > 0; --m) {
          if (t_[m - 1].text == s) ++depth;
          // (the token at k-1 itself counts once)
          if (t_[m - 1].text == open && depth-- == 0) break;
        }
        k = m - 1;
        continue;
      }
      if (is_ident_tok(s)) return {s, t_[k - 1].line};
      break;
    }
    return {"", 0};
  }

  /// A variable declaration ending at `term` whose declarator is `chain`.
  void variable(std::size_t term, const std::string& chain, bool saw_static,
                bool saw_const) {
    if (saw_const || (in_class() && !saw_static)) return;
    // A qualified name at namespace scope (`int S::n = 0;`) defines a
    // static member or extern already declared -- and reported -- in its
    // own scope.
    if (!in_class() && chain.find("::") != std::string::npos) return;
    const auto [name, line] = declared_name(term);
    if (name.empty() || name == "default" || name == "delete") return;
    emit(line, kRuleMutableGlobal,
         "mutable " +
             std::string(in_class() ? "static member"
                                    : "namespace-scope variable") +
             " '" + qualified(name) +
             "' outlives the run that writes it: a later same-seed run in "
             "this process starts from its leftovers; move it into an "
             "owned object (or mark it const)");
  }

  std::size_t function_body(const std::string& chain, std::size_t body_open) {
    const std::size_t body_end = skip_balanced(t_, body_open);
    if (chain.empty()) return body_end;
    const std::size_t last = body_end > 0 ? body_end - 1 : body_open + 1;
    for (std::size_t k = body_open + 1; k < last; ++k)
      if (t_[k].text == "static") k = static_local(chain, k, last);
    return body_end;
  }

  /// `static [const...] T name [init];` inside a body; returns the index
  /// of its terminator.
  std::size_t static_local(const std::string& function, std::size_t k,
                           std::size_t end) {
    bool saw_const = false;
    std::size_t term = k + 1;
    for (; term < end; ++term) {
      const std::string& s = t_[term].text;
      if (in(kConstSpecifiers, s)) saw_const = true;
      if (s == "<") { term = skip_angles(t_, term) - 1; continue; }
      if (s == "{") break;  // braced init
      if (s == "(" || s == "[") {
        term = skip_balanced(t_, term) - 1;
        continue;
      }
      if (s == "=" || s == ";") break;
    }
    if (term >= end) return end;
    const auto [name, line] = declared_name(term);
    if (name.empty() || saw_const) return term;
    emit(line != 0 ? line : t_[k].line, kRuleStaticLocal,
         "function-local static '" + name + "' in " + qualified(function) +
             "() outlives the run that writes it: a later same-seed run "
             "in this process starts from its leftovers; hoist it into "
             "owned state or make it constexpr");
    return term;
  }

  const SourceFile& f_;
  std::vector<Token> t_;
  std::vector<Finding>& findings_;
  std::vector<Scope> stack_;
  std::vector<std::size_t> brace_pops_;  ///< Scope components per open brace.
};

}  // namespace

void rule_mutable_state(const SourceFile& file,
                        std::vector<Finding>& findings) {
  if (file.module.empty() || file.module.rfind("tools/", 0) == 0) return;
  Scanner(file, findings).run();
}

}  // namespace p2plb::lint
