// p2plb-lint: project-specific static analysis.
//
// The reproduction's headline guarantees -- byte-stable golden traces,
// schedule-invariant observation, decision-identical timed vs. oracle
// rounds -- rest on invariants no compiler flag checks: a strict layer
// DAG between modules, no ambient randomness or wall-clock reads in
// library code, and no hash-order-dependent emission.  This tool makes
// those invariants machine-checked.  It is deliberately a simple
// tokenizer plus an include-graph walker, not a compiler plugin: it
// builds in seconds, runs as a ctest target, and its rules are plain
// data (see kLayerDag / kWallClockIdentifiers in lint_core.cpp).
//
// Escape hatch: a finding on line N is suppressed by a comment
// `p2plb-lint: allow(<rule>)` on line N, or on line N-1 when that line
// contains nothing but the comment.  `allow(all)` suppresses every rule.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace p2plb::lint {

/// One rule violation at a source location.
struct Finding {
  std::string file;  ///< Path relative to the linted root.
  std::size_t line = 0;
  std::string rule;  ///< Stable rule id, e.g. "layering".
  std::string message;

  [[nodiscard]] std::string to_string() const;
};

/// Rule ids, used both in reports and in allow() comments.
inline constexpr const char* kRuleLayering = "layering";
inline constexpr const char* kRuleStdRand = "no-std-rand";
inline constexpr const char* kRuleRandomDevice = "no-random-device";
inline constexpr const char* kRuleWallClock = "no-wall-clock";
inline constexpr const char* kRuleUnorderedIter = "no-unordered-iteration";
inline constexpr const char* kRulePointerKeys = "no-pointer-keys";
inline constexpr const char* kRuleHeaderGuard = "header-guard";
inline constexpr const char* kRuleUsingNamespace = "no-using-namespace-header";
inline constexpr const char* kRuleObsSink = "obs-sink-only";
inline constexpr const char* kRuleMutableGlobal = "no-mutable-global";
inline constexpr const char* kRuleStaticLocal = "no-static-local";
inline constexpr const char* kRuleBadAllow = "bad-allow";

/// All rule ids, for --list-rules and for validating allow() comments.
[[nodiscard]] const std::vector<std::string>& all_rules();

/// A source file loaded and pre-processed for rule checks: comments
/// stripped (allow-directives extracted first), string and character
/// literal *contents* blanked, include directives collected.
struct SourceFile {
  std::filesystem::path path;  ///< Relative to the linted root.
  /// First path component under src/ ("lb" for src/lb/vsa.cpp); empty
  /// for files outside src/.
  std::string module;
  bool is_header = false;

  struct Include {
    std::string target;  ///< The quoted path, e.g. "chord/ring.h".
    std::size_t line = 0;
  };
  std::vector<Include> includes;  ///< `#include "..."` directives only.

  struct Token {
    std::string text;
    std::size_t line = 0;
  };
  std::vector<Token> tokens;

  /// line -> rules allowed on that line (resolved from allow comments,
  /// including the preceding-line form).
  std::vector<std::pair<std::size_t, std::vector<std::string>>> allows;

  [[nodiscard]] bool allowed(std::size_t line, const std::string& rule) const;
};

/// Parse one file's contents (used directly by the fixture tests).
[[nodiscard]] SourceFile parse_source(const std::filesystem::path& rel_path,
                                      const std::string& contents);

/// Lint every .h/.cpp under root's src/, tools/, bench/, examples/ and
/// tests/ directories (skipping lint fixtures).  Layering and the
/// determinism bans apply to src/ only; header hygiene applies
/// everywhere.  Findings are sorted by (file, line, rule).
[[nodiscard]] std::vector<Finding> lint_tree(const std::filesystem::path& root);

/// Run every rule over already-parsed files (the core of lint_tree;
/// split out so tests can lint in-memory fixtures).
[[nodiscard]] std::vector<Finding> run_rules(
    const std::vector<SourceFile>& files);

}  // namespace p2plb::lint
