// Self-tests for p2plb-lint: every rule must fire on its fixture under
// tests/lint_fixtures/flagged/, the allow() escape hatch must suppress,
// and the clean fixture must produce zero findings.  The fixtures are
// never compiled -- they only have to *look* like the code each rule
// exists to catch.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint_core.h"

namespace p2plb::lint {
namespace {

std::vector<Finding> lint_fixture(const std::string& name) {
  return lint_tree(std::string(P2PLB_LINT_FIXTURES_DIR) + "/" + name);
}

std::size_t count(const std::vector<Finding>& findings,
                  const std::string& file_suffix, const std::string& rule) {
  return static_cast<std::size_t>(std::count_if(
      findings.begin(), findings.end(), [&](const Finding& f) {
        return f.rule == rule && f.file.size() >= file_suffix.size() &&
               f.file.compare(f.file.size() - file_suffix.size(),
                              file_suffix.size(), file_suffix) == 0;
      }));
}

TEST(LintFixtures, EveryRuleFiresExactlyWhereExpected) {
  const std::vector<Finding> findings = lint_fixture("flagged");

  EXPECT_EQ(count(findings, "layer_violation.cpp", kRuleLayering), 1u);
  EXPECT_EQ(count(findings, "rogue_module.cpp", kRuleLayering), 1u);
  EXPECT_EQ(count(findings, "escapes_layers.cpp", kRuleLayering), 1u);
  EXPECT_EQ(count(findings, "escapes_core.cpp", kRuleLayering), 1u);
  EXPECT_EQ(count(findings, "includes_engine_internals.cpp", kRuleLayering),
            2u);
  EXPECT_EQ(count(findings, "uses_rand.cpp", kRuleStdRand), 2u);
  EXPECT_EQ(count(findings, "uses_random_device.cpp", kRuleRandomDevice), 1u);
  EXPECT_EQ(count(findings, "wall_clock.cpp", kRuleWallClock), 2u);
  EXPECT_EQ(count(findings, "wall_clock_escape.cpp", kRuleWallClock), 1u);
  EXPECT_EQ(count(findings, "unordered_iter.cpp", kRuleUnorderedIter), 1u);
  EXPECT_EQ(count(findings, "pointer_keys.cpp", kRulePointerKeys), 2u);
  EXPECT_EQ(count(findings, "missing_guard.h", kRuleHeaderGuard), 1u);
  EXPECT_EQ(count(findings, "using_ns.h", kRuleUsingNamespace), 1u);
  EXPECT_EQ(count(findings, "ofstream_export.cpp", kRuleObsSink), 1u);
  // Two mutable globals and one static member, reported at its in-class
  // declaration only (its out-of-class definition is not a second one).
  EXPECT_EQ(count(findings, "mutable_global.cpp", kRuleMutableGlobal), 3u);
  EXPECT_EQ(count(findings, "static_local.cpp", kRuleStaticLocal), 1u);
  EXPECT_EQ(count(findings, "bad_allow.cpp", kRuleBadAllow), 1u);

  // The allow() escape hatch suppresses both its forms.
  for (const Finding& f : findings)
    EXPECT_EQ(f.file.find("allowed.cpp"), std::string::npos)
        << f.to_string();

  // Exact total: any extra finding is a false positive regression.
  EXPECT_EQ(findings.size(), 23u);

  // Findings carry file:line locations inside the fixture tree.
  for (const Finding& f : findings) {
    EXPECT_GT(f.line, 0u) << f.to_string();
    EXPECT_TRUE(f.file.find("src/") == 0u || f.file.find("tools/") == 0u)
        << f.to_string();
  }
}

TEST(LintFixtures, CleanFixtureProducesNoFindings) {
  const std::vector<Finding> findings = lint_fixture("clean");
  for (const Finding& f : findings) ADD_FAILURE() << f.to_string();
}

TEST(LintRules, RuleListCoversLayeringPlusAtLeastEightOthers) {
  const std::vector<std::string>& rules = all_rules();
  EXPECT_GE(rules.size(), 9u);
  EXPECT_NE(std::find(rules.begin(), rules.end(), kRuleLayering),
            rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), kRuleObsSink),
            rules.end());
}

// ---------------------------------------------------------------------------
// Unit tests on parse_source/run_rules for the tricky lexer corners.

std::vector<Finding> lint_snippet(const std::string& rel_path,
                                  const std::string& code) {
  std::vector<SourceFile> files;
  files.push_back(parse_source(rel_path, code));
  return run_rules(files);
}

TEST(LintLexer, LiteralsAndCommentsAreInvisible) {
  const std::vector<Finding> findings = lint_snippet(
      "src/sim/decoy.cpp",
      "// std::rand() in a comment\n"
      "const char* a = \"std::rand() time(nullptr)\";\n"
      "const char* b = R\"(std::random_device inside raw \" string)\";\n"
      "const char c = '\\'';\n"
      "const int grouped = 1'000'000;\n");
  for (const Finding& f : findings) ADD_FAILURE() << f.to_string();
}

TEST(LintLexer, AllowOnOwnLineCoversNextLine) {
  const std::vector<Finding> suppressed = lint_snippet(
      "src/sim/a.cpp",
      "// p2plb-lint: allow(no-std-rand)\n"
      "const int x = rand();\n");
  EXPECT_TRUE(suppressed.empty());

  const std::vector<Finding> active = lint_snippet(
      "src/sim/b.cpp",
      "// p2plb-lint: allow(no-random-device)  (wrong rule)\n"
      "const int x = rand();\n");
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0].rule, kRuleStdRand);
  EXPECT_EQ(active[0].line, 2u);
}

TEST(LintLexer, DeterminismRulesGovernSrcOnly) {
  const std::vector<Finding> findings = lint_snippet(
      "tests/a_test.cpp", "int x = rand();\n");
  EXPECT_TRUE(findings.empty());
}

TEST(LintLayering, AllowedEdgeAndViolationEdge) {
  EXPECT_TRUE(lint_snippet("src/lb/x.cpp",
                           "#include \"ktree/tree.h\"\n")
                  .empty());
  const std::vector<Finding> findings = lint_snippet(
      "src/chord/x.cpp", "#include \"lb/balancer.h\"\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRuleLayering);
  EXPECT_EQ(findings[0].line, 1u);
}

TEST(LintLayering, NestedSimCoreModuleEdges) {
  // sim/core is its own layer: only common (and siblings) below it.
  EXPECT_TRUE(lint_snippet("src/sim/core/wheel.cpp",
                           "#include \"common/error.h\"\n"
                           "#include \"sim/core/types.h\"\n")
                  .empty());
  // The parent module may include its nested module's headers.
  EXPECT_TRUE(lint_snippet("src/sim/engine.cpp",
                           "#include \"sim/core/timer_wheel.h\"\n")
                  .empty());
  // sim/core reaching up to obs is a violation even though sim -> obs
  // is a legal edge.
  const std::vector<Finding> up = lint_snippet(
      "src/sim/core/wheel.cpp", "#include \"obs/trace.h\"\n");
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].rule, kRuleLayering);
  // Other modules that may use sim still may not use its internals.
  const std::vector<Finding> in = lint_snippet(
      "src/chord/x.cpp", "#include \"sim/core/event_arena.h\"\n");
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].rule, kRuleLayering);
}

TEST(LintObsSink, GovernsSrcLibraryCodeOnlyAndExemptsObs) {
  const std::vector<Finding> findings = lint_snippet(
      "src/lb/export.cpp",
      "#include <fstream>\n"
      "void f() { std::ofstream os(\"x.csv\"); }\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRuleObsSink);
  EXPECT_EQ(findings[0].line, 2u);

  EXPECT_TRUE(lint_snippet("src/obs/sink.cpp",
                           "#include <fstream>\n"
                           "void f() { std::ofstream os(\"x.csv\"); }\n")
                  .empty());
  EXPECT_TRUE(lint_snippet("tools/trace/cli.cpp",
                           "#include <fstream>\n"
                           "void f() { std::ofstream os(\"x.md\"); }\n")
                  .empty());
}

TEST(LintWallClock, AllowEscapeConfinedToTheShim) {
  // The audited shim may carry the escape...
  EXPECT_TRUE(lint_snippet(
                  "src/obs/wallclock.h",
                  "#pragma once\n"
                  "#include <chrono>\n"
                  "using C = std::chrono::steady_clock;"
                  "  // p2plb-lint: allow(no-wall-clock)\n")
                  .empty());
  // ...any other governed file may not: the escape itself is the
  // finding, and its own allow comment cannot suppress it.
  const std::vector<Finding> same_line = lint_snippet(
      "src/sim/x.cpp",
      "#include <chrono>\n"
      "using C = std::chrono::steady_clock;"
      "  // p2plb-lint: allow(no-wall-clock)\n");
  ASSERT_EQ(same_line.size(), 1u);
  EXPECT_EQ(same_line[0].rule, kRuleWallClock);
  EXPECT_EQ(same_line[0].line, 2u);
  // The directive-on-its-own-line form reports once, at the comment.
  const std::vector<Finding> own_line = lint_snippet(
      "src/sim/y.cpp",
      "#include <chrono>\n"
      "// p2plb-lint: allow(no-wall-clock)\n"
      "using C = std::chrono::steady_clock;\n");
  ASSERT_EQ(own_line.size(), 1u);
  EXPECT_EQ(own_line[0].rule, kRuleWallClock);
  EXPECT_EQ(own_line[0].line, 2u);
  // Ungoverned code (tests, top-level drivers) stays free to read the
  // clock, so it needs no allow and triggers no confinement finding.
  EXPECT_TRUE(lint_snippet("tests/x_test.cpp",
                           "using C = std::chrono::steady_clock;\n")
                  .empty());
}

TEST(LintUnordered, AliasDeclaredElsewhereIsTracked) {
  std::vector<SourceFile> files;
  files.push_back(parse_source(
      "src/sim/t.h",
      "#pragma once\n"
      "#include <unordered_map>\n"
      "using Index = std::unordered_map<int, int>;\n"));
  files.push_back(parse_source(
      "src/sim/t.cpp",
      "#include \"sim/t.h\"\n"
      "int f() {\n"
      "  Index lookup;\n"
      "  int s = 0;\n"
      "  for (const auto& [k, v] : lookup) s += v;\n"
      "  return s;\n"
      "}\n"));
  const std::vector<Finding> findings = run_rules(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRuleUnorderedIter);
  EXPECT_EQ(findings[0].file, "src/sim/t.cpp");
  EXPECT_EQ(findings[0].line, 5u);
}

TEST(LintBadAllow, UnknownRuleReportedOnceAllStaysValid) {
  const std::vector<Finding> findings = lint_snippet(
      "src/sim/oops.cpp",
      "// p2plb-lint: allow(no-std-rnad)\n"
      "const int x = 3;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRuleBadAllow);
  EXPECT_EQ(findings[0].line, 1u);

  EXPECT_TRUE(lint_snippet("src/sim/ok.cpp",
                           "const int x = 3;"
                           "  // p2plb-lint: allow(all)\n")
                  .empty());
}

}  // namespace
}  // namespace p2plb::lint
