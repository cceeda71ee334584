// The declaration scan behind no-mutable-global and no-static-local.
//
// A mutable namespace-scope variable, static data member or
// function-local static outlives the run that wrote it.  A second run in
// the same process -- the next test in a suite binary, the next point of
// a sweep -- then starts from the first run's leftovers, so the same seed
// no longer gives the same schedule and the golden and determinism tests
// stop being reproducible.  The two rules ban that state in src/:
//
//   no-mutable-global   any mutable namespace-scope / file-static /
//                       static-member variable.  A static member is
//                       reported once, at its declaration in the class;
//                       the out-of-class definition (`int S::n = 0;`) is
//                       not a second finding.
//   no-static-local     a mutable function-local static (const/constexpr
//                       locals, which are pure after init, are exempt).
//
// Like the rest of the linter this is a tokenizer-level approximation,
// not a compiler: a scope-tracked walk classifies namespace- and
// class-scope declarations and looks for `static` inside function
// bodies.  Declarations initialised with constructor parentheses at
// namespace scope parse as function declarations, and a declaration
// containing `const` anywhere counts as immutable.
#pragma once

#include <vector>

#include "lint_core.h"

namespace p2plb::lint {

/// Append the no-mutable-global and no-static-local findings for `file`
/// (src/ modules only; every other file is outside the rules).
void rule_mutable_state(const SourceFile& file, std::vector<Finding>& findings);

}  // namespace p2plb::lint
