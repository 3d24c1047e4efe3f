// lighttr-lint: a token-level static checker for repo invariants.
//
// The compiler already enforces type- and [[nodiscard]]-level
// contracts; this linter covers the invariants the type system cannot
// see. Source files are tokenized (tools/lint/token.h) — comments and
// string/char literals never enter the token stream — and per-file,
// determinism-family, and cross-file passes run over the tokens. The
// full rule catalogue lives in tools/lint/README.md; in brief:
//
//  substrate rules (repo-wide unless noted):
//   no-raw-rand          rand()/std::random_device/ad-hoc std engines
//                        outside common/rng.*
//   no-raw-thread        std::thread/jthread outside common/thread_pool;
//                        std::async anywhere
//   no-iostream-in-lib   std::cout/cerr/clog inside src/ outside
//                        common/table_printer.* and common/check.h
//   banned-fn            atof/strcpy/sprintf/system/... class calls
//   no-direct-persistence raw ofstream/fstream/ifstream/fopen and any
//                        std::filesystem use in src/ outside common/env
//   no-raw-nonfinite     raw isnan/isinf outside common + fl/health
//   no-raw-wire          reinterpret_cast/memcpy serialization in src/
//                        outside common/binary_io and fl/transport
//   no-raw-intrinsics    SIMD intrinsics (_mm*/__m128/__m256/__m512,
//                        *intrin.h includes) outside nn/kernels
//
//  determinism family (src/fl, src/nn, src/common — the bitwise-
//  reproducibility contract, DESIGN.md §12):
//   no-unordered-iteration  range-for / .begin() iteration over
//                           unordered containers (lookups stay legal)
//   no-wall-clock           time()/clock()/chrono clock reads outside
//                           common/stopwatch.h
//   no-pointer-keys         containers keyed on pointer values, and
//                           std::hash over pointer types
//   parallel-capture-audit  ParallelFor/submit lambdas capturing by
//                           reference without a verified
//                           `// lint: shared-state(<guard>)` annotation
//
//  cross-file passes:
//   no-include-cycle     cycles in the quoted-include graph
//   unused-include       IWYU-lite: a quoted include in src/ none of
//                        whose declared names are referenced
//   unused-suppression   an allow() annotation that suppressed nothing
//
// Diagnostics carry file:line and the rule name. A violation is
// suppressed by a same-line comment `lighttr-lint: allow(<rule>)`
// (comma-separate several rules); a suppression that suppresses
// nothing is itself an error, so stale opt-outs cannot accumulate.
#ifndef LIGHTTR_TOOLS_LINT_LINTER_H_
#define LIGHTTR_TOOLS_LINT_LINTER_H_

#include <string>
#include <vector>

namespace lighttr::lint {

/// One input file: path (used for rule scoping and include-graph
/// resolution) plus its full contents.
struct SourceFile {
  std::string path;
  std::string content;
};

/// One rule violation at a source location.
struct Diagnostic {
  std::string file;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

/// Renders "file:line: rule: message" (the clickable compiler format).
std::string FormatDiagnostic(const Diagnostic& diagnostic);

/// Names of every rule the linter knows, e.g. for --help output and
/// per-rule hit-count reporting.
const std::vector<std::string>& AllRuleNames();

/// Runs every rule over `files` and returns the violations in file /
/// line order. Cross-file state (the Status-returning function
/// registry, the include graph, header declaration sets) is built from
/// exactly the files given, so callers should pass the whole tree they
/// care about in one call.
std::vector<Diagnostic> Lint(const std::vector<SourceFile>& files);

/// Recursively collects .h/.cc/.cpp files under each root (a root may
/// also name a single file) and runs Lint over them. Missing roots are
/// reported as a diagnostic rather than silently skipped.
std::vector<Diagnostic> LintPaths(const std::vector<std::string>& roots);

}  // namespace lighttr::lint

#endif  // LIGHTTR_TOOLS_LINT_LINTER_H_
