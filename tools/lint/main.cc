// CLI for lighttr-lint. Usage:
//
//   lighttr-lint [--stats] <dir-or-file>...
//
// Scans every .h/.cc/.cpp/.hpp under the given roots and reports
// violations as compiler-style "file:line: rule: message" lines;
// --stats appends per-rule hit counts so rule coverage is visible in CI
// logs. Exits 1 if any violation was found, 2 on usage errors.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "lint/linter.h"

namespace {

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: lighttr-lint [--stats] <dir-or-file>...\nrules:\n");
  for (const std::string& rule : lighttr::lint::AllRuleNames()) {
    std::fprintf(out, "  %s\n", rule.c_str());
  }
  std::fprintf(out,
               "suppress a line with a comment: lighttr-lint: "
               "allow(<rule>[, <rule>])\n"
               "(a suppression that suppresses nothing is itself an error)\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> roots;
  bool stats = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else if (arg == "--stats") {
      stats = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "lighttr-lint: unknown flag '%s' (try --help)\n",
                   arg.c_str());
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::fprintf(stderr, "lighttr-lint: no input paths (try --help)\n");
    return 2;
  }

  const std::vector<lighttr::lint::Diagnostic> diagnostics =
      lighttr::lint::LintPaths(roots);
  for (const auto& diagnostic : diagnostics) {
    std::printf("%s\n", lighttr::lint::FormatDiagnostic(diagnostic).c_str());
  }

  if (stats) {
    // Per-rule hit counts over every known rule (zeros included), to
    // stderr so stdout holds only the findings.
    std::map<std::string, size_t> counts;
    for (const std::string& rule : lighttr::lint::AllRuleNames()) {
      counts[rule] = 0;
    }
    for (const auto& diagnostic : diagnostics) ++counts[diagnostic.rule];
    std::fprintf(stderr, "lighttr-lint rule hits (%zu rules):\n",
                 counts.size());
    for (const auto& [rule, count] : counts) {
      std::fprintf(stderr, "  %-24s %zu\n", rule.c_str(), count);
    }
  }

  if (!diagnostics.empty()) {
    std::fprintf(stderr, "lighttr-lint: %zu violation(s)\n",
                 diagnostics.size());
    return 1;
  }
  return 0;
}
