#include "lint/linter.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "lint/engine.h"
#include "lint/token.h"

namespace lighttr::lint {

// ---------------------------------------------------------------------------
// Shared helpers (declared in engine.h).
// ---------------------------------------------------------------------------

std::string NormalizedPath(const std::string& path) {
  return std::filesystem::path(path).lexically_normal().generic_string();
}

bool PathEndsWith(const std::string& normalized, const std::string& suffix) {
  if (normalized.size() < suffix.size()) return false;
  if (normalized.compare(normalized.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
    return false;
  }
  return normalized.size() == suffix.size() ||
         normalized[normalized.size() - suffix.size() - 1] == '/';
}

bool PathContainsDir(const std::string& normalized, const std::string& dir) {
  const std::string mid = "/" + dir + "/";
  return normalized.rfind(dir + "/", 0) == 0 ||
         normalized.find(mid) != std::string::npos;
}

bool InDeterminismScope(const std::string& normalized) {
  return PathContainsDir(normalized, "src/fl") ||
         PathContainsDir(normalized, "src/nn") ||
         PathContainsDir(normalized, "src/common");
}

size_t MatchingDelim(const std::vector<Token>& t, size_t open,
                     const char* open_text, const char* close_text) {
  const bool angle = open_text[0] == '<';
  int depth = 0;
  for (size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kPunct) continue;
    if (t[i].text == open_text) {
      ++depth;
    } else if (t[i].text == close_text) {
      if (--depth == 0) return i;
    } else if (angle && (t[i].text == ";" || t[i].text == "{" ||
                         t[i].text == "}")) {
      return kNpos;  // `<` was a comparison, not a template bracket
    }
  }
  return kNpos;
}

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

namespace {

bool IsPlainRuleWord(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    if (!std::islower(static_cast<unsigned char>(c)) &&
        !std::isdigit(static_cast<unsigned char>(c)) && c != '-') {
      return false;
    }
  }
  return true;
}

}  // namespace

Suppressions::Suppressions(const std::vector<TokenizedFile>& files) {
  static const std::regex kAllow(R"(lighttr-lint:\s*allow\(([^)]*)\))");
  for (size_t f = 0; f < files.size(); ++f) {
    const std::vector<std::string>& comments = files[f].comments;
    for (size_t l = 0; l < comments.size(); ++l) {
      if (comments[l].empty()) continue;
      std::smatch m;
      if (!std::regex_search(comments[l], m, kAllow)) continue;
      std::stringstream rules(m[1].str());
      std::string item;
      while (std::getline(rules, item, ',')) {
        item.erase(
            std::remove_if(item.begin(), item.end(),
                           [](unsigned char ch) { return std::isspace(ch); }),
            item.end());
        // Documentation placeholders like `allow(<rule>)` are not
        // suppressions; skip anything that is not a plain rule word.
        if (!IsPlainRuleWord(item)) continue;
        entries_.push_back(Entry{f, static_cast<int>(l) + 1, item, false});
      }
    }
  }
}

bool Suppressions::Consume(size_t file_index, int line,
                          const std::string& rule) {
  bool found = false;
  for (Entry& e : entries_) {
    if (e.file == file_index && e.line == line && e.rule == rule) {
      e.used = true;
      found = true;
    }
  }
  return found;
}

void Suppressions::ReportUnused(const std::vector<TokenizedFile>& files,
                                std::vector<Diagnostic>* diagnostics) const {
  const std::vector<std::string>& known = AllRuleNames();
  for (const Entry& e : entries_) {
    if (e.used) continue;
    std::string message;
    if (std::find(known.begin(), known.end(), e.rule) == known.end()) {
      message = "allow(" + e.rule +
                ") names a rule this linter does not have; fix the name or "
                "delete the annotation";
    } else {
      message = "allow(" + e.rule +
                ") suppressed no diagnostic on this line; delete the stale "
                "annotation";
    }
    // Deliberately not suppressible: an allow(unused-suppression) would
    // be a stale opt-out by construction.
    diagnostics->push_back(Diagnostic{files[e.file].source->path, e.line,
                                      "unused-suppression",
                                      std::move(message)});
  }
}

void Context::Report(size_t file_index, int line, const std::string& rule,
                     std::string message) {
  if (suppressions->Consume(file_index, line, rule)) return;
  diagnostics->push_back(Diagnostic{files[file_index].source->path, line,
                                    rule, std::move(message)});
}

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

std::string FormatDiagnostic(const Diagnostic& diagnostic) {
  std::ostringstream os;
  os << diagnostic.file << ":" << diagnostic.line << ": " << diagnostic.rule
     << ": " << diagnostic.message;
  return os.str();
}

const std::vector<std::string>& AllRuleNames() {
  static const std::vector<std::string> kNames = {
      "no-raw-rand",
      "no-raw-thread",
      "no-iostream-in-lib",
      "banned-fn",
      "no-direct-persistence",
      "no-raw-nonfinite",
      "no-raw-wire",
      "no-raw-intrinsics",
      "no-include-cycle",
      "no-unordered-iteration",
      "no-wall-clock",
      "no-pointer-keys",
      "parallel-capture-audit",
      "unused-include",
      "unused-suppression",
  };
  return kNames;
}

std::vector<Diagnostic> Lint(const std::vector<SourceFile>& files) {
  std::vector<TokenizedFile> tokenized;
  tokenized.reserve(files.size());
  for (const SourceFile& file : files) tokenized.push_back(Tokenize(file));

  std::vector<Diagnostic> diagnostics;
  Suppressions suppressions(tokenized);
  Context ctx{tokenized, &suppressions, &diagnostics};
  RunFileRules(&ctx);
  RunDeterminismRules(&ctx);
  RunCrossTuRules(&ctx);
  suppressions.ReportUnused(tokenized, &diagnostics);

  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  return diagnostics;
}

std::vector<Diagnostic> LintPaths(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> files;
  std::vector<Diagnostic> diagnostics;
  auto is_source = [](const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".h" || ext == ".cc" || ext == ".cpp" || ext == ".hpp";
  };
  auto load = [&files](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream contents;
    contents << in.rdbuf();
    files.push_back(SourceFile{p.generic_string(), contents.str()});
  };
  for (const std::string& root : roots) {
    const fs::path path(root);
    if (fs::is_regular_file(path)) {
      load(path);
    } else if (fs::is_directory(path)) {
      std::vector<fs::path> found;
      for (const auto& entry : fs::recursive_directory_iterator(path)) {
        if (entry.is_regular_file() && is_source(entry.path())) {
          found.push_back(entry.path());
        }
      }
      std::sort(found.begin(), found.end());
      for (const fs::path& p : found) load(p);
    } else {
      diagnostics.push_back(
          Diagnostic{root, 0, "bad-input", "no such file or directory"});
    }
  }
  std::vector<Diagnostic> lint_result = Lint(files);
  diagnostics.insert(diagnostics.end(), lint_result.begin(),
                     lint_result.end());
  return diagnostics;
}

}  // namespace lighttr::lint
