// Cross-translation-unit passes. Both share the same cross-file state
// model: they are built from exactly the files handed to Lint() in one
// call, so the whole tree of interest must be linted together.
//
//   no-include-cycle   cycles in the quoted-include graph
//   unused-include     IWYU-lite: a quoted include (src/ only) none of
//                      whose declared names the includer references
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/engine.h"
#include "lint/token.h"

namespace lighttr::lint {
namespace {

// ---------------------------------------------------------------------------
// Include graph: resolve quoted includes by path-suffix match against
// the input set. Shared by no-include-cycle and unused-include.
// ---------------------------------------------------------------------------

struct IncludeEdge {
  size_t target = 0;  // index into the file vector
  int line = 0;       // line of the #include
};

std::vector<std::vector<IncludeEdge>> BuildIncludeGraph(
    const std::vector<TokenizedFile>& files) {
  std::vector<std::vector<IncludeEdge>> graph(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    const std::vector<Token>& t = files[i].tokens;
    for (size_t k = 0; k + 2 < t.size(); ++k) {
      if (!IsPunct(t, k, "#") || !t[k].preproc) continue;
      if (!IsIdent(t, k + 1, "include")) continue;
      if (t[k + 2].kind != TokenKind::kString) continue;  // <...> is system
      const std::string& target = t[k + 2].text;
      for (size_t j = 0; j < files.size(); ++j) {
        if (PathEndsWith(files[j].norm_path, target)) {
          graph[i].push_back(IncludeEdge{j, t[k + 2].line});
          break;
        }
      }
    }
  }
  return graph;
}

// ---------------------------------------------------------------------------
// Rule: no-include-cycle
// ---------------------------------------------------------------------------

void CheckIncludeCycles(Context* ctx,
                        const std::vector<std::vector<IncludeEdge>>& graph) {
  const std::vector<TokenizedFile>& files = ctx->files;
  // Iterative DFS with colors; report each back edge as one cycle.
  enum class Color { kWhite, kGray, kBlack };
  std::vector<Color> color(files.size(), Color::kWhite);
  std::set<std::pair<size_t, size_t>> reported;

  struct Frame {
    size_t node;
    size_t next_edge = 0;
  };
  for (size_t root = 0; root < files.size(); ++root) {
    if (color[root] != Color::kWhite) continue;
    std::vector<Frame> stack{Frame{root}};
    color[root] = Color::kGray;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next_edge < graph[frame.node].size()) {
        const IncludeEdge edge = graph[frame.node][frame.next_edge++];
        if (color[edge.target] == Color::kWhite) {
          color[edge.target] = Color::kGray;
          stack.push_back(Frame{edge.target});
        } else if (color[edge.target] == Color::kGray) {
          // Found a cycle: walk the stack back to the target.
          if (reported.insert({frame.node, edge.target}).second) {
            std::string chain = files[edge.target].source->path;
            size_t k = stack.size();
            std::vector<std::string> tail;
            while (k > 0 && stack[k - 1].node != edge.target) {
              tail.push_back(files[stack[k - 1].node].source->path);
              --k;
            }
            for (auto it = tail.rbegin(); it != tail.rend(); ++it) {
              chain += " -> " + *it;
            }
            chain += " -> " + files[edge.target].source->path;
            ctx->Report(frame.node, edge.line, "no-include-cycle",
                        "include cycle: " + chain);
          }
        }
      } else {
        color[frame.node] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: unused-include
//
// IWYU-lite for src/: for every quoted include that resolves inside
// the input set, collect the names the target header *declares* —
// class/struct/enum names, using/typedef aliases, #define'd macros,
// capitalized function-style names, k-prefixed constants — and flag
// the include when the includer references none of them. The matching
// is deliberately conservative: a header with no collectable names is
// skipped, and a file's own header (same directory + stem) is always
// considered used. The fix is dropping the include, or including what
// is actually used directly.
// ---------------------------------------------------------------------------

bool IsDeclaredNameStyle(const std::string& id) {
  // PascalCase / ALL_CAPS (public API style) or kConstant style.
  if (id.size() >= 2 && id[0] == 'k' &&
      std::isupper(static_cast<unsigned char>(id[1]))) {
    return true;
  }
  return !id.empty() && std::isupper(static_cast<unsigned char>(id[0]));
}

std::set<std::string> CollectDeclaredNames(const TokenizedFile& file) {
  std::set<std::string> names;
  const std::vector<Token>& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdent) continue;
    const std::string& id = t[i].text;
    if (id == "class" || id == "struct" || id == "enum") {
      size_t j = i + 1;
      if (IsIdent(t, j, "class") || IsIdent(t, j, "struct")) ++j;
      if (j < t.size() && t[j].kind == TokenKind::kIdent) {
        names.insert(t[j].text);
      }
      continue;
    }
    if (id == "using" && i + 1 < t.size() &&
        t[i + 1].kind == TokenKind::kIdent) {
      if (IsPunct(t, i + 2, "=")) {
        names.insert(t[i + 1].text);  // using X = ...;
      } else if (!IsIdent(t, i + 1, "namespace")) {
        // using a::b::c; — the last identifier before `;`.
        std::string last;
        for (size_t j = i + 1; j < t.size() && !IsPunct(t, j, ";"); ++j) {
          if (t[j].kind == TokenKind::kIdent) last = t[j].text;
        }
        if (!last.empty()) names.insert(last);
      }
      continue;
    }
    if (id == "typedef") {
      std::string last;
      for (size_t j = i + 1; j < t.size() && !IsPunct(t, j, ";"); ++j) {
        if (t[j].kind == TokenKind::kIdent) last = t[j].text;
      }
      if (!last.empty()) names.insert(last);
      continue;
    }
    if (id == "define" && t[i].preproc && i > 0 && IsPunct(t, i - 1, "#")) {
      if (i + 1 < t.size() && t[i + 1].kind == TokenKind::kIdent) {
        names.insert(t[i + 1].text);
      }
      continue;
    }
    // Function-style and constant names in the repo's naming scheme.
    if (IsDeclaredNameStyle(id) &&
        (IsPunct(t, i + 1, "(") || IsPunct(t, i + 1, "=") ||
         IsPunct(t, i + 1, "[") || IsPunct(t, i + 1, ";") ||
         IsPunct(t, i + 1, ","))) {
      names.insert(id);
    }
  }
  return names;
}

// The includer's own header pair: same parent directory and stem.
bool IsOwnHeader(const std::string& includer, const std::string& target) {
  auto split = [](const std::string& p) {
    const size_t slash = p.find_last_of('/');
    const std::string base = slash == std::string::npos ? p
                                                        : p.substr(slash + 1);
    const size_t dot = base.find_last_of('.');
    const std::string stem = dot == std::string::npos ? base
                                                      : base.substr(0, dot);
    const std::string dir = slash == std::string::npos ? std::string()
                                                       : p.substr(0, slash);
    return std::pair<std::string, std::string>(dir, stem);
  };
  return split(includer) == split(target);
}

void CheckUnusedIncludes(Context* ctx,
                         const std::vector<std::vector<IncludeEdge>>& graph) {
  const std::vector<TokenizedFile>& files = ctx->files;
  // Lazily computed declared-name sets for include targets.
  std::vector<std::set<std::string>> declared(files.size());
  std::vector<bool> declared_ready(files.size(), false);

  for (size_t i = 0; i < files.size(); ++i) {
    if (!PathContainsDir(files[i].norm_path, "src")) continue;
    if (graph[i].empty()) continue;

    // The includer's referenced identifiers (include lines excluded:
    // the target's own filename must not count as a use).
    std::set<int> include_lines;
    for (const IncludeEdge& edge : graph[i]) include_lines.insert(edge.line);
    std::set<std::string> used;
    for (const Token& tok : files[i].tokens) {
      if (tok.kind != TokenKind::kIdent) continue;
      if (tok.preproc && include_lines.count(tok.line) > 0) continue;
      used.insert(tok.text);
    }

    for (const IncludeEdge& edge : graph[i]) {
      const TokenizedFile& target = files[edge.target];
      if (IsOwnHeader(files[i].norm_path, target.norm_path)) continue;
      if (!declared_ready[edge.target]) {
        declared[edge.target] = CollectDeclaredNames(target);
        declared_ready[edge.target] = true;
      }
      const std::set<std::string>& provides = declared[edge.target];
      if (provides.empty()) continue;  // nothing collectable: stay silent
      bool referenced = false;
      for (const std::string& name : provides) {
        if (used.count(name) > 0) {
          referenced = true;
          break;
        }
      }
      if (!referenced) {
        ctx->Report(i, edge.line, "unused-include",
                    "nothing declared in \"" + target.source->path +
                        "\" is referenced here; drop the include or include "
                        "what you use directly");
      }
    }
  }
}

}  // namespace

void RunCrossTuRules(Context* ctx) {
  const std::vector<std::vector<IncludeEdge>> graph =
      BuildIncludeGraph(ctx->files);
  CheckIncludeCycles(ctx, graph);
  CheckUnusedIncludes(ctx, graph);
}

}  // namespace lighttr::lint
