// Tests for tools/lint: every rule must fire on a seeded fixture with
// the right rule name and file:line, and a same-line allow() comment
// must suppress it. Fixtures live in string literals (the scanner blanks
// literals, so this file never trips the repo-wide lint run) and are
// fed both in-memory and through the filesystem entry point.
#include "lint/linter.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace lighttr::lint {
namespace {

std::vector<Diagnostic> OfRule(const std::vector<Diagnostic>& diagnostics,
                               const std::string& rule) {
  std::vector<Diagnostic> matching;
  for (const Diagnostic& d : diagnostics) {
    if (d.rule == rule) matching.push_back(d);
  }
  return matching;
}

TEST(LintTest, NoRawRandFiresAndSuppresses) {
  SourceFile file;
  file.path = "src/fl/sampler.cc";
  file.content =
      "void A() { int x = rand(); }\n"                                  // 1
      "void B() { std::mt19937 gen(7); }\n"                             // 2
      "void C() { std::random_device rd; }\n"                           // 3
      "void D() { std::mt19937 ok(7); }  // lighttr-lint: allow(no-raw-rand)\n";
  const std::vector<Diagnostic> hits = OfRule(Lint({file}), "no-raw-rand");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].file, "src/fl/sampler.cc");
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_EQ(hits[1].line, 2);
  EXPECT_EQ(hits[2].line, 3);
}

TEST(LintTest, NoRawRandExemptsCommonRng) {
  SourceFile file;
  file.path = "src/common/rng.h";
  file.content = "class Rng { std::mt19937_64 engine_; };\n";
  EXPECT_TRUE(OfRule(Lint({file}), "no-raw-rand").empty());
}

TEST(LintTest, RandInsideStringOrCommentDoesNotFire) {
  SourceFile file;
  file.path = "src/a.cc";
  file.content =
      "const char* kMsg = \"call rand() for chaos\";\n"
      "// rand() is banned here\n";
  EXPECT_TRUE(OfRule(Lint({file}), "no-raw-rand").empty());
}

TEST(LintTest, NoIostreamInLibFiresOnlyUnderSrc) {
  SourceFile lib;
  lib.path = "src/geo/debug.cc";
  lib.content = "void P() { std::cout << 1; }\n";
  SourceFile bench;
  bench.path = "bench/report.cc";
  bench.content = "void P() { std::cout << 1; }\n";
  SourceFile printer;
  printer.path = "src/common/table_printer.cc";
  printer.content = "void P() { std::cout << 1; }\n";
  const std::vector<Diagnostic> hits =
      OfRule(Lint({lib, bench, printer}), "no-iostream-in-lib");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/geo/debug.cc");
  EXPECT_EQ(hits[0].line, 1);
}

TEST(LintTest, BannedFnFiresAndSuppresses) {
  SourceFile file;
  file.path = "src/parse.cc";
  file.content =
      "double A(const char* s) { return atof(s); }\n"   // 1
      "int B() { return system(\"ls\"); }\n"            // 2
      "int C(const char* s) {\n"
      "  return atoi(s);  // lighttr-lint: allow(banned-fn)\n"
      "}\n"
      "void D(Obj* o) { o->system(1); }\n";             // member: allowed
  const std::vector<Diagnostic> hits = OfRule(Lint({file}), "banned-fn");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_NE(hits[0].message.find("atof"), std::string::npos);
  EXPECT_EQ(hits[1].line, 2);
  EXPECT_NE(hits[1].message.find("system"), std::string::npos);
}

TEST(LintTest, NoDirectPersistenceFiresAcrossSrc) {
  SourceFile fl;
  fl.path = "src/fl/rogue.cc";
  fl.content =
      "void A() { std::ofstream out(\"x\"); }\n"        // 1
      "void B() { std::fstream io(\"x\"); }\n"          // 2
      "void C() { FILE* f = fopen(\"x\", \"wb\"); }\n"  // 3
      "void D() { std::ifstream in(\"x\"); }\n";        // 4: reads bypass
                                                        // fault injection too
  SourceFile traj;  // the rule scopes to ALL of src/, not just fl|nn
  traj.path = "src/traj/rogue.cc";
  traj.content =
      "namespace fs = std::filesystem;\n"                    // 1: alias
      "void E() { std::filesystem::remove_all(\"x\"); }\n"   // 2: mutation
      "void F() { std::filesystem::directory_iterator it; }\n";  // 3: listing
  const std::vector<Diagnostic> hits =
      OfRule(Lint({fl, traj}), "no-direct-persistence");
  ASSERT_EQ(hits.size(), 7u);
  EXPECT_EQ(hits[0].file, "src/fl/rogue.cc");
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_NE(hits[0].message.find("WriteFileAtomic"), std::string::npos);
  EXPECT_EQ(hits[1].line, 2);
  EXPECT_EQ(hits[2].line, 3);
  EXPECT_EQ(hits[3].line, 4);
  EXPECT_EQ(hits[4].file, "src/traj/rogue.cc");
  EXPECT_EQ(hits[4].line, 1);
  EXPECT_NE(hits[4].message.find("std::filesystem"), std::string::npos);
  EXPECT_EQ(hits[5].line, 2);
  EXPECT_EQ(hits[6].line, 3);
}

TEST(LintTest, NoDirectPersistenceAllowComment) {
  SourceFile file;
  file.path = "src/fl/rogue.cc";
  file.content =
      "void A() {\n"
      "  std::ofstream out(\"x\");"
      "  // lighttr-lint: allow(no-direct-persistence)\n"
      "}\n";
  EXPECT_TRUE(OfRule(Lint({file}), "no-direct-persistence").empty());
}

TEST(LintTest, NoDirectPersistenceExemptsEnvTestsAndTools) {
  const std::string body =
      "void A() { std::ofstream out(\"x\"); }\n"
      "void B() { std::filesystem::rename(\"a\", \"b\"); }\n";
  SourceFile env;  // the one sanctioned home of raw file APIs
  env.path = "src/common/env.cc";
  env.content = body;
  SourceFile test_file;
  test_file.path = "tests/crash_recovery_test.cc";
  test_file.content = body;
  SourceFile tool;
  tool.path = "tools/lint/main.cc";
  tool.content = body;
  EXPECT_TRUE(OfRule(Lint({env, test_file, tool}), "no-direct-persistence")
                  .empty());
}

TEST(LintTest, NoDirectPersistenceCoversFormerFlNnAllowedDirs) {
  // src/common outside env.* used to be out of scope; the Env refactor
  // moved the raw APIs into common/env, so everything else in src/ is
  // now held to the FileSystem contract.
  SourceFile common;
  common.path = "src/common/table_printer.cc";
  common.content = "void A() { std::ofstream out(\"x\"); }\n";
  const std::vector<Diagnostic> hits =
      OfRule(Lint({common}), "no-direct-persistence");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/common/table_printer.cc");
}

TEST(LintTest, BannedFnIncludesRacyTempHelpers) {
  SourceFile file;
  file.path = "src/fl/tmp.cc";
  file.content =
      "void A(char* t) { mktemp(t); }\n"
      "void B(char* t) { tmpnam(t); }\n";
  const std::vector<Diagnostic> hits = OfRule(Lint({file}), "banned-fn");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_NE(hits[0].message.find("mktemp"), std::string::npos);
  EXPECT_NE(hits[1].message.find("tmpnam"), std::string::npos);
}

TEST(LintTest, IncludeCycleDetected) {
  SourceFile a;
  a.path = "src/x/a.h";
  a.content = "#include \"x/b.h\"\n";
  SourceFile b;
  b.path = "src/x/b.h";
  b.content = "#include \"x/a.h\"\n";
  SourceFile fine;
  fine.path = "src/x/c.h";
  fine.content = "#include \"x/a.h\"\n";
  const std::vector<Diagnostic> hits =
      OfRule(Lint({a, b, fine}), "no-include-cycle");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("a.h"), std::string::npos);
  EXPECT_NE(hits[0].message.find("b.h"), std::string::npos);
}

TEST(LintTest, AcyclicIncludesAreClean) {
  SourceFile a;
  a.path = "src/x/a.h";
  a.content = "#include \"x/b.h\"\n#include \"x/c.h\"\n";
  SourceFile b;
  b.path = "src/x/b.h";
  b.content = "#include \"x/c.h\"\n";
  SourceFile c;
  c.path = "src/x/c.h";
  c.content = "\n";
  EXPECT_TRUE(OfRule(Lint({a, b, c}), "no-include-cycle").empty());
}

TEST(LintTest, FormatDiagnosticIsCompilerStyle) {
  Diagnostic d;
  d.file = "src/a.cc";
  d.line = 12;
  d.rule = "no-raw-rand";
  d.message = "nope";
  EXPECT_EQ(FormatDiagnostic(d), "src/a.cc:12: no-raw-rand: nope");
}

TEST(LintTest, LintPathsWalksRealFiles) {
  namespace fs = std::filesystem;
  const fs::path root = fs::path(testing::TempDir()) / "lint_fixture";
  const fs::path src = root / "src" / "m";
  fs::create_directories(src);
  {
    std::ofstream out(src / "bad.cc");
    out << "void F() { int x = rand(); }\n";
  }
  {
    std::ofstream out(src / "good.cc");
    out << "void G() {}\n";
  }
  const std::vector<Diagnostic> diagnostics =
      LintPaths({root.generic_string()});
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "no-raw-rand");
  EXPECT_EQ(diagnostics[0].line, 1);
  EXPECT_NE(diagnostics[0].file.find("bad.cc"), std::string::npos);
  fs::remove_all(root);
}

TEST(LintTest, LintPathsReportsMissingRoot) {
  const std::vector<Diagnostic> diagnostics =
      LintPaths({"/nonexistent/lighttr/path"});
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "bad-input");
}

TEST(LintTest, NoRawThreadFiresOutsideThreadPool) {
  SourceFile file;
  file.path = "src/fl/worker.cc";
  file.content =
      "void A() { std::thread t([] {}); t.join(); }\n"          // 1
      "void B() { std::jthread t([] {}); }\n"                   // 2
      "void C() { auto f = std::async([] { return 1; }); }\n";  // 3
  const std::vector<Diagnostic> hits = OfRule(Lint({file}), "no-raw-thread");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].file, "src/fl/worker.cc");
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_EQ(hits[1].line, 2);
  EXPECT_EQ(hits[2].line, 3);
}

TEST(LintTest, NoRawThreadExemptsThreadPoolButNotAsync) {
  SourceFile pool;
  pool.path = "src/common/thread_pool.cc";
  pool.content =
      "void Spawn() { std::thread t([] {}); t.detach(); }\n"    // exempt
      "void Bad() { auto f = std::async([] { return 1; }); }\n";  // not
  const std::vector<Diagnostic> hits = OfRule(Lint({pool}), "no-raw-thread");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 2);
}

TEST(LintTest, NoRawThreadAllowCommentAndNonMatches) {
  SourceFile file;
  file.path = "src/eval/harness.cc";
  file.content =
      "void A() { std::thread t; }  // lighttr-lint: allow(no-raw-thread)\n"
      "int thread = 0;   // unqualified identifier: no match\n"
      "void B() { pool->ParallelFor(4, [](size_t) {}); }\n"
      "// std::thread in a comment does not fire\n";
  EXPECT_TRUE(OfRule(Lint({file}), "no-raw-thread").empty());
}

TEST(LintTest, NoRawNonfiniteFiresOutsideCommonAndHealth) {
  SourceFile file;
  file.path = "src/traj/check.cc";
  file.content =
      "bool A(double x) { return std::isnan(x); }\n"              // 1
      "bool B(double x) { return isinf(x); }\n"                   // 2
      "bool C(double x) { return std::isfinite(x); }\n"           // isfinite ok
      "bool D(double x) { return std::isnan(x); }"
      "  // lighttr-lint: allow(no-raw-nonfinite)\n";
  const std::vector<Diagnostic> hits =
      OfRule(Lint({file}), "no-raw-nonfinite");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].file, "src/traj/check.cc");
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_NE(hits[0].message.find("isnan"), std::string::npos);
  EXPECT_EQ(hits[1].line, 2);
  EXPECT_NE(hits[1].message.find("isinf"), std::string::npos);
}

TEST(LintTest, NoRawNonfiniteExemptsCommonAndHealth) {
  const std::string body = "bool A(double x) { return std::isnan(x); }\n";
  SourceFile finite;
  finite.path = "src/common/finite.h";
  finite.content = body;
  SourceFile health_h;
  health_h.path = "src/fl/health.h";
  health_h.content = body;
  SourceFile health_cc;
  health_cc.path = "src/fl/health.cc";
  health_cc.content = body;
  EXPECT_TRUE(OfRule(Lint({finite, health_h, health_cc}), "no-raw-nonfinite")
                  .empty());
}

TEST(LintTest, NoRawNonfiniteIgnoresMembersAndIdentifiers) {
  SourceFile file;
  file.path = "src/fl/other.cc";
  file.content =
      "void A(Obj* o) { o->isnan(1.0); }\n"       // member access: allowed
      "int my_isnan = 0;\n"                       // identifier: no call
      "bool B(double x) { return IsNan(x); }\n";  // the sanctioned wrapper
  EXPECT_TRUE(OfRule(Lint({file}), "no-raw-nonfinite").empty());
}

TEST(LintTest, NoRawWireFiresOnCastAndMemcpyInSrc) {
  SourceFile file;
  file.path = "src/fl/run_state.cc";
  file.content =
      "void A(char* p, const T& t) { std::memcpy(p, &t, sizeof(t)); }\n"  // 1
      "const T* B(const char* p) { return reinterpret_cast<const T*>(p); "
      "}\n"                                                 // 2
      "void C(char* d, const char* s) { memcpy(d, s, 4); }"  // 3, unqualified
      "\nvoid D(char* p, const T& t) { std::memcpy(p, &t, sizeof(t)); }"
      "  // lighttr-lint: allow(no-raw-wire)\n";
  const std::vector<Diagnostic> hits = OfRule(Lint({file}), "no-raw-wire");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_NE(hits[0].message.find("memcpy"), std::string::npos);
  EXPECT_EQ(hits[1].line, 2);
  EXPECT_NE(hits[1].message.find("reinterpret_cast"), std::string::npos);
  EXPECT_EQ(hits[2].line, 3);
}

TEST(LintTest, NoRawWireExemptsBinaryIoOnly) {
  const std::string body =
      "void A(char* p, const T& t) { std::memcpy(p, &t, sizeof(t)); }\n";
  SourceFile io;
  io.path = "src/common/binary_io.h";
  io.content = body;
  SourceFile test_file;  // scope is src/ only
  test_file.path = "tests/some_test.cc";
  test_file.content = body;
  EXPECT_TRUE(OfRule(Lint({io, test_file}), "no-raw-wire").empty());
  // The transport gets no exemption: its formats are field walks too.
  SourceFile wire;
  wire.path = "src/fl/transport/wire.cc";
  wire.content = body;
  const std::vector<Diagnostic> hits = OfRule(Lint({wire}), "no-raw-wire");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/fl/transport/wire.cc");
}

TEST(LintTest, NoRawWireIgnoresMembersAndIdentifiers) {
  SourceFile file;
  file.path = "src/fl/other.cc";
  file.content =
      "void A(Obj* o) { o->memcpy(1); }\n"       // member access: allowed
      "int my_memcpy = 0;\n"                     // identifier: no call
      "bool B(const char* a, const char* b) { return memcmp(a, b, 4); }\n";
  EXPECT_TRUE(OfRule(Lint({file}), "no-raw-wire").empty());
}

TEST(LintTest, NoRawIntrinsicsFlagsIntrinsicsOutsideKernels) {
  SourceFile file;
  file.path = "src/nn/ops.cc";
  file.content =
      "#include <immintrin.h>\n"                                    // 1
      "void F(double* x) { __m256d v = _mm256_loadu_pd(x);\n"       // 2 (x2)
      "  _mm256_storeu_pd(x, v); }\n"                               // 3
      "void G(double* x) { __m256d v = _mm256_setzero_pd(); "
      "_mm256_storeu_pd(x, v); }"
      "  // lighttr-lint: allow(no-raw-intrinsics)\n";
  const std::vector<Diagnostic> hits =
      OfRule(Lint({file}), "no-raw-intrinsics");
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_NE(hits[0].message.find("intrinsics header"), std::string::npos);
  EXPECT_EQ(hits[1].line, 2);
  EXPECT_NE(hits[1].message.find("__m256d"), std::string::npos);
  EXPECT_EQ(hits[2].line, 2);
  EXPECT_NE(hits[2].message.find("_mm256_loadu_pd"), std::string::npos);
  EXPECT_EQ(hits[3].line, 3);
}

TEST(LintTest, NoRawIntrinsicsExemptsKernelsDirOnly) {
  const std::string body =
      "#include <immintrin.h>\n"
      "void F(double* x) { _mm256_storeu_pd(x, _mm256_setzero_pd()); }\n";
  SourceFile kernel;  // the one sanctioned home
  kernel.path = "src/nn/kernels/kernels_avx2.cc";
  kernel.content = body;
  EXPECT_TRUE(OfRule(Lint({kernel}), "no-raw-intrinsics").empty());
  SourceFile test_file;  // unlike most rules, tests are NOT exempt
  test_file.path = "tests/some_test.cc";
  test_file.content = body;
  EXPECT_EQ(OfRule(Lint({test_file}), "no-raw-intrinsics").size(), 3u);
  SourceFile lookalike;  // _mm-prefixed user identifiers are fine
  lookalike.path = "src/nn/ops.cc";
  lookalike.content = "int _map_max = 0; int mm256 = 0; double m128d = 0;\n";
  EXPECT_TRUE(OfRule(Lint({lookalike}), "no-raw-intrinsics").empty());
}

TEST(LintTest, AllRuleNamesListsEveryRule) {
  const std::vector<std::string>& names = AllRuleNames();
  EXPECT_EQ(names.size(), 15u);
  for (const char* expected :
       {"no-raw-rand", "no-raw-thread", "no-iostream-in-lib", "banned-fn",
        "no-direct-persistence", "no-raw-nonfinite", "no-raw-wire",
        "no-raw-intrinsics", "no-include-cycle", "no-wall-clock",
        "no-pointer-keys", "parallel-capture-audit", "no-unordered-iteration",
        "unused-include", "unused-suppression"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

// ---------------------------------------------------------------------------
// Tokenizer false-positive class: banned patterns inside literals and
// comments must never fire. The regex engine this replaced kept string
// contents on preprocessor lines, so `#define kMsg "call rand()"` was a
// live false positive.
// ---------------------------------------------------------------------------

TEST(LintTest, BannedPatternsInStringLiteralsDoNotFire) {
  SourceFile file;
  file.path = "src/fl/msgs.cc";
  file.content =
      "const char* kA = \"rand() system(\\\"rm\\\") atof(x)\";\n"
      "const char* kB = \"std::thread t; std::ofstream out;\";\n"
      "const char* kC = \"std::isnan(x) memcpy(d, s, 4)\";\n"
      "const char* kD = \"for (auto& kv : m.begin())\";\n";
  EXPECT_TRUE(Lint({file}).empty());
}

TEST(LintTest, BannedPatternsInCommentsDoNotFire) {
  SourceFile file;
  file.path = "src/fl/notes.cc";
  file.content =
      "// rand() and std::mt19937 are banned; use common/rng.h\n"
      "/* std::thread t; std::async; std::ofstream out(\"x\"); */\n"
      "int x = 0;  // reinterpret_cast<const T*>(p), memcpy, isnan\n"
      "/* multi\n"
      "   line: system(\"ls\") atoi(s) std::chrono::system_clock */\n";
  EXPECT_TRUE(Lint({file}).empty());
}

TEST(LintTest, BannedPatternsInRawStringsDoNotFire) {
  SourceFile file;
  file.path = "src/fl/templates.cc";
  file.content =
      "const char* kT = R\"(int x = rand(); std::ofstream out(\"x\");)\";\n"
      "const char* kU = R\"delim(std::thread t; system(\"x\"))delim\";\n"
      "const char* kV = uR\"(std::isnan(v) && gettimeofday(&tv, 0))\";\n";
  EXPECT_TRUE(Lint({file}).empty());
}

TEST(LintTest, StringOnPreprocessorLineDoesNotFire) {
  // The old per-line regex scanner only blanked literals on non-`#`
  // lines, so this macro definition used to trip no-raw-rand.
  SourceFile file;
  file.path = "src/fl/defs.h";
  file.content =
      "#define LIGHTTR_MSG \"call rand() for chaos\"\n"
      "#define LIGHTTR_LONG \"std::thread t;\" \\\n"
      "                     \" system(x)\"\n";
  EXPECT_TRUE(Lint({file}).empty());
}

// ---------------------------------------------------------------------------
// Rule: no-unordered-iteration.
// ---------------------------------------------------------------------------

TEST(LintTest, NoUnorderedIterationFiresOnRangeForAndIterators) {
  SourceFile file;
  file.path = "src/fl/agg.cc";
  file.content =
      "std::unordered_map<int, double> m;\n"                     // 1: decl
      "void A() { for (const auto& kv : m) { Use(kv); } }\n"     // 2
      "void B() { auto it = m.begin(); Use(it); }\n"             // 3
      "void C() { auto it = std::begin(m); Use(it); }\n";        // 4
  const std::vector<Diagnostic> hits =
      OfRule(Lint({file}), "no-unordered-iteration");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].line, 2);
  EXPECT_NE(hits[0].message.find("hash iteration order"), std::string::npos);
  EXPECT_EQ(hits[1].line, 3);
  EXPECT_EQ(hits[2].line, 4);
}

TEST(LintTest, NoUnorderedIterationTracksAliasesAndRefParams) {
  SourceFile file;
  file.path = "src/nn/index.cc";
  file.content =
      "using Index = std::unordered_set<int>;\n"
      "Index idx;\n"
      "void A() { for (int v : idx) { Use(v); } }\n"             // 3
      "void B(const std::unordered_set<int>& s) {\n"
      "  for (int v : s) { Use(v); }\n"                          // 5
      "}\n";
  const std::vector<Diagnostic> hits =
      OfRule(Lint({file}), "no-unordered-iteration");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 3);
  EXPECT_EQ(hits[1].line, 5);
}

TEST(LintTest, NoUnorderedIterationAllowsLookupsAndOrderedWalks) {
  SourceFile file;
  file.path = "src/common/registry.cc";
  file.content =
      "std::unordered_map<int, double> m;\n"
      "std::map<int, double> ordered;\n"
      "void A() { auto it = m.find(1); Use(it); }\n"
      "void B() { if (m.count(2)) { m.at(2) = 1.0; } }\n"
      "void C() { for (const auto& kv : ordered) { Use(kv); } }\n"
      "void D() { for (size_t i = 0; i < m.size(); ++i) { Use(i); } }\n";
  EXPECT_TRUE(OfRule(Lint({file}), "no-unordered-iteration").empty());
}

TEST(LintTest, NoUnorderedIterationScopedAndSuppressible) {
  const std::string body =
      "std::unordered_map<int, double> m;\n"
      "void A() { for (const auto& kv : m) { Use(kv); } }\n";
  SourceFile outside;  // src/traj is outside the determinism scope
  outside.path = "src/traj/stats.cc";
  outside.content = body;
  SourceFile allowed;
  allowed.path = "src/fl/agg.cc";
  allowed.content =
      "std::unordered_map<int, double> m;\n"
      "void A() {\n"
      "  for (const auto& kv : m) { Use(kv); }"
      "  // lighttr-lint: allow(no-unordered-iteration)\n"
      "}\n";
  EXPECT_TRUE(
      OfRule(Lint({outside, allowed}), "no-unordered-iteration").empty());
}

// ---------------------------------------------------------------------------
// Rule: no-wall-clock.
// ---------------------------------------------------------------------------

TEST(LintTest, NoWallClockFiresOnChronoAndLibcTime) {
  SourceFile file;
  file.path = "src/fl/timing.cc";
  file.content =
      "void A() { auto t = std::chrono::system_clock::now(); Use(t); }\n"
      "void B() { auto t = std::chrono::steady_clock::now(); Use(t); }\n"
      "void C() { auto t = time(nullptr); Use(t); }\n"
      "void D() { timeval tv; gettimeofday(&tv, nullptr); }\n";
  const std::vector<Diagnostic> hits = OfRule(Lint({file}), "no-wall-clock");
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_NE(hits[0].message.find("system_clock"), std::string::npos);
  EXPECT_EQ(hits[1].line, 2);
  EXPECT_EQ(hits[2].line, 3);
  EXPECT_EQ(hits[3].line, 4);
}

TEST(LintTest, NoWallClockExemptsStopwatchAndBench) {
  const std::string body =
      "void A() { auto t = std::chrono::steady_clock::now(); Use(t); }\n";
  SourceFile stopwatch;  // the sanctioned wall-clock boundary
  stopwatch.path = "src/common/stopwatch.h";
  stopwatch.content = body;
  SourceFile bench;  // bench/ is outside the determinism scope
  bench.path = "bench/bench_rounds.cc";
  bench.content = body;
  SourceFile eval;  // so is src/eval
  eval.path = "src/eval/harness.cc";
  eval.content = body;
  EXPECT_TRUE(OfRule(Lint({stopwatch, bench, eval}), "no-wall-clock").empty());
}

TEST(LintTest, NoWallClockIgnoresMembersAndPlainIdentifiers) {
  SourceFile file;
  file.path = "src/fl/other.cc";
  file.content =
      "void A(Obj* o) { o->time(1); }\n"         // member access: allowed
      "int time_budget_ms = 0;\n"                // different identifier
      "void B(Obj* o) { o->clock().Tick(); }\n"
      "void C() { auto t = time(nullptr); Use(t); }"
      "  // lighttr-lint: allow(no-wall-clock)\n";
  EXPECT_TRUE(OfRule(Lint({file}), "no-wall-clock").empty());
}

// ---------------------------------------------------------------------------
// Rule: no-pointer-keys.
// ---------------------------------------------------------------------------

TEST(LintTest, NoPointerKeysFiresOnKeyedContainersAndHash) {
  SourceFile file;
  file.path = "src/nn/graph.cc";
  file.content =
      "std::unordered_map<TensorNode*, int> visited;\n"          // 1
      "std::set<Node*> order;\n"                                 // 2
      "struct H { std::hash<Foo*> hasher; };\n";                 // 3
  const std::vector<Diagnostic> hits = OfRule(Lint({file}), "no-pointer-keys");
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_NE(hits[0].message.find("keyed on pointer values"),
            std::string::npos);
  EXPECT_EQ(hits[1].line, 2);
  EXPECT_EQ(hits[2].line, 3);
  EXPECT_NE(hits[2].message.find("std::hash over a pointer type"),
            std::string::npos);
}

TEST(LintTest, NoPointerKeysAllowsPointerValuesAndStableKeys) {
  SourceFile file;
  file.path = "src/common/tables.cc";
  file.content =
      "std::unordered_map<int, Node*> by_id;\n"     // pointer value: fine
      "std::map<std::string, Node*> by_name;\n"
      "std::vector<int*> slots;\n"                  // not a keyed container
      "std::unordered_set<uint64_t> seen;\n";
  EXPECT_TRUE(OfRule(Lint({file}), "no-pointer-keys").empty());
}

TEST(LintTest, NoPointerKeysScopedAndSuppressible) {
  SourceFile outside;
  outside.path = "src/roadnet/index.cc";  // outside the determinism scope
  outside.content = "std::set<Segment*> segments;\n";
  SourceFile allowed;
  allowed.path = "src/fl/cache.cc";
  allowed.content =
      "std::set<Entry*> lru;"
      "  // lighttr-lint: allow(no-pointer-keys)\n";
  EXPECT_TRUE(OfRule(Lint({outside, allowed}), "no-pointer-keys").empty());
}

// ---------------------------------------------------------------------------
// Rule: parallel-capture-audit.
// ---------------------------------------------------------------------------

TEST(LintTest, ParallelCaptureAuditFiresOnUnannotatedByRef) {
  SourceFile file;
  file.path = "src/fl/rounds.cc";
  file.content =
      "void A(ThreadPool* pool, double& acc) {\n"
      "  pool->ParallelFor(4, [&](size_t i) { acc += i; });\n"     // 2
      "}\n"
      "void B(ThreadPool* pool, int& x) {\n"
      "  pool->Submit([&x] { x = 1; });\n"                         // 5
      "}\n";
  const std::vector<Diagnostic> hits =
      OfRule(Lint({file}), "parallel-capture-audit");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].line, 2);
  EXPECT_NE(hits[0].message.find("shared-state"), std::string::npos);
  EXPECT_EQ(hits[1].line, 5);
}

TEST(LintTest, ParallelCaptureAuditAcceptsVerifiedAnnotation) {
  SourceFile file;
  file.path = "src/fl/rounds.cc";
  file.content =
      "void A(ThreadPool* pool, std::vector<int>& slots) {\n"
      "  pool->ParallelFor(4, [&](size_t i) {"
      "  // lint: shared-state(slots)\n"
      "    slots[i] = 1;\n"
      "  });\n"
      "}\n"
      "void B(ThreadPool* pool, Mutex& mu) {\n"
      "  // Annotation on the call line also counts.\n"
      "  pool->ParallelFor(2,  // lint: shared-state(mu)\n"
      "      [&](size_t) { mu.Lock(); mu.Unlock(); });\n"
      "}\n";
  EXPECT_TRUE(OfRule(Lint({file}), "parallel-capture-audit").empty());
}

TEST(LintTest, ParallelCaptureAuditRejectsPhantomGuard) {
  SourceFile file;
  file.path = "src/nn/par.cc";
  file.content =
      "void A(ThreadPool* pool, double& acc) {\n"
      "  pool->ParallelFor(4, [&](size_t i) {"
      "  // lint: shared-state(mu)\n"
      "    acc += i;\n"
      "  });\n"
      "}\n";
  const std::vector<Diagnostic> hits =
      OfRule(Lint({file}), "parallel-capture-audit");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 2);
  EXPECT_NE(hits[0].message.find("never appears"), std::string::npos);
}

TEST(LintTest, ParallelCaptureAuditIgnoresByValueAndOtherScopes) {
  SourceFile by_value;
  by_value.path = "src/fl/rounds.cc";
  by_value.content =
      "void A(ThreadPool* pool, int x) {\n"
      "  pool->ParallelFor(4, [=](size_t i) { Use(x + i); });\n"
      "  pool->ParallelFor(4, [x](size_t i) { Use(x + i); });\n"
      "  pool->ParallelFor(4, [](size_t i) { Use(i); });\n"
      "}\n";
  SourceFile outside;  // src/eval is outside the determinism scope
  outside.path = "src/eval/harness.cc";
  outside.content =
      "void B(ThreadPool* pool, double& acc) {\n"
      "  pool->ParallelFor(4, [&](size_t i) { acc += i; });\n"
      "}\n";
  EXPECT_TRUE(
      OfRule(Lint({by_value, outside}), "parallel-capture-audit").empty());
}

// ---------------------------------------------------------------------------
// Rule: unused-include (IWYU-lite).
// ---------------------------------------------------------------------------

TEST(LintTest, UnusedIncludeFiresWhenNothingIsReferenced) {
  SourceFile util;
  util.path = "src/x/util.h";
  util.content = "struct HelperThing { int v = 0; };\n";
  SourceFile user;
  user.path = "src/x/a.cc";
  user.content =
      "#include \"x/util.h\"\n"
      "\n"
      "void F() { int y = 2; Use(y); }\n";
  const std::vector<Diagnostic> hits =
      OfRule(Lint({util, user}), "unused-include");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file, "src/x/a.cc");
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_NE(hits[0].message.find("util.h"), std::string::npos);
}

TEST(LintTest, UnusedIncludeQuietWhenNameIsUsed) {
  SourceFile util;
  util.path = "src/x/util.h";
  util.content = "struct HelperThing { int v = 0; };\n";
  SourceFile user;
  user.path = "src/x/b.cc";
  user.content =
      "#include \"x/util.h\"\n"
      "\n"
      "HelperThing MakeThing() { return {}; }\n";
  EXPECT_TRUE(OfRule(Lint({util, user}), "unused-include").empty());
}

TEST(LintTest, UnusedIncludeSkipsOwnHeaderAndOpaqueHeaders) {
  SourceFile own_header;  // the c.cc/c.h pair is never flagged
  own_header.path = "src/x/c.h";
  own_header.content = "struct NotUsedByCc { int v = 0; };\n";
  SourceFile own_source;
  own_source.path = "src/x/c.cc";
  own_source.content = "#include \"x/c.h\"\n\nvoid F() {}\n";
  SourceFile opaque;  // nothing declared: heuristic stays silent
  opaque.path = "src/x/flags.h";
  opaque.content = "// build flags only\n";
  SourceFile opaque_user;
  opaque_user.path = "src/x/d.cc";
  opaque_user.content = "#include \"x/flags.h\"\n\nvoid G() {}\n";
  EXPECT_TRUE(
      OfRule(Lint({own_header, own_source, opaque, opaque_user}),
             "unused-include")
          .empty());
}

TEST(LintTest, UnusedIncludeScopedToSrcAndSuppressible) {
  SourceFile util;
  util.path = "src/x/util.h";
  util.content = "struct HelperThing { int v = 0; };\n";
  SourceFile test_file;  // tests/ may include speculatively
  test_file.path = "tests/x_test.cc";
  test_file.content = "#include \"x/util.h\"\n\nvoid F() {}\n";
  SourceFile allowed;
  allowed.path = "src/x/e.cc";
  allowed.content =
      "#include \"x/util.h\""
      "  // lighttr-lint: allow(unused-include)\n"
      "\n"
      "void G() {}\n";
  EXPECT_TRUE(
      OfRule(Lint({util, test_file, allowed}), "unused-include").empty());
}

// ---------------------------------------------------------------------------
// Rule: unused-suppression.
// ---------------------------------------------------------------------------

TEST(LintTest, UnusedSuppressionFiresOnStaleAllow) {
  SourceFile file;
  file.path = "src/fl/clean.cc";
  file.content = "int x = 0;  // lighttr-lint: allow(no-raw-rand)\n";
  const std::vector<Diagnostic> hits =
      OfRule(Lint({file}), "unused-suppression");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].line, 1);
  EXPECT_NE(hits[0].message.find("suppressed no diagnostic"),
            std::string::npos);
}

TEST(LintTest, UnusedSuppressionFlagsUnknownRuleNames) {
  SourceFile file;
  file.path = "src/fl/clean.cc";
  file.content = "int x = 0;  // lighttr-lint: allow(not-a-real-rule)\n";
  const std::vector<Diagnostic> hits =
      OfRule(Lint({file}), "unused-suppression");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].message.find("does not have"), std::string::npos);
}

TEST(LintTest, ConsumedSuppressionIsNotStale) {
  SourceFile file;
  file.path = "src/fl/sampler.cc";
  file.content =
      "void A() { int x = rand(); Use(x); }"
      "  // lighttr-lint: allow(no-raw-rand)\n";
  EXPECT_TRUE(Lint({file}).empty());
}

TEST(LintTest, PlaceholderSuppressionSyntaxIsIgnored) {
  // Documentation may spell out the grammar with bracketed
  // placeholders; those are not suppression entries.
  SourceFile file;
  file.path = "src/fl/clean.cc";
  file.content = "int x = 0;  // see: lighttr-lint: allow(<rule>)\n";
  EXPECT_TRUE(Lint({file}).empty());
}

}  // namespace
}  // namespace lighttr::lint
