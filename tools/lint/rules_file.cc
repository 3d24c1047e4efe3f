// Per-file substrate rules, ported from the original per-line regex
// scans onto the token stream. Matching identifiers (never literal or
// comment text) is what retired the regex engine's false-positive
// class: a banned name inside a string, raw string, comment, or a
// string on a preprocessor line can no longer fire.
#include <string>
#include <vector>

#include "lint/engine.h"
#include "lint/token.h"

namespace lighttr::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule: no-raw-rand
// ---------------------------------------------------------------------------

void CheckNoRawRand(Context* ctx, size_t fi) {
  const TokenizedFile& file = ctx->files[fi];
  const std::string& path = file.norm_path;
  if (PathEndsWith(path, "common/rng.h") ||
      PathEndsWith(path, "common/rng.cc")) {
    return;  // the one sanctioned home of raw engines
  }
  const std::vector<Token>& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdent) continue;
    const std::string& id = t[i].text;
    if (id == "rand" && IsFreeOrStdCall(t, i)) {
      ctx->Report(fi, t[i].line, "no-raw-rand",
                  "call to rand(); draw from a seeded lighttr::Rng instead");
    } else if (id == "random_device" && IsStdQualified(t, i)) {
      ctx->Report(fi, t[i].line, "no-raw-rand",
                  "std::random_device is nondeterministic; seed a "
                  "lighttr::Rng explicitly");
    } else if ((id == "mt19937" || id == "mt19937_64" ||
                id == "minstd_rand" || id == "minstd_rand0" ||
                id == "default_random_engine") &&
               IsStdQualified(t, i)) {
      ctx->Report(fi, t[i].line, "no-raw-rand",
                  "ad-hoc std engine construction; all randomness must flow "
                  "through common/rng");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-raw-thread
//
// common/thread_pool is the only sanctioned home of raw std::thread:
// every other concurrency use must go through ThreadPool::ParallelFor,
// whose canonical-order fork/merge discipline is what keeps results
// bitwise identical across thread counts (and keeps the TSan matrix
// meaningful). std::async is banned everywhere — its deferred/eager
// launch policy is scheduler-dependent.
// ---------------------------------------------------------------------------

void CheckNoRawThread(Context* ctx, size_t fi) {
  const TokenizedFile& file = ctx->files[fi];
  const bool in_pool = PathEndsWith(file.norm_path, "common/thread_pool.h") ||
                       PathEndsWith(file.norm_path, "common/thread_pool.cc");
  const std::vector<Token>& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdent || !IsStdQualified(t, i)) continue;
    const std::string& id = t[i].text;
    if (!in_pool && (id == "thread" || id == "jthread")) {
      ctx->Report(fi, t[i].line, "no-raw-thread",
                  "std::" + id +
                      " outside common/thread_pool; run the work through "
                      "ThreadPool::ParallelFor so determinism and TSan "
                      "coverage hold");
    }
    if (id == "async" && IsPunct(t, i + 1, "(")) {
      ctx->Report(fi, t[i].line, "no-raw-thread",
                  "std::async has scheduler-dependent launch semantics; use "
                  "ThreadPool::ParallelFor");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-iostream-in-lib
// ---------------------------------------------------------------------------

void CheckNoIostreamInLib(Context* ctx, size_t fi) {
  const TokenizedFile& file = ctx->files[fi];
  const std::string& path = file.norm_path;
  if (!PathContainsDir(path, "src")) return;  // tests/bench/tools may print
  if (PathEndsWith(path, "common/table_printer.h") ||
      PathEndsWith(path, "common/table_printer.cc") ||
      PathEndsWith(path, "common/check.h")) {
    return;
  }
  const std::vector<Token>& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdent || !IsStdQualified(t, i)) continue;
    const std::string& id = t[i].text;
    if (id == "cout" || id == "cerr" || id == "clog") {
      ctx->Report(fi, t[i].line, "no-iostream-in-lib",
                  "std::" + id +
                      " in library code; route output through "
                      "common/table_printer or return data to the caller");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: banned-fn
// ---------------------------------------------------------------------------

struct BannedFn {
  const char* name;
  const char* reason;
};

constexpr BannedFn kBannedFns[] = {
    {"atof", "silently returns 0.0 on garbage; use ParseNumber "
             "(common/parse_number.h)"},
    {"atoi", "silently returns 0 on garbage; use ParseNumber "
             "(common/parse_number.h)"},
    {"atol", "silently returns 0 on garbage; use ParseNumber "
             "(common/parse_number.h)"},
    {"strcpy", "unbounded copy; use std::string or std::snprintf"},
    {"strcat", "unbounded append; use std::string"},
    {"sprintf", "unbounded format; use std::snprintf"},
    {"vsprintf", "unbounded format; use std::vsnprintf"},
    {"gets", "unbounded read; use std::getline"},
    {"system", "shells out with inherited environment; spawn explicitly or "
               "restructure"},
    {"tmpnam", "racy temp naming; derive paths from a seed or PID instead"},
    {"mktemp", "racy temp naming; use FileSystem::WriteFileAtomic "
               "(common/env), which owns its temp-file lifecycle"},
};

void CheckBannedFn(Context* ctx, size_t fi) {
  const TokenizedFile& file = ctx->files[fi];
  const std::vector<Token>& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdent || !IsFreeOrStdCall(t, i)) continue;
    for (const BannedFn& banned : kBannedFns) {
      if (t[i].text == banned.name) {
        ctx->Report(fi, t[i].line, "banned-fn",
                    std::string(banned.name) + ": " + banned.reason);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-direct-persistence
//
// common/env is the single place src/ may touch raw file APIs: its
// FileSystem interface is what makes every persisted byte atomic (or
// CRC-tagged append) AND fault-injectable by the chaos engine.
// Everywhere else under src/, raw streams (std::ofstream/fstream/
// ifstream, fopen) and std::filesystem calls — mutation (rename,
// remove, create_directories, ...) and inspection (directory_iterator,
// exists, ...) alike, including `namespace fs = std::filesystem`
// aliases — tear files on crash and silently bypass both the
// durability contract and storage fault injection.
// ---------------------------------------------------------------------------

void CheckNoDirectPersistence(Context* ctx, size_t fi) {
  const TokenizedFile& file = ctx->files[fi];
  const std::string& path = file.norm_path;
  if (!PathContainsDir(path, "src")) return;
  if (PathEndsWith(path, "common/env.h") ||
      PathEndsWith(path, "common/env.cc")) {
    return;  // the one sanctioned home of raw file APIs
  }
  const std::vector<Token>& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdent) continue;
    const std::string& id = t[i].text;
    if ((id == "ofstream" || id == "fstream" || id == "ifstream") &&
        IsStdQualified(t, i)) {
      ctx->Report(fi, t[i].line, "no-direct-persistence",
                  "std::" + id +
                      " in src/ outside common/env; do file IO through a "
                      "FileSystem (WriteFileAtomic / ReadFile) so it "
                      "stays crash-atomic and fault-injectable");
    } else if (id == "fopen" && IsFreeOrStdCall(t, i)) {
      ctx->Report(fi, t[i].line, "no-direct-persistence",
                  "fopen in src/ outside common/env; do file IO through a "
                  "FileSystem (WriteFileAtomic / ReadFile) so it stays "
                  "crash-atomic and fault-injectable");
    } else if (id == "filesystem" && IsStdQualified(t, i)) {
      ctx->Report(fi, t[i].line, "no-direct-persistence",
                  "std::filesystem in src/ outside common/env (aliases "
                  "included); route directory and file operations through "
                  "a FileSystem (CreateDirs / ListDir / Remove / Exists)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-raw-nonfinite
//
// Raw std::isnan / std::isinf calls scattered through the tree made the
// self-healing work inconsistent: some sites forgot the Inf half,
// others broke under -ffast-math assumptions. common/finite.h (IsNan /
// IsInf / IsFinite / ScanFinite) is the one sanctioned wrapper;
// src/fl/health is the classifier built on top of it. std::isfinite
// stays legal — the wrappers are for the two easy-to-misuse predicates.
// ---------------------------------------------------------------------------

void CheckNoRawNonfinite(Context* ctx, size_t fi) {
  const TokenizedFile& file = ctx->files[fi];
  const std::string& path = file.norm_path;
  if (PathContainsDir(path, "src/common") ||
      PathEndsWith(path, "fl/health.h") || PathEndsWith(path, "fl/health.cc")) {
    return;  // the wrappers themselves, and the classifier built on them
  }
  const std::vector<Token>& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdent || !IsFreeOrStdCall(t, i)) continue;
    const std::string& id = t[i].text;
    if (id == "isnan" || id == "isinf") {
      ctx->Report(fi, t[i].line, "no-raw-nonfinite",
                  id +
                      " outside common/finite; use lighttr::IsNan/IsInf (or "
                      "ScanFinite) so non-finite handling stays uniform");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-raw-wire
//
// reinterpret_cast / memcpy struct (de)serialization scattered through
// the tree is how silent layout drift and unchecked-bounds decode bugs
// happen. common/binary_io.h is the one sanctioned place bytes are
// reinterpreted (bounds-checked, length-capped). Everywhere else in
// src/, a binary format is a field walk over its FieldWriter and
// FieldReader, and CRC trailers go through common/crc32's
// Append/CheckCrc32Trailer.
// ---------------------------------------------------------------------------

void CheckNoRawWire(Context* ctx, size_t fi) {
  const TokenizedFile& file = ctx->files[fi];
  const std::string& path = file.norm_path;
  if (!PathContainsDir(path, "src")) return;  // tests may craft hostile bytes
  if (PathEndsWith(path, "common/binary_io.h")) return;
  const std::vector<Token>& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != TokenKind::kIdent) continue;
    if (t[i].text == "reinterpret_cast" && IsPunct(t, i + 1, "<")) {
      ctx->Report(fi, t[i].line, "no-raw-wire",
                  "reinterpret_cast in library code; write the format as a "
                  "field walk (common/binary_io.h) instead of "
                  "reinterpreting struct bytes");
    } else if (t[i].text == "memcpy" && IsFreeOrStdCall(t, i)) {
      ctx->Report(fi, t[i].line, "no-raw-wire",
                  "memcpy-based serialization outside common/binary_io.h; "
                  "write the format as a field walk (or std::copy for typed "
                  "buffers)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-raw-intrinsics
//
// SIMD intrinsics scattered through the tree defeat the kernel
// architecture: every vector loop would need its own CPUID guard, its
// own scalar fallback, and its own determinism argument. nn/kernels is
// the one sanctioned home — it compiles the vector TU with the ISA
// flags, publishes a runtime-dispatched function table, and pairs every
// vector kernel with the scalar reference that bounds its rounding
// drift. Everywhere else, reach vector code through that table.
// ---------------------------------------------------------------------------

bool IsIntrinsicIdent(const std::string& text) {
  // _mm_*, _mm256_*, _mm512_* operations and the __m128/__m256/__m512
  // vector types (plus suffixed forms like __m256d).
  if (text.rfind("_mm", 0) == 0) return true;
  return text.rfind("__m128", 0) == 0 || text.rfind("__m256", 0) == 0 ||
         text.rfind("__m512", 0) == 0;
}

// immintrin, x86intrin, emmintrin, avx2intrin, ... — every x86
// intrinsics header ends in "intrin". Angle includes tokenize as bare
// idents on the preproc line; quoted includes arrive as one string.
bool IsIntrinsicHeaderName(const std::string& text) {
  const std::string suffix = "intrin";
  if (text.size() < suffix.size()) return false;
  return text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
         0;
}

void CheckNoRawIntrinsics(Context* ctx, size_t fi) {
  const TokenizedFile& file = ctx->files[fi];
  const std::string& path = file.norm_path;
  if (PathContainsDir(path, "nn/kernels")) return;
  const std::vector<Token>& t = file.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == TokenKind::kIdent && IsIntrinsicIdent(t[i].text)) {
      ctx->Report(fi, t[i].line, "no-raw-intrinsics",
                  "SIMD intrinsic '" + t[i].text +
                      "' outside nn/kernels; add a kernel to the dispatch "
                      "table (nn/kernels/kernel_table.h) instead");
    } else if (t[i].preproc &&
               ((t[i].kind == TokenKind::kIdent &&
                 IsIntrinsicHeaderName(t[i].text)) ||
                (t[i].kind == TokenKind::kString &&
                 t[i].text.size() >= 8 &&
                 t[i].text.compare(t[i].text.size() - 8, 8, "intrin.h") ==
                     0))) {
      ctx->Report(fi, t[i].line, "no-raw-intrinsics",
                  "intrinsics header include outside nn/kernels; vector "
                  "code belongs behind the kernel dispatch table");
    }
  }
}

}  // namespace

void RunFileRules(Context* ctx) {
  for (size_t fi = 0; fi < ctx->files.size(); ++fi) {
    CheckNoRawRand(ctx, fi);
    CheckNoRawThread(ctx, fi);
    CheckNoIostreamInLib(ctx, fi);
    CheckBannedFn(ctx, fi);
    CheckNoDirectPersistence(ctx, fi);
    CheckNoRawNonfinite(ctx, fi);
    CheckNoRawWire(ctx, fi);
    CheckNoRawIntrinsics(ctx, fi);
  }
}

}  // namespace lighttr::lint
