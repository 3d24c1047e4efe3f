// Shared artifact-output policy for the handwritten bench mains.
//
// Every bench emits machine-readable artifacts (BENCH_*.json plus a
// .csv of the human table). Historically they landed silently in the
// process CWD; this helper makes the destination explicit and uniform:
//
//   --output-dir=DIR   highest precedence
//   LIGHTTR_BENCH_DIR  environment fallback
//   "."                default (current directory, as before)
//
// Benches call ParseBenchArgs(argc, argv) once, then WriteArtifact()
// per file; each write prints the resolved path so runs never leave
// mystery files behind. README.md documents the artifact locations.
// JsonArray and JsonSafe shape the rows of every BENCH_*.json.
#ifndef LIGHTTR_BENCH_BENCH_OUTPUT_H_
#define LIGHTTR_BENCH_BENCH_OUTPUT_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/env.h"

namespace lighttr::bench {

struct BenchArgs {
  std::string output_dir = ".";
  /// Set when a flag failed to parse; the bench should print usage and
  /// exit non-zero.
  bool error = false;
  /// Set by --smoke (bench_kernels and bench_adversary honour it
  /// today): run tiny sizes and assert invariants instead of measuring.
  bool smoke = false;
};

/// Environment-only resolution (LIGHTTR_BENCH_DIR or "."), for benches
/// that take no flags of their own.
inline BenchArgs EnvBenchArgs() {
  BenchArgs args;
  const char* env_dir = std::getenv("LIGHTTR_BENCH_DIR");
  if (env_dir != nullptr && env_dir[0] != '\0') args.output_dir = env_dir;
  return args;
}

/// Parses the common bench flags. Unknown flags are errors — benches
/// take no positional arguments.
inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args = EnvBenchArgs();
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* prefix = "--output-dir=";
    if (std::strncmp(arg, prefix, std::strlen(prefix)) == 0) {
      args.output_dir = arg + std::strlen(prefix);
      if (args.output_dir.empty()) args.error = true;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      args.smoke = true;
    } else {
      std::fprintf(stderr, "unknown flag '%s' (expected [--output-dir=DIR]"
                           " [--smoke])\n",
                   arg);
      args.error = true;
    }
  }
  return args;
}

/// `rows` (JSON values) as a JSON array, one row per line: "[\n" and the
/// rows joined by ",\n", then "\n]".
inline std::string JsonArray(const std::vector<std::string>& rows) {
  std::string json = "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    json += rows[i];
    json += (i + 1 < rows.size()) ? ",\n" : "\n";
  }
  return json + "]";
}

/// Keeps emitted JSON valid when a run blows a value up to infinity or
/// NaN, which JSON cannot spell.
inline double JsonSafe(double v) { return std::isfinite(v) ? v : 9.9e307; }

/// Writes `contents` to `<output_dir>/<filename>`, creating the
/// directory if needed, and prints where the artifact landed. Returns
/// false (after printing the error) when the write fails.
inline bool WriteArtifact(const BenchArgs& args, const std::string& filename,
                          const std::string& contents) {
  std::error_code ec;
  std::filesystem::create_directories(args.output_dir, ec);
  const std::string path =
      (std::filesystem::path(args.output_dir) / filename).generic_string();
  const Status status =
      RealFileSystemInstance()->WriteFileAtomic(path, contents);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", path.c_str(),
                 status.ToString().c_str());
    return false;
  }
  std::printf("artifact: %s\n", path.c_str());
  return true;
}

}  // namespace lighttr::bench

#endif  // LIGHTTR_BENCH_BENCH_OUTPUT_H_
