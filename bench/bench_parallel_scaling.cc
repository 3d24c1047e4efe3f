// Parallel scaling of the execution substrate (thread pool + blocked
// GEMM + concurrent per-round client training), swept over thread
// counts {1, 2, 4, 8}.
//
// Two sections:
//  1. GEMM kernels: the seed's naive i-k-j triple loop (kept here as a
//     local reference copy) vs the cache-blocked kernel at one thread
//     (pure kernel speedup) and at 2/4/8 threads (row-split scaling).
//  2. Federated rounds: one LightTR experiment per thread count; the
//     per-round client loop is where the trainer's pool fans out.
//
// Reports speedup vs 1 thread, parallel efficiency (speedup / threads),
// and GFLOP/s for the GEMM section; emits both a human table and
// BENCH_parallel_scaling.json. On hardware with fewer physical cores
// than the swept width, oversubscribed rows mainly demonstrate that
// determinism and correctness hold (efficiency will sit near 1/threads).
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_output.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "eval/harness.h"
#include "nn/flops.h"
#include "nn/kernels/kernels.h"
#include "nn/matrix.h"

namespace {

using namespace lighttr;

// The pre-blocking kernel, verbatim: the seed's i-k-j triple loop with
// the zero-skip. The ">= 1.5x single-thread" acceptance bar for the
// blocked kernel is measured against this.
nn::Matrix NaiveMatMul(const nn::Matrix& a, const nn::Matrix& b) {
  nn::Matrix c(a.rows(), b.cols());
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  for (size_t i = 0; i < m; ++i) {
    nn::Scalar* crow = c.data() + i * n;
    const nn::Scalar* arow = a.data() + i * k;
    for (size_t p = 0; p < k; ++p) {
      const nn::Scalar av = arow[p];
      if (av == nn::Scalar{0}) continue;
      const nn::Scalar* brow = b.data() + p * n;
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

double BestOfRuns(int runs, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < runs; ++r) {
    Stopwatch watch;
    fn();
    const double elapsed = watch.ElapsedSeconds();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

std::string JsonRow(const std::string& section, int threads, double seconds,
                    double speedup, double efficiency, double gflops) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "  {\"section\": \"%s\", \"threads\": %d, \"seconds\": %.6f, "
                "\"speedup\": %.3f, \"efficiency\": %.3f, \"gflops\": %.3f}",
                section.c_str(), threads, seconds, speedup, efficiency,
                gflops);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  if (args.error) return 2;
  const eval::ExperimentScale scale = eval::ExperimentScale::FromEnv();
  const std::vector<int> widths = {1, 2, 4, 8};
  std::printf("Parallel scaling sweep (scale=%s, hardware default=%d)\n",
              scale.name.c_str(), DefaultThreadCount());

  TablePrinter table({"Section", "Threads", "Seconds", "Speedup",
                      "Efficiency", "GFLOP/s"});
  std::vector<std::string> json_rows;

  // ---- Section 1: GEMM. Large enough to clear both the blocked-path
  // and the row-parallel thresholds.
  const size_t dim = 384;
  const double gemm_flops = 2.0 * static_cast<double>(dim) *
                            static_cast<double>(dim) *
                            static_cast<double>(dim);
  Rng rng(scale.seed + 11);
  const nn::Matrix a = nn::Matrix::RandomUniform(dim, dim, 1.0, &rng);
  const nn::Matrix b = nn::Matrix::RandomUniform(dim, dim, 1.0, &rng);
  const int gemm_runs = 3;

  const double naive_s =
      BestOfRuns(gemm_runs, [&] { (void)NaiveMatMul(a, b); });
  table.AddRow({"gemm-naive", "1", TablePrinter::Fmt(naive_s, 4),
                TablePrinter::Fmt(1.0, 2), TablePrinter::Fmt(1.0, 2),
                TablePrinter::Fmt(gemm_flops / naive_s / 1e9, 2)});
  json_rows.push_back(
      JsonRow("gemm-naive", 1, naive_s, 1.0, 1.0, gemm_flops / naive_s / 1e9));

  double gemm_serial_s = 0.0;
  for (int threads : widths) {
    SetGlobalThreadCount(threads);
    const double blocked_s =
        BestOfRuns(gemm_runs, [&] { (void)nn::MatMulValues(a, b); });
    if (threads == 1) gemm_serial_s = blocked_s;
    const double speedup = gemm_serial_s / blocked_s;
    table.AddRow({"gemm-blocked", std::to_string(threads),
                  TablePrinter::Fmt(blocked_s, 4),
                  TablePrinter::Fmt(speedup, 2),
                  TablePrinter::Fmt(speedup / threads, 2),
                  TablePrinter::Fmt(gemm_flops / blocked_s / 1e9, 2)});
    json_rows.push_back(JsonRow("gemm-blocked", threads, blocked_s, speedup,
                                speedup / threads,
                                gemm_flops / blocked_s / 1e9));
    std::printf("gemm-blocked threads=%d: %.4fs (naive %.4fs, kernel "
                "speedup vs naive %.2fx)\n",
                threads, blocked_s, naive_s, naive_s / blocked_s);
    std::fflush(stdout);
  }
  SetGlobalThreadCount(1);

  // ---- Section 2: federated rounds. The trainer's own pool fans the
  // per-round client loop out; the GEMMs inside each client task run
  // serially (nested-section rule), so this isolates round-level
  // scaling.
  auto env = eval::ExperimentEnv::FromScale(scale);
  const traj::WorkloadProfile profile =
      eval::ScaledProfile(traj::TdriveLikeProfile(), scale);
  const auto clients = env->MakeWorkload(
      profile, eval::DefaultWorkloadOptions(scale, 0.125), scale.seed + 5);

  double fed_serial_s = 0.0;
  double fed_reference_recall = 0.0;
  for (int threads : widths) {
    eval::MethodRunOptions options = eval::DefaultRunOptions(scale);
    options.fed.threads = threads;
    const nn::ScopedFlopCount flop_scope;
    Stopwatch watch;
    const eval::MethodResult result = eval::RunFederatedMethod(
        *env, baselines::ModelKind::kLightTr, clients, options);
    const double seconds = watch.ElapsedSeconds();
    const double run_gflops =
        static_cast<double>(flop_scope.Elapsed()) / seconds / 1e9;
    if (threads == 1) {
      fed_serial_s = seconds;
      fed_reference_recall = result.metrics.recall;
    } else if (result.metrics.recall != fed_reference_recall) {
      // Determinism is the contract; a mismatch invalidates the sweep.
      std::printf("ERROR: recall diverged at threads=%d (%.12f vs %.12f)\n",
                  threads, result.metrics.recall, fed_reference_recall);
      return 1;
    }
    const double speedup = fed_serial_s / seconds;
    table.AddRow({"fed-round", std::to_string(threads),
                  TablePrinter::Fmt(seconds, 3),
                  TablePrinter::Fmt(speedup, 2),
                  TablePrinter::Fmt(speedup / threads, 2),
                  TablePrinter::Fmt(run_gflops, 2)});
    json_rows.push_back(JsonRow("fed-round", threads, seconds, speedup,
                                speedup / threads, run_gflops));
    std::printf("fed-round threads=%d: %.3fs recall=%.4f\n", threads, seconds,
                result.metrics.recall);
    std::fflush(stdout);
  }

  std::printf("%s", table.ToString().c_str());
  const std::string json = std::string("{\"kernel\": \"") +
                           nn::KernelModeName(nn::ActiveKernelMode()) +
                           "\", \"rows\": " + bench::JsonArray(json_rows) +
                           "}\n";
  if (!bench::WriteArtifact(args, "BENCH_parallel_scaling.json", json) ||
      !bench::WriteArtifact(args, "bench_parallel_scaling.csv",
                            table.ToCsv())) {
    return 1;
  }
  return 0;
}
