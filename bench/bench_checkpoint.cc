// Durability cost: (1) microbenchmarks of the parameter blob codec
// (nn::ParameterSet::Serialize / Deserialize) at the wire's float32
// and the snapshot's float64, (2) the clean-path cost of the FileSystem
// (common/env) indirection versus a hand-inlined save of the float64
// blob, and (3) end-to-end per-round overhead of crash-safe federated
// training (a snapshot every round) versus the same run with
// durability off.
//
// Expected shape: encode/decode run at memory-ish bandwidth, and the
// per-round durability overhead stays well under 10% of the round
// wall-time (the acceptance bar for this subsystem).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "eval/harness.h"
#include "nn/parameter.h"

namespace {

using namespace lighttr;

// A parameter set sized like the paper's lightweight recovery model
// (order 10^5 weights).
nn::ParameterSet MakeParams(Rng* rng) {
  nn::ParameterSet params;
  auto add = [&](const char* name, size_t rows, size_t cols) {
    nn::Matrix m(rows, cols);
    for (size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = static_cast<nn::Scalar>(rng->Normal(0.0, 0.05));
    }
    params.Register(name, nn::Tensor::Variable(m));
  };
  add("encoder.embed", 512, 64);
  add("encoder.w", 128, 128);
  add("encoder.u", 128, 128);
  add("decoder.w", 128, 128);
  add("decoder.out", 128, 512);
  return params;
}

double MbPerSec(size_t bytes, double seconds, int reps) {
  return static_cast<double>(bytes) * reps / (seconds * 1024.0 * 1024.0);
}

void BenchCodec() {
  Rng rng(17);
  const nn::ParameterSet params = MakeParams(&rng);
  const int reps = 50;
  TablePrinter table({"Op", "Bytes", "ms/op", "MiB/s"});

  for (nn::BlobPrecision precision :
       {nn::BlobPrecision::kFloat32, nn::BlobPrecision::kFloat64}) {
    const char* dname =
        precision == nn::BlobPrecision::kFloat32 ? "f32" : "f64";
    const std::string blob = params.Serialize(precision);

    Stopwatch watch;
    for (int r = 0; r < reps; ++r) {
      const std::string out = params.Serialize(precision);
      LIGHTTR_CHECK_EQ(out.size(), blob.size());
    }
    double s = watch.ElapsedSeconds();
    table.AddRow({std::string("serialize ") + dname,
                  std::to_string(blob.size()),
                  TablePrinter::Fmt(s / reps * 1e3, 3),
                  TablePrinter::Fmt(MbPerSec(blob.size(), s, reps), 0)});

    Rng parse_rng(18);
    nn::ParameterSet target = MakeParams(&parse_rng);
    watch.Reset();
    for (int r = 0; r < reps; ++r) {
      LIGHTTR_CHECK_OK(target.Deserialize(blob));
    }
    s = watch.ElapsedSeconds();
    table.AddRow({std::string("deserialize ") + dname,
                  std::to_string(blob.size()),
                  TablePrinter::Fmt(s / reps * 1e3, 3),
                  TablePrinter::Fmt(MbPerSec(blob.size(), s, reps), 0)});
  }
  std::printf("Parameter blob codec:\n%s\n", table.ToString().c_str());
}

// The same atomic save FileSystem::WriteFileAtomic performs,
// hand-inlined with raw stream + rename calls (benches may touch raw
// file APIs; src/ may not). This is the no-indirection baseline for
// BenchEnvDispatch.
Status DirectWriteAtomic(const std::string& path, const std::string& blob) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) return Status::IoError("cannot open " + tmp);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.close();
  if (!out) return Status::IoError("short write to " + tmp);
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IoError("rename failed: " + ec.message());
  return Status::Ok();
}

// Measures what routing persistence through the FileSystem interface
// costs on the clean (fault-free, real-disk) path: the acceptance bar
// for the Env refactor is <= 2% over the hand-inlined save. Both paths
// serialize the float64 blob on every save, as a snapshot does.
void BenchEnvDispatch() {
  Rng rng(19);
  const nn::ParameterSet params = MakeParams(&rng);
  const int reps = 60;
  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string direct_path = dir + "/bench_ckpt_direct.bin";
  const std::string env_path = dir + "/bench_ckpt_env.bin";
  FileSystem* fs = RealFileSystemInstance();
  const auto direct_save = [&] {
    return DirectWriteAtomic(direct_path,
                             params.Serialize(nn::BlobPrecision::kFloat64));
  };
  const auto env_save = [&] {
    return fs->WriteFileAtomic(env_path,
                               params.Serialize(nn::BlobPrecision::kFloat64));
  };

  // Warm both paths (page cache, allocator) before timing.
  LIGHTTR_CHECK_OK(direct_save());
  LIGHTTR_CHECK_OK(env_save());

  Stopwatch watch;
  for (int r = 0; r < reps; ++r) LIGHTTR_CHECK_OK(direct_save());
  const double direct_s = watch.ElapsedSeconds();

  watch.Reset();
  for (int r = 0; r < reps; ++r) LIGHTTR_CHECK_OK(env_save());
  const double env_s = watch.ElapsedSeconds();
  std::filesystem::remove(direct_path);
  std::filesystem::remove(env_path);

  const double overhead_pct = (env_s - direct_s) / direct_s * 100.0;
  TablePrinter table({"Save path", "ms/op"});
  table.AddRow({"raw stream + rename (inlined)",
                TablePrinter::Fmt(direct_s / reps * 1e3, 3)});
  table.AddRow({"FileSystem dispatch (common/env)",
                TablePrinter::Fmt(env_s / reps * 1e3, 3)});
  std::printf("Env dispatch (f64 atomic save):\n%s\n",
              table.ToString().c_str());
  std::printf("Env indirection clean-path overhead: %.2f%% (target <= 2%%)\n\n",
              overhead_pct);
}

void BenchEndToEnd(const eval::ExperimentScale& scale) {
  auto env = eval::ExperimentEnv::FromScale(scale);
  const traj::WorkloadProfile profile =
      eval::ScaledProfile(traj::TdriveLikeProfile(), scale);
  const auto clients = env->MakeWorkload(
      profile, eval::DefaultWorkloadOptions(scale, 0.125), scale.seed + 9);

  eval::MethodRunOptions plain = eval::DefaultRunOptions(scale);
  const eval::MethodResult base = eval::RunFederatedMethod(
      *env, baselines::ModelKind::kLightTr, clients, plain);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "bench_checkpoint_run")
          .string();
  std::filesystem::remove_all(dir);
  eval::MethodRunOptions durable = eval::DefaultRunOptions(scale);
  durable.fed.durability.dir = dir;
  durable.fed.durability.snapshot_every = 1;  // worst case: every round
  const eval::MethodResult ckpt = eval::RunFederatedMethod(
      *env, baselines::ModelKind::kLightTr, clients, durable);
  std::filesystem::remove_all(dir);

  const int rounds = static_cast<int>(base.run.history.size());
  const double per_round_base = base.wall_seconds / rounds;
  const double per_round_ckpt = ckpt.wall_seconds / rounds;
  const double overhead = per_round_ckpt - per_round_base;
  const double overhead_pct = overhead / per_round_base * 100.0;

  TablePrinter table({"Run", "Rounds", "Wall(s)", "s/round"});
  table.AddRow({"no durability", std::to_string(rounds),
                TablePrinter::Fmt(base.wall_seconds, 2),
                TablePrinter::Fmt(per_round_base, 4)});
  table.AddRow({"snapshot every round", std::to_string(rounds),
                TablePrinter::Fmt(ckpt.wall_seconds, 2),
                TablePrinter::Fmt(per_round_ckpt, 4)});
  std::printf("End-to-end (LightTR, scale=%s):\n%s\n", scale.name.c_str(),
              table.ToString().c_str());
  std::printf("Per-round checkpoint overhead: %.4f s (%.1f%% of round "
              "wall-time; target < 10%%)\n",
              overhead, overhead_pct);
}

}  // namespace

int main() {
  const eval::ExperimentScale scale = eval::ExperimentScale::FromEnv();
  BenchCodec();
  BenchEnvDispatch();
  BenchEndToEnd(scale);
  return 0;
}
