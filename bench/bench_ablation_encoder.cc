// Ablation of the reproduction-critical encoder decisions documented in
// DESIGN.md Sec. 5: route-based anchor interpolation, the direction-aware
// mask term, and the route-prior bonus. Each row disables one mechanism
// and retrains LightTR on the same workload (keep ratio 12.5%).
//
// Expected: the full encoder is best; removing the route prior or the
// direction term costs several recall points; shrinking the adaptive
// radius back to a fixed one costs the most at long anchor gaps.
#include <cstdio>

#include "bench/bench_output.h"
#include "common/table_printer.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "fl/federated_trainer.h"
#include "lighttr/lte_model.h"
#include "roadnet/generators.h"
#include "roadnet/segment_index.h"

namespace {

using namespace lighttr;

eval::RecoveryMetrics RunWithEncoder(
    const roadnet::RoadNetwork& network, const roadnet::SegmentIndex& index,
    const traj::EncoderOptions& encoder_options,
    const std::vector<traj::ClientDataset>& clients,
    const std::vector<traj::IncompleteTrajectory>& test,
    const eval::ExperimentScale& scale) {
  const traj::TrajectoryEncoder encoder(network, index, encoder_options);
  const traj::TrajectoryEncoder* encoder_ptr = &encoder;
  fl::FederatedTrainerOptions fed;
  fed.rounds = scale.rounds;
  fed.local_epochs = scale.local_epochs;
  fed.learning_rate = 3e-3;
  fed.seed = scale.seed;
  fl::FederatedTrainer trainer(
      [encoder_ptr](Rng* rng) -> std::unique_ptr<fl::RecoveryModel> {
        return std::make_unique<core::LteModel>(encoder_ptr, rng);
      },
      &clients, fed);
  trainer.Run();
  return eval::EvaluateRecovery(trainer.global_model(), network, test);
}

}  // namespace

int main() {
  const eval::ExperimentScale scale = eval::ExperimentScale::FromEnv();
  std::printf("Encoder-design ablation (scale=%s)\n", scale.name.c_str());

  auto env = eval::ExperimentEnv::FromScale(scale);
  const traj::WorkloadProfile profile =
      eval::ScaledProfile(traj::GeolifeLikeProfile(), scale);
  const auto clients = env->MakeWorkload(
      profile, eval::DefaultWorkloadOptions(scale, 0.125), scale.seed + 21);
  const auto test = eval::ExperimentEnv::PooledTestSet(
      clients, scale.max_test_trajectories);

  struct Variant {
    const char* name;
    traj::EncoderOptions options;
  };
  std::vector<Variant> variants;
  variants.push_back({"full encoder", traj::EncoderOptions{}});
  {
    traj::EncoderOptions options;
    options.route_prior_bonus = 0.0;
    variants.push_back({"w/o route-prior bonus", options});
  }
  {
    traj::EncoderOptions options;
    options.direction_weight = 0.0;
    variants.push_back({"w/o direction term", options});
  }
  {
    traj::EncoderOptions options;
    options.radius_gap_factor = 0.0;   // fixed radius
    options.gamma_gap_factor = 0.0;    // fixed mask scale
    variants.push_back({"fixed radius/scale", options});
  }
  {
    traj::EncoderOptions options;
    options.route_prior_bonus = 0.0;
    options.direction_weight = 0.0;
    options.radius_gap_factor = 0.0;
    options.gamma_gap_factor = 0.0;
    variants.push_back({"distance-only mask", options});
  }

  TablePrinter table({"Encoder variant", "Recall", "Precision", "MAE(km)",
                      "RMSE(km)"});
  for (const Variant& variant : variants) {
    const eval::RecoveryMetrics metrics = RunWithEncoder(
        env->network(), env->index(), variant.options, clients, test, scale);
    table.AddRow({variant.name, TablePrinter::Fmt(metrics.recall),
                  TablePrinter::Fmt(metrics.precision),
                  TablePrinter::Fmt(metrics.mae_km),
                  TablePrinter::Fmt(metrics.rmse_km)});
    std::printf("done: %s\n", variant.name);
    std::fflush(stdout);
  }
  std::printf("%s", table.ToString().c_str());
  (void)lighttr::bench::WriteArtifact(
      lighttr::bench::EnvBenchArgs(), "bench_ablation_encoder.csv", table.ToCsv());
  return 0;
}
