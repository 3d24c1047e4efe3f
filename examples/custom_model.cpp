// Extending the library: implement a custom RecoveryModel against the
// fl::RecoveryModel interface and drop it into the same federated
// harness and metrics used by LightTR and the paper baselines.
//
// The custom model here is a deliberately simple "route-prior" model:
// it predicts the route-interpolated position directly (the constraint
// mask's center) and learns only a per-step ratio correction. It needs
// no segment classifier at all, which makes it tiny — a useful lower
// bound to compare learned models against.
#include <cstdio>

#include "common/table_printer.h"
#include "eval/harness.h"
#include "fl/federated_trainer.h"
#include "nn/layers.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace {

using namespace lighttr;

class RoutePriorModel : public fl::RecoveryModel {
 public:
  RoutePriorModel(const traj::TrajectoryEncoder* encoder, Rng* rng)
      : encoder_(encoder),
        correction_(traj::TrajectoryEncoder::kFeatureDim, 1, "correction",
                    &params_, rng) {}

  const std::string& name() const override { return name_; }
  nn::ParameterSet& params() override { return params_; }

  // Exposing the encoder lets the training loops hand the model each
  // trajectory's encoding, built once per job, through ForwardEncoded
  // and RecoverEncoded. A model that implements only Forward and Recover
  // still trains; it just encodes on every call.
  const traj::TrajectoryEncoder* encoder() const override { return encoder_; }

  fl::ForwardResult Forward(const traj::IncompleteTrajectory& trajectory,
                            bool training, Rng* rng) override {
    return ForwardEncoded(encoder_->Encode(trajectory), trajectory, training,
                          rng);
  }

  std::vector<roadnet::PointPosition> Recover(
      const traj::IncompleteTrajectory& trajectory) override {
    return RecoverEncoded(encoder_->Encode(trajectory), trajectory);
  }

  fl::ForwardResult ForwardEncoded(
      const traj::EncodedTrajectory& encoded,
      const traj::IncompleteTrajectory& /*trajectory*/, bool /*training*/,
      Rng* /*rng*/) override {
    const std::vector<size_t>& missing = encoded.missing;
    fl::ForwardResult result;
    if (missing.empty()) {
      result.loss = nn::Tensor::Constant(nn::Matrix::Zeros(1, 1));
      return result;
    }
    // Learn a ratio offset on top of the route prior's ratio.
    const nn::Tensor inputs = nn::Tensor::Constant(encoded.inputs);
    std::vector<nn::Tensor> rows;
    nn::Matrix target(missing.size(), 1);
    for (size_t i = 0; i < missing.size(); ++i) {
      rows.push_back(nn::SliceRows(inputs, missing[i], 1));
      target(i, 0) =
          static_cast<nn::Scalar>(encoded.targets[missing[i]].ratio);
    }
    const nn::Tensor pred =
        nn::Sigmoid(correction_.Forward(nn::ConcatRows(rows)));
    result.loss = nn::MseLoss(pred, target);
    return result;
  }

  std::vector<roadnet::PointPosition> RecoverEncoded(
      const traj::EncodedTrajectory& encoded,
      const traj::IncompleteTrajectory& trajectory) override {
    nn::NoGradScope no_grad;
    const nn::Tensor inputs = nn::Tensor::Constant(encoded.inputs);
    std::vector<roadnet::PointPosition> out(trajectory.size());
    for (size_t t = 0; t < trajectory.size(); ++t) {
      if (trajectory.observed[t]) {
        out[t] = trajectory.ground_truth.points[t].position;
        continue;
      }
      // Segment straight from the route prior; ratio from the learned head.
      auto prior = encoder_->RouteInterpolatedPosition(trajectory, t);
      const nn::Tensor ratio = nn::Sigmoid(
          correction_.Forward(nn::SliceRows(inputs, t, 1)));
      if (prior.has_value()) {
        out[t] = roadnet::PointPosition{prior->segment,
                                        ratio.value()(0, 0)};
      } else {
        out[t] = roadnet::PointPosition{0, ratio.value()(0, 0)};
      }
    }
    return out;
  }

 private:
  std::string name_ = "RoutePrior";
  const traj::TrajectoryEncoder* encoder_;
  nn::ParameterSet params_;
  nn::Dense correction_;
};

}  // namespace

int main() {
  eval::ExperimentEnv env(/*rows=*/8, /*cols=*/8, /*seed=*/5);
  traj::WorkloadProfile profile = traj::GeolifeLikeProfile();
  profile.trajectories_per_client = 14;
  traj::FederatedWorkloadOptions workload;
  workload.num_clients = 4;
  workload.keep_ratio = 0.125;
  const auto clients = env.MakeWorkload(profile, workload, /*seed=*/6);
  const auto test = eval::ExperimentEnv::PooledTestSet(clients, 24);

  // Train the custom model with the very same federated harness.
  fl::FederatedTrainerOptions fed;
  fed.rounds = 4;
  fed.local_epochs = 2;
  fed.learning_rate = 3e-3;
  fl::FederatedTrainer trainer(
      [&env](Rng* rng) -> std::unique_ptr<fl::RecoveryModel> {
        return std::make_unique<RoutePriorModel>(&env.encoder(), rng);
      },
      &clients, fed);
  trainer.Run();
  const eval::RecoveryMetrics custom =
      eval::EvaluateRecovery(trainer.global_model(), env.network(), test);

  // And LightTR on the same data for reference.
  eval::MethodRunOptions options;
  options.fed = fed;
  const eval::MethodResult light = eval::RunFederatedMethod(
      env, baselines::ModelKind::kLightTr, clients, options);

  lighttr::TablePrinter table(
      {"Model", "Params", "Recall", "MAE(km)", "RMSE(km)"});
  table.AddRow({"RoutePrior (custom)",
                std::to_string(trainer.global_model()->params().NumScalars()),
                lighttr::TablePrinter::Fmt(custom.recall),
                lighttr::TablePrinter::Fmt(custom.mae_km),
                lighttr::TablePrinter::Fmt(custom.rmse_km)});
  table.AddRow({"LightTR", "(see fig5 bench)",
                lighttr::TablePrinter::Fmt(light.metrics.recall),
                lighttr::TablePrinter::Fmt(light.metrics.mae_km),
                lighttr::TablePrinter::Fmt(light.metrics.rmse_km)});
  std::printf("%s", table.ToString().c_str());
  return 0;
}
