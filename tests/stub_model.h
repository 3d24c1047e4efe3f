// The stub RecoveryModel the trainer-level tests share: one row of
// weights trained by MSE toward a target. By default the target is the
// client's driver id, so clients disagree and FedAvg lands on their
// mean; a fixed target makes honest clients agree, which a Byzantine
// defense needs to have something to defend. Runs in microseconds, so
// a test can afford many rounds, seeds and thread widths. MakeClients
// builds the small federation those tests train it on, and
// TurncoatUpdate is the hostile client the healing tests fight.
#ifndef LIGHTTR_TESTS_STUB_MODEL_H_
#define LIGHTTR_TESTS_STUB_MODEL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fl/federated_trainer.h"
#include "fl/recovery_model.h"
#include "nn/losses.h"
#include "nn/parameter.h"
#include "roadnet/generators.h"
#include "traj/workload.h"

namespace lighttr::test_util {

class StubModel : public fl::RecoveryModel {
 public:
  /// `rng` draws each initial weight from U(-1, 1) (null: all zero);
  /// `target`, when set, replaces the per-client driver-id target.
  explicit StubModel(Rng* rng, size_t width = 1,
                     std::optional<double> target = std::nullopt)
      : target_(target) {
    nn::Matrix w(1, width);
    for (size_t i = 0; i < width; ++i) {
      w(0, i) = rng != nullptr ? rng->Uniform(-1, 1) : 0.0;
    }
    w_ = nn::Tensor::Variable(w);
    params_.Register("w", w_);
  }

  const std::string& name() const override { return name_; }
  nn::ParameterSet& params() override { return params_; }

  fl::ForwardResult Forward(const traj::IncompleteTrajectory& trajectory,
                            bool /*training*/, Rng* /*rng*/) override {
    const double target = target_.value_or(
        static_cast<double>(trajectory.ground_truth.driver_id));
    fl::ForwardResult result;
    result.loss = nn::MseLoss(
        w_, nn::Matrix::Full(1, w_.value().cols(),
                             static_cast<nn::Scalar>(target)));
    result.representation = w_;
    return result;
  }

  /// Observed points verbatim, segment 0 everywhere else.
  std::vector<roadnet::PointPosition> Recover(
      const traj::IncompleteTrajectory& trajectory) override {
    std::vector<roadnet::PointPosition> out(trajectory.size());
    for (size_t t = 0; t < trajectory.size(); ++t) {
      out[t] = trajectory.observed[t]
                   ? trajectory.ground_truth.points[t].position
                   : roadnet::PointPosition{0, 0.0};
    }
    return out;
  }

  double weight() const { return w_.value()(0, 0); }

 private:
  std::optional<double> target_;
  std::string name_ = "Stub";
  nn::ParameterSet params_;
  nn::Tensor w_;
};

/// A hostile client: behaves until it has seen `clean_updates` rounds,
/// then uploads a huge (finite) weight every round after. With screening
/// off and plain-mean aggregation this blows up the global model; the
/// health monitor has banked enough history by then to catch it.
class TurncoatUpdate : public fl::LocalUpdateStrategy {
 public:
  explicit TurncoatUpdate(int hostile_client, int clean_updates)
      : hostile_client_(hostile_client), clean_updates_(clean_updates) {}

  double Update(int client_index, fl::RecoveryModel* model,
                nn::Optimizer* optimizer, const traj::ClientDataset& data,
                int epochs, Rng* rng) override {
    const double loss =
        plain_.Update(client_index, model, optimizer, data, epochs, rng);
    if (client_index == hostile_client_ && ++updates_ > clean_updates_) {
      model->params().AssignFlat(
          std::vector<nn::Scalar>(model->params().Flatten().size(),
                                  nn::Scalar{1e8}));
    }
    return loss;
  }

 private:
  fl::PlainLocalUpdate plain_;
  int hostile_client_;
  int clean_updates_;
  int updates_ = 0;  // serial runs only (options.threads = 1)
};

/// A fl::ModelFactory for the default one-weight stub.
inline std::unique_ptr<fl::RecoveryModel> MakeStub(Rng* rng) {
  return std::make_unique<StubModel>(rng);
}

/// `n` Tdrive-like clients of `per_client` trajectories each on a 6x6
/// city. The city and the workload both come from `seed`, so the same
/// arguments give the same clients whichever test asks first.
inline std::vector<traj::ClientDataset> MakeClients(int n, uint64_t seed,
                                                    int per_client = 6) {
  Rng rng(seed);
  roadnet::CityGridOptions grid;
  grid.rows = 6;
  grid.cols = 6;
  const roadnet::RoadNetwork net = roadnet::GenerateCityGrid(grid, &rng);
  traj::WorkloadProfile profile = traj::TdriveLikeProfile();
  profile.trajectories_per_client = per_client;
  traj::FederatedWorkloadOptions workload;
  workload.num_clients = n;
  return traj::GenerateFederatedWorkload(net, profile, workload, &rng);
}

}  // namespace lighttr::test_util

#endif  // LIGHTTR_TESTS_STUB_MODEL_H_
