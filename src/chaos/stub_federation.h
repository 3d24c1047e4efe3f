// The stub federation: the one-weight-row RecoveryModel, the small
// Tdrive-like federation it trains on, and the hostile cohort that
// poisons it. The chaos campaign runs every scenario on it, and the
// trainer-level tests and the self-healing bench share it. StubModel is
// trained by MSE toward a target. By default the target is the client's
// driver id, so clients disagree and FedAvg lands on their mean; a fixed
// target makes honest clients agree, which a Byzantine defense needs to
// have something to defend. A round runs in microseconds, so a caller
// can afford many rounds, seeds, thread widths and scenarios.
#ifndef LIGHTTR_CHAOS_STUB_FEDERATION_H_
#define LIGHTTR_CHAOS_STUB_FEDERATION_H_

#include <cstdint>
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

namespace lighttr::chaos {

/// One row of `width` weights trained by MSE toward its target. Its
/// validation accuracy is the share of missing steps on segment 0, since
/// it recovers every missing step there.
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

/// A hostile cohort: clients [0, num_hostile) train honestly until each
/// has trained `clean_updates` times, then upload a constant `poison` in
/// every weight on each update after. Finite poison passes the
/// non-finite screen; with screening off and plain-mean aggregation it
/// blows up the global model, and the health monitor has banked enough
/// history by then to catch it. Each client's count is its own and a
/// client trains at most once per round, so the schedule is the same at
/// every thread width.
class HostileCohortUpdate : public fl::LocalUpdateStrategy {
 public:
  HostileCohortUpdate(int num_hostile, int clean_updates, nn::Scalar poison)
      : updates_(static_cast<size_t>(num_hostile), 0),
        clean_updates_(clean_updates),
        poison_(poison) {}

  double Update(int client_index, fl::RecoveryModel* model,
                nn::Optimizer* optimizer, const traj::ClientDataset& data,
                int epochs, Rng* rng) override {
    const double loss =
        plain_.Update(client_index, model, optimizer, data, epochs, rng);
    if (static_cast<size_t>(client_index) < updates_.size() &&
        ++updates_[static_cast<size_t>(client_index)] > clean_updates_) {
      model->params().AssignFlat(std::vector<nn::Scalar>(
          model->params().Flatten().size(), poison_));
    }
    return loss;
  }

 private:
  fl::PlainLocalUpdate plain_;
  std::vector<int> updates_;  // updates trained so far, per hostile client
  int clean_updates_;
  nn::Scalar poison_;
};

/// A fl::ModelFactory for the default one-weight stub.
inline std::unique_ptr<fl::RecoveryModel> MakeStub(Rng* rng) {
  return std::make_unique<StubModel>(rng);
}

/// `n` Tdrive-like clients of `per_client` trajectories each on a 6x6
/// city. The city and the workload both come from `seed`, so the same
/// arguments give the same clients whoever asks first. Nothing is
/// cached: each call builds its own.
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

}  // namespace lighttr::chaos

#endif  // LIGHTTR_CHAOS_STUB_FEDERATION_H_
