// The model interface every trajectory-recovery network implements.
//
// LightTR's LTE model and all baselines (FC, RNN, MTrajRec, RNTrajRec)
// expose the same surface so a single federated harness trains and
// evaluates any of them.
#ifndef LIGHTTR_FL_RECOVERY_MODEL_H_
#define LIGHTTR_FL_RECOVERY_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/parameter.h"
#include "nn/tensor.h"
#include "roadnet/road_network.h"
#include "traj/encoding.h"
#include "traj/trajectory.h"

namespace lighttr::fl {

/// Result of a differentiable forward pass over one trajectory.
struct ForwardResult {
  /// Task loss L_local (Eq. 13): cross-entropy + mu * MSE, 1x1 tensor.
  nn::Tensor loss;
  /// Hidden representation over the missing steps ([n_missing, hidden]),
  /// used as the distillation signal of Eq. 16. Every model in the zoo
  /// defines it; it is undefined only when no step is missing.
  nn::Tensor representation;
};

/// A trainable trajectory-recovery network.
class RecoveryModel {
 public:
  virtual ~RecoveryModel() = default;

  /// Human-readable name ("LightTR", "FC+FL", ...).
  virtual const std::string& name() const = 0;

  /// The trainable parameters (FedAvg exchanges these).
  virtual nn::ParameterSet& params() = 0;

  /// Builds the loss graph for one trajectory. `training` enables
  /// dropout; `rng` may be null when !training.
  virtual ForwardResult Forward(const traj::IncompleteTrajectory& trajectory,
                                bool training, Rng* rng) = 0;

  /// Recovers the positions of all points (observed steps are returned
  /// as-is; missing steps are predicted). Runs grad-free.
  virtual std::vector<roadnet::PointPosition> Recover(
      const traj::IncompleteTrajectory& trajectory) = 0;

  /// The encoder whose output ForwardEncoded and RecoverEncoded read, or
  /// null (the default) for a model that only takes trajectories. A
  /// training loop that holds `encoder()->Encode(trajectory)` calls the
  /// *Encoded methods instead of encoding the trajectory again.
  virtual const traj::TrajectoryEncoder* encoder() const { return nullptr; }

  /// Forward over `encoded`, which is `encoder()->Encode(trajectory)`;
  /// bitwise equal to Forward(trajectory, training, rng). The default
  /// ignores `encoded` and calls Forward.
  virtual ForwardResult ForwardEncoded(
      const traj::EncodedTrajectory& /*encoded*/,
      const traj::IncompleteTrajectory& trajectory, bool training, Rng* rng) {
    return Forward(trajectory, training, rng);
  }

  /// Recover over `encoded`, which is `encoder()->Encode(trajectory)`;
  /// equal to Recover(trajectory). The default ignores `encoded` and
  /// calls Recover.
  virtual std::vector<roadnet::PointPosition> RecoverEncoded(
      const traj::EncodedTrajectory& /*encoded*/,
      const traj::IncompleteTrajectory& trajectory) {
    return Recover(trajectory);
  }
};

/// Creates identical-architecture model replicas (server + each client).
/// Implementations must build parameters in a deterministic order so
/// that flattened parameter vectors are interchangeable across replicas.
using ModelFactory = std::function<std::unique_ptr<RecoveryModel>(Rng* rng)>;

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_RECOVERY_MODEL_H_
