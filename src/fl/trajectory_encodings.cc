#include "fl/trajectory_encodings.h"

#include "common/check.h"

namespace lighttr::fl {

TrajectoryEncodings::TrajectoryEncodings(
    const traj::TrajectoryEncoder* encoder,
    std::span<const traj::IncompleteTrajectory> trajectories)
    : encoder_(encoder),
      trajectories_(trajectories),
      entries_(trajectories.size()) {}

const traj::EncodedTrajectory& TrajectoryEncodings::Entry(size_t i) {
  std::optional<traj::EncodedTrajectory>& entry = entries_[i];
  if (!entry.has_value()) entry = encoder_->Encode(trajectories_[i]);
  return *entry;
}

ForwardResult TrajectoryEncodings::Forward(RecoveryModel* model, size_t i,
                                           bool training, Rng* rng) {
  LIGHTTR_CHECK_LT(i, size());
  if (!Serves(*model)) return model->Forward(trajectories_[i], training, rng);
  return model->ForwardEncoded(Entry(i), trajectories_[i], training, rng);
}

std::vector<roadnet::PointPosition> TrajectoryEncodings::Recover(
    RecoveryModel* model, size_t i) {
  LIGHTTR_CHECK_LT(i, size());
  if (!Serves(*model)) return model->Recover(trajectories_[i]);
  return model->RecoverEncoded(Entry(i), trajectories_[i]);
}

}  // namespace lighttr::fl
