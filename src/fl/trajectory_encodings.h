// Encodings a training loop reuses across its passes over the same data.
//
// TrajectoryEncoder::Encode is a pure function of (trajectory, encoder),
// yet every epoch, validation pass and teacher pass of a job would run it
// again through RecoveryModel::Forward / Recover. A TrajectoryEncodings
// holds each trajectory's encoding for one job and hands it to the
// model's ForwardEncoded / RecoverEncoded instead.
#ifndef LIGHTTR_FL_TRAJECTORY_ENCODINGS_H_
#define LIGHTTR_FL_TRAJECTORY_ENCODINGS_H_

#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "fl/recovery_model.h"
#include "traj/encoding.h"
#include "traj/trajectory.h"
#include "traj/workload.h"

namespace lighttr::fl {

/// The encodings of a run of trajectories under one encoder, looked up
/// by position: entry i is `encoder->Encode(trajectories[i])`, built on
/// first use and kept for the object's lifetime. The owner holds it for
/// exactly one job (one training loop, one validation pool); nothing
/// caches encodings across jobs or on the serving path.
///
/// Not synchronized: one task at a time may use an object. Different
/// objects may be used concurrently.
class TrajectoryEncodings {
 public:
  /// `trajectories` must outlive this object. A null `encoder` serves no
  /// model: every call then takes the model's trajectory method.
  TrajectoryEncodings(const traj::TrajectoryEncoder* encoder,
                      std::span<const traj::IncompleteTrajectory> trajectories);

  size_t size() const { return trajectories_.size(); }

  /// The encoded trajectories, in entry order.
  std::span<const traj::IncompleteTrajectory> trajectories() const {
    return trajectories_;
  }

  /// Whether `data` is exactly the run of trajectories this object
  /// encodes (same elements, not copies).
  bool Covers(std::span<const traj::IncompleteTrajectory> data) const {
    return data.data() == trajectories_.data() &&
           data.size() == trajectories_.size();
  }

  /// `model` reads these encodings when its encoder() is this object's
  /// (non-null) encoder.
  bool Serves(const RecoveryModel& model) const {
    return encoder_ != nullptr && model.encoder() == encoder_;
  }

  /// `model->Forward(trajectories[i], ...)`, through the cached encoding
  /// when Serves(*model). Bitwise equal either way.
  ForwardResult Forward(RecoveryModel* model, size_t i, bool training,
                        Rng* rng);

  /// `model->Recover(trajectories[i])`, through the cached encoding when
  /// Serves(*model).
  std::vector<roadnet::PointPosition> Recover(RecoveryModel* model, size_t i);

 private:
  /// Entry i, encoding trajectories[i] on first use.
  const traj::EncodedTrajectory& Entry(size_t i);

  const traj::TrajectoryEncoder* encoder_;
  std::span<const traj::IncompleteTrajectory> trajectories_;
  std::vector<std::optional<traj::EncodedTrajectory>> entries_;
};

/// One client's train and validation encodings, as a federated run holds
/// them for its whole length.
struct ClientEncodings {
  ClientEncodings(const traj::TrajectoryEncoder* encoder,
                  const traj::ClientDataset& data)
      : train(encoder, data.train), valid(encoder, data.valid) {}

  TrajectoryEncodings train;
  TrajectoryEncodings valid;
};

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_TRAJECTORY_ENCODINGS_H_
