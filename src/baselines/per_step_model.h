// The decoder shared by the per-step baselines, FC+FL and RNN+FL (paper
// Sec. V-A3). Each model maps the encoded trajectory to one hidden row
// per missing step; this class owns the segment and moving-ratio heads
// on top of those rows. Segment logits are restricted to the step's
// candidates, but without the constraint-mask weights or the
// segment-embedding feedback of the seq2seq models.
#ifndef LIGHTTR_BASELINES_PER_STEP_MODEL_H_
#define LIGHTTR_BASELINES_PER_STEP_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "fl/recovery_model.h"
#include "nn/layers.h"
#include "traj/encoding.h"

namespace lighttr::baselines {

/// A recovery model that predicts every missing step independently from
/// its hidden row.
class PerStepModel : public fl::RecoveryModel {
 public:
  const std::string& name() const override { return name_; }
  nn::ParameterSet& params() override { return params_; }

  const traj::TrajectoryEncoder* encoder() const override { return encoder_; }

  fl::ForwardResult Forward(const traj::IncompleteTrajectory& trajectory,
                            bool training, Rng* rng) override;

  std::vector<roadnet::PointPosition> Recover(
      const traj::IncompleteTrajectory& trajectory) override;

  fl::ForwardResult ForwardEncoded(const traj::EncodedTrajectory& encoded,
                                   const traj::IncompleteTrajectory& trajectory,
                                   bool training, Rng* rng) override;

  std::vector<roadnet::PointPosition> RecoverEncoded(
      const traj::EncodedTrajectory& encoded,
      const traj::IncompleteTrajectory& trajectory) override;

 protected:
  /// `encoder` must outlive the model.
  PerStepModel(const traj::TrajectoryEncoder* encoder, std::string name);

  /// One [1, hidden] row per entry of `missing`, computed from `inputs`
  /// (the encoded trajectory, [steps, kFeatureDim]).
  virtual std::vector<nn::Tensor> HiddenForMissing(
      const nn::Tensor& inputs, const std::vector<size_t>& missing,
      bool training, Rng* rng) const = 0;

  /// Builds the segment and ratio heads. Subclasses call it last in their
  /// constructor, so the heads' parameters and RNG draws follow their
  /// own layers'.
  void BuildHeads(size_t hidden_dim, Rng* rng);

  nn::ParameterSet params_;

 private:
  /// Hidden rows of the missing steps stacked into [M, hidden];
  /// undefined when no step is missing.
  nn::Tensor Hidden(const traj::EncodedTrajectory& encoded, bool training,
                    Rng* rng) const;

  const traj::TrajectoryEncoder* encoder_;
  std::string name_;
  std::unique_ptr<nn::Dense> seg_head_;    // hidden -> num_segments
  std::unique_ptr<nn::Dense> ratio_head_;  // hidden -> 1
};

}  // namespace lighttr::baselines

#endif  // LIGHTTR_BASELINES_PER_STEP_MODEL_H_
