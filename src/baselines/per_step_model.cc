#include "baselines/per_step_model.h"

#include <algorithm>

#include "common/check.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace lighttr::baselines {
namespace {

// Weight of the ratio MSE against the segment cross-entropy (Eq. 13).
constexpr nn::Scalar kMu = 1;

}  // namespace

PerStepModel::PerStepModel(const traj::TrajectoryEncoder* encoder,
                           std::string name)
    : encoder_(encoder), name_(std::move(name)) {
  LIGHTTR_CHECK(encoder != nullptr);
}

void PerStepModel::BuildHeads(size_t hidden_dim, Rng* rng) {
  seg_head_ = std::make_unique<nn::Dense>(
      hidden_dim, encoder_->num_segments(), "seg_head", &params_, rng);
  ratio_head_ =
      std::make_unique<nn::Dense>(hidden_dim, 1, "ratio_head", &params_, rng);
}

nn::Tensor PerStepModel::Hidden(const traj::EncodedTrajectory& encoded,
                                bool training, Rng* rng) const {
  // The layers run even when nothing is missing: skipping them would
  // shift the dropout RNG stream of every later trajectory.
  const std::vector<nn::Tensor> rows =
      HiddenForMissing(nn::Tensor::Constant(encoded.inputs), encoded.missing,
                       training, rng);
  if (rows.empty()) return nn::Tensor();
  return nn::ConcatRows(rows);
}

fl::ForwardResult PerStepModel::Forward(
    const traj::IncompleteTrajectory& trajectory, bool training, Rng* rng) {
  return ForwardEncoded(encoder_->Encode(trajectory), trajectory, training,
                        rng);
}

std::vector<roadnet::PointPosition> PerStepModel::Recover(
    const traj::IncompleteTrajectory& trajectory) {
  return RecoverEncoded(encoder_->Encode(trajectory), trajectory);
}

fl::ForwardResult PerStepModel::ForwardEncoded(
    const traj::EncodedTrajectory& encoded,
    const traj::IncompleteTrajectory& trajectory, bool training, Rng* rng) {
  LIGHTTR_CHECK_EQ(encoded.targets.size(), trajectory.size());
  fl::ForwardResult result;
  const std::vector<size_t>& missing = encoded.missing;
  const nn::Tensor hidden = Hidden(encoded, training, rng);
  if (!hidden.defined()) {
    result.loss = nn::Tensor::Constant(nn::Matrix::Zeros(1, 1));
    return result;
  }

  std::vector<nn::Tensor> ce_losses;
  nn::Matrix ratio_target(missing.size(), 1);
  for (size_t i = 0; i < missing.size(); ++i) {
    ratio_target(i, 0) =
        static_cast<nn::Scalar>(encoded.targets[missing[i]].ratio);
    const traj::StepCandidates& candidates = encoded.candidates[i];
    if (!candidates.target_in_range) continue;
    const nn::Tensor logits =
        nn::CandidateLogits(nn::SliceRows(hidden, i, 1), seg_head_->weight(),
                            seg_head_->bias(), candidates.segments);
    ce_losses.push_back(
        nn::SoftmaxCrossEntropy(logits, {candidates.target_index}));
  }
  const nn::Tensor ratio = nn::Sigmoid(ratio_head_->Forward(hidden));
  nn::Tensor loss = nn::Scale(nn::MseLoss(ratio, ratio_target), kMu);
  if (!ce_losses.empty()) {
    nn::Tensor ce_total = ce_losses[0];
    for (size_t i = 1; i < ce_losses.size(); ++i) {
      ce_total = nn::Add(ce_total, ce_losses[i]);
    }
    loss = nn::Add(loss, nn::Scale(ce_total, nn::Scalar{1} /
                                   static_cast<nn::Scalar>(ce_losses.size())));
  }
  result.loss = loss;
  result.representation = hidden;
  return result;
}

std::vector<roadnet::PointPosition> PerStepModel::RecoverEncoded(
    const traj::EncodedTrajectory& encoded,
    const traj::IncompleteTrajectory& trajectory) {
  LIGHTTR_CHECK_EQ(encoded.targets.size(), trajectory.size());
  nn::NoGradScope no_grad;
  std::vector<roadnet::PointPosition> positions(trajectory.size());
  for (size_t t = 0; t < trajectory.size(); ++t) {
    positions[t] = trajectory.ground_truth.points[t].position;
  }
  const std::vector<size_t>& missing = encoded.missing;
  const nn::Tensor hidden = Hidden(encoded, /*training=*/false, nullptr);
  if (!hidden.defined()) return positions;
  const nn::Tensor ratio = nn::Sigmoid(ratio_head_->Forward(hidden));
  for (size_t i = 0; i < missing.size(); ++i) {
    const traj::StepCandidates& candidates = encoded.candidates[i];
    const nn::Tensor logits =
        nn::CandidateLogits(nn::SliceRows(hidden, i, 1), seg_head_->weight(),
                            seg_head_->bias(), candidates.segments);
    positions[missing[i]] = roadnet::PointPosition{
        candidates.segments[nn::ArgmaxRow(logits.value(), 0)],
        std::clamp(ratio.value()(i, 0), 0.0, 1.0)};
  }
  return positions;
}

}  // namespace lighttr::baselines
