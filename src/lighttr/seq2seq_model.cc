#include "lighttr/seq2seq_model.h"

#include <algorithm>

#include "common/check.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace lighttr::core {
namespace {

// Weight of the ratio MSE against the segment cross-entropy (Eq. 13).
constexpr nn::Scalar kMu = 1;

// Registers a trainable head parameter under `name`.
nn::Tensor HeadParameter(nn::ParameterSet* params, const char* name,
                         nn::Matrix value) {
  nn::Tensor tensor = nn::Tensor::Variable(std::move(value));
  params->Register(name, tensor);
  return tensor;
}

}  // namespace

MtHead::MtHead(size_t hidden_dim, size_t seg_embed_dim, size_t num_segments,
               nn::ParameterSet* params, Rng* rng) {
  LIGHTTR_CHECK(params != nullptr);
  // Registration order and RNG draws are those of the layers the head
  // was built from: Dense "head.dense", the segment head, Embedding
  // "head.emb", Dense "head.embproj", Dense "head.ratio".
  nn::MtHeadWeights& w = weights_;
  w.dense_w = HeadParameter(params, "head.dense.w",
                            nn::Matrix::Xavier(hidden_dim, hidden_dim, rng));
  w.dense_b =
      HeadParameter(params, "head.dense.b", nn::Matrix::Zeros(1, hidden_dim));
  // The segment head starts at zero so the initial prediction equals the
  // constraint-mask prior (Eq. 11); training only moves logits away from
  // the prior where the data supports it.
  w.seg_w = HeadParameter(params, "head.seg.w",
                          nn::Matrix::Zeros(hidden_dim, num_segments));
  w.seg_b =
      HeadParameter(params, "head.seg.b", nn::Matrix::Zeros(1, num_segments));
  // Small-range init, as nn::Embedding does.
  w.emb_table = HeadParameter(
      params, "head.emb.table",
      nn::Matrix::RandomUniform(num_segments, seg_embed_dim, 0.1, rng));
  w.proj_w = HeadParameter(params, "head.embproj.w",
                           nn::Matrix::Xavier(seg_embed_dim, hidden_dim, rng));
  w.proj_b = HeadParameter(params, "head.embproj.b",
                           nn::Matrix::Zeros(1, hidden_dim));
  w.ratio_w =
      HeadParameter(params, "head.ratio.w",
                    nn::Matrix::Xavier(hidden_dim + seg_embed_dim, 1, rng));
  w.ratio_b = HeadParameter(params, "head.ratio.b", nn::Matrix::Zeros(1, 1));
}

nn::MtHeadOutput MtHead::Run(const nn::Tensor& state,
                             const traj::StepCandidates& candidates,
                             int conditioning_segment, bool with_loss) const {
  const int target =
      with_loss && candidates.target_in_range ? candidates.target_index : -1;
  return nn::MtHeadStep(state, weights_, candidates.segments,
                        candidates.log_mask, target, conditioning_segment);
}

Seq2SeqModel::Seq2SeqModel(const traj::TrajectoryEncoder* encoder,
                           std::string name)
    : encoder_(encoder), name_(std::move(name)) {
  LIGHTTR_CHECK(encoder != nullptr);
}

void Seq2SeqModel::BuildHead(size_t hidden_dim, size_t seg_embed_dim,
                             Rng* rng) {
  head_ = std::make_unique<MtHead>(hidden_dim, seg_embed_dim,
                                   encoder_->num_segments(), &params_, rng);
}

fl::ForwardResult Seq2SeqModel::Decode(
    const traj::EncodedTrajectory& encoded,
    const traj::IncompleteTrajectory& trajectory, bool training,
    bool teacher_forcing, Rng* rng,
    std::vector<roadnet::PointPosition>* collect) {
  const std::vector<traj::StepTarget>& targets = encoded.targets;
  LIGHTTR_CHECK_EQ(targets.size(), trajectory.size());
  const nn::Tensor x_all = nn::Tensor::Constant(encoded.inputs);
  DecoderStep decoder = Encode(trajectory, x_all, training, rng);

  // e_{t-1} and r_{t-1} feed step t, so the decode is sequential.
  int prev_segment = targets[0].segment;
  double prev_ratio = targets[0].ratio;

  std::vector<nn::Tensor> ce_losses;
  std::vector<nn::Tensor> ratio_preds;
  std::vector<nn::Scalar> ratio_truths;
  std::vector<nn::Tensor> representation_rows;

  size_t k = 0;  // index of the next missing step in `encoded`
  for (size_t t = 0; t < trajectory.size(); ++t) {
    const nn::Tensor state = decoder(t, prev_segment, prev_ratio);

    if (!targets[t].missing) {
      // Observed step: the head is skipped; ground truth drives the
      // recurrent conditioning (and Recover returns it verbatim).
      prev_segment = targets[t].segment;
      prev_ratio = targets[t].ratio;
      if (collect != nullptr) {
        (*collect)[t] = trajectory.ground_truth.points[t].position;
      }
      continue;
    }

    const nn::MtHeadOutput step =
        head_->Run(state, encoded.candidates[k++],
                   teacher_forcing ? targets[t].segment : -1,
                   /*with_loss=*/collect == nullptr);
    if (collect != nullptr) {
      (*collect)[t] = roadnet::PointPosition{
          step.predicted_segment,
          std::clamp(step.ratio.value()(0, 0), 0.0, 1.0)};
    } else {
      if (step.ce_loss.defined()) ce_losses.push_back(step.ce_loss);
      ratio_preds.push_back(step.ratio);
      ratio_truths.push_back(static_cast<nn::Scalar>(targets[t].ratio));
      representation_rows.push_back(state);
    }
    prev_segment =
        teacher_forcing ? targets[t].segment : step.predicted_segment;
    prev_ratio =
        teacher_forcing ? targets[t].ratio : step.ratio.value()(0, 0);
  }

  fl::ForwardResult result;
  if (collect != nullptr) return result;
  if (ratio_preds.empty()) {
    result.loss = nn::Tensor::Constant(nn::Matrix::Zeros(1, 1));
    return result;
  }
  // Eq. 13: mean cross-entropy + mu * MSE of the moving ratios.
  nn::Tensor loss = nn::Tensor::Constant(nn::Matrix::Zeros(1, 1));
  if (!ce_losses.empty()) {
    nn::Tensor ce_total = ce_losses[0];
    for (size_t i = 1; i < ce_losses.size(); ++i) {
      ce_total = nn::Add(ce_total, ce_losses[i]);
    }
    loss = nn::Scale(
        ce_total, nn::Scalar{1} / static_cast<nn::Scalar>(ce_losses.size()));
  }
  nn::Matrix ratio_target(ratio_truths.size(), 1);
  for (size_t i = 0; i < ratio_truths.size(); ++i) {
    ratio_target(i, 0) = ratio_truths[i];
  }
  const nn::Tensor ratio_mat = nn::ConcatRows(ratio_preds);
  loss = nn::Add(loss, nn::Scale(nn::MseLoss(ratio_mat, ratio_target), kMu));
  result.loss = loss;
  result.representation = nn::ConcatRows(representation_rows);
  return result;
}

fl::ForwardResult Seq2SeqModel::Forward(
    const traj::IncompleteTrajectory& trajectory, bool training, Rng* rng) {
  return ForwardEncoded(encoder_->Encode(trajectory), trajectory, training,
                        rng);
}

std::vector<roadnet::PointPosition> Seq2SeqModel::Recover(
    const traj::IncompleteTrajectory& trajectory) {
  return RecoverEncoded(encoder_->Encode(trajectory), trajectory);
}

fl::ForwardResult Seq2SeqModel::ForwardEncoded(
    const traj::EncodedTrajectory& encoded,
    const traj::IncompleteTrajectory& trajectory, bool training, Rng* rng) {
  return Decode(encoded, trajectory, training, /*teacher_forcing=*/true, rng,
                nullptr);
}

std::vector<roadnet::PointPosition> Seq2SeqModel::RecoverEncoded(
    const traj::EncodedTrajectory& encoded,
    const traj::IncompleteTrajectory& trajectory) {
  nn::NoGradScope no_grad;
  std::vector<roadnet::PointPosition> positions(trajectory.size());
  Decode(encoded, trajectory, /*training=*/false, /*teacher_forcing=*/false,
         nullptr, &positions);
  return positions;
}

}  // namespace lighttr::core
