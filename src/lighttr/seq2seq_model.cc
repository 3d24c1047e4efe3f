#include "lighttr/seq2seq_model.h"

#include <algorithm>

#include "common/check.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace lighttr::core {
namespace {

// Weight of the ratio MSE against the segment cross-entropy (Eq. 13).
constexpr nn::Scalar kMu = 1;

}  // namespace

MtHead::MtHead(size_t hidden_dim, size_t seg_embed_dim, size_t num_segments,
               nn::ParameterSet* params, Rng* rng) {
  dense_ = std::make_unique<nn::Dense>(hidden_dim, hidden_dim, "head.dense",
                                       params, rng);
  // The segment head starts at zero so the initial prediction equals the
  // constraint-mask prior (Eq. 11); training only moves logits away from
  // the prior where the data supports it.
  seg_w_ =
      nn::Tensor::Variable(nn::Matrix::Zeros(hidden_dim, num_segments));
  seg_b_ = nn::Tensor::Variable(nn::Matrix::Zeros(1, num_segments));
  params->Register("head.seg.w", seg_w_);
  params->Register("head.seg.b", seg_b_);
  seg_embed_ = std::make_unique<nn::Embedding>(num_segments, seg_embed_dim,
                                               "head.emb", params, rng);
  emb_proj_ = std::make_unique<nn::Dense>(seg_embed_dim, hidden_dim,
                                          "head.embproj", params, rng);
  ratio_head_ = std::make_unique<nn::Dense>(hidden_dim + seg_embed_dim, 1,
                                            "head.ratio", params, rng);
}

MtHeadStep MtHead::Run(const nn::Tensor& state,
                       const traj::StepCandidates& candidates,
                       int conditioning_segment) const {
  const nn::Tensor h_d = dense_->Forward(state);
  const nn::Tensor logits =
      nn::CandidateLogits(h_d, seg_w_, seg_b_, candidates.segments);
  const nn::Matrix mask_row = nn::Matrix::RowVector(candidates.log_mask);

  MtHeadStep step;
  if (candidates.target_in_range) {
    step.ce_loss =
        nn::SoftmaxCrossEntropy(logits, {candidates.target_index}, &mask_row);
  }
  size_t best = 0;
  for (size_t k = 1; k < candidates.segments.size(); ++k) {
    if (logits.value()(0, k) + mask_row(0, k) >
        logits.value()(0, best) + mask_row(0, best)) {
      best = k;
    }
  }
  step.predicted_segment = candidates.segments[best];

  const int condition = conditioning_segment >= 0 ? conditioning_segment
                                                  : step.predicted_segment;
  const nn::Tensor e_emb = seg_embed_->Forward({condition});
  const nn::Tensor h_e = nn::Relu(nn::Add(h_d, emb_proj_->Forward(e_emb)));
  step.ratio = nn::Sigmoid(ratio_head_->Forward(nn::ConcatCols(h_e, e_emb)));
  return step;
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

    const MtHeadStep step =
        head_->Run(state, encoded.candidates[k++],
                   teacher_forcing ? targets[t].segment : -1);
    if (step.ce_loss.defined()) ce_losses.push_back(step.ce_loss);
    ratio_preds.push_back(step.ratio);
    ratio_truths.push_back(static_cast<nn::Scalar>(targets[t].ratio));
    representation_rows.push_back(state);

    if (collect != nullptr) {
      (*collect)[t] = roadnet::PointPosition{
          step.predicted_segment,
          std::clamp(step.ratio.value()(0, 0), 0.0, 1.0)};
    }
    prev_segment =
        teacher_forcing ? targets[t].segment : step.predicted_segment;
    prev_ratio =
        teacher_forcing ? targets[t].ratio : step.ratio.value()(0, 0);
  }

  fl::ForwardResult result;
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
