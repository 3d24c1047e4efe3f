#include "lighttr/lte_model.h"

#include "common/check.h"
#include "nn/ops.h"

namespace lighttr::core {
namespace {

constexpr size_t kHiddenDim = 32;    // D of the paper (scaled down; DESIGN.md)
constexpr size_t kSegEmbedDim = 16;  // road-segment embedding size
constexpr double kDropout = 0.2;     // embedding dropout (paper: 0.5 at D=512)

}  // namespace

LteModel::LteModel(const traj::TrajectoryEncoder* encoder, Rng* rng)
    : Seq2SeqModel(encoder, "LightTR") {
  LIGHTTR_CHECK(rng != nullptr);
  const size_t feature_dim = traj::TrajectoryEncoder::kFeatureDim;
  embed_gru_ = std::make_unique<nn::GruCell>(feature_dim, kHiddenDim,
                                             "embed.gru", &params_, rng);
  // The ST-block consumes [h_t, seg-embedding, ratio].
  st_rnn_ = std::make_unique<nn::RnnCell>(kHiddenDim + kSegEmbedDim + 1,
                                          kHiddenDim, "st0.rnn", &params_, rng);
  BuildHead(kHiddenDim, kSegEmbedDim, rng);
}

Seq2SeqModel::DecoderStep LteModel::Encode(
    const traj::IncompleteTrajectory& trajectory, const nn::Tensor& inputs,
    bool training, Rng* rng) {
  // Embedding model (Eq. 5/6): one GRU layer over the whole sequence.
  std::vector<nn::Tensor> embedded;
  embedded.reserve(trajectory.size());
  nn::Tensor h = embed_gru_->InitialState();
  for (size_t t = 0; t < trajectory.size(); ++t) {
    h = embed_gru_->Forward(nn::SliceRows(inputs, t, 1), h);
    embedded.push_back(nn::Dropout(h, kDropout, training, rng));
  }

  // ST-block (Eq. 7): its output h'_t is the state the MT head decodes.
  return [this, embedded = std::move(embedded),
          state = st_rnn_->InitialState()](
             size_t t, int prev_segment, double prev_ratio) mutable {
    const nn::Tensor prev_emb = head().SegmentEmbedding(prev_segment);
    const nn::Tensor prev_ratio_tensor = nn::Tensor::Constant(
        nn::Matrix::Full(1, 1, static_cast<nn::Scalar>(prev_ratio)));
    state = st_rnn_->Forward(
        nn::ConcatCols(nn::ConcatCols(embedded[t], prev_emb),
                       prev_ratio_tensor),
        state);
    return state;
  };
}

}  // namespace lighttr::core
