#include "baselines/mtrajrec_model.h"

#include "nn/ops.h"

namespace lighttr::baselines {
namespace {

constexpr size_t kHiddenDim = 48;  // heavier than LightTR's LTE, as in Fig. 5
constexpr size_t kSegEmbedDim = 16;
constexpr double kDropout = 0.2;

}  // namespace

MTrajRecModel::MTrajRecModel(const traj::TrajectoryEncoder* encoder, Rng* rng)
    : Seq2SeqModel(encoder, "MTrajRec+FL") {
  const size_t features = traj::TrajectoryEncoder::kFeatureDim;
  encoder_gru_ = std::make_unique<nn::GruCell>(features, kHiddenDim, "enc.gru",
                                               &params_, rng);
  // Decoder input: [features, attention context, prev seg-emb, prev ratio].
  const size_t dec_in = features + kHiddenDim + kSegEmbedDim + 1;
  decoder_gru_ = std::make_unique<nn::GruCell>(dec_in, kHiddenDim, "dec.gru",
                                               &params_, rng);
  BuildHead(kHiddenDim, kSegEmbedDim, rng);
}

core::Seq2SeqModel::DecoderStep MTrajRecModel::Encode(
    const traj::IncompleteTrajectory& trajectory, const nn::Tensor& inputs,
    bool training, Rng* rng) {
  // Encoder over the observed anchors only (the low-sampling-rate view).
  const std::vector<size_t> anchors = trajectory.ObservedIndices();
  std::vector<nn::Tensor> enc_states;
  enc_states.reserve(anchors.size());
  nn::Tensor h = encoder_gru_->InitialState();
  for (size_t a : anchors) {
    h = encoder_gru_->Forward(nn::SliceRows(inputs, a, 1), h);
    enc_states.push_back(h);
  }
  const nn::Tensor memory = nn::ConcatRows(enc_states);  // [A, H]

  // Decoder over every step with attention on the encoder memory,
  // initialised from the encoder's final state.
  return [this, inputs, memory, state = h, training, rng](
             size_t t, int prev_segment, double prev_ratio) mutable {
    const nn::Tensor context =
        nn::ScaledDotProductAttention(state, memory, memory);
    const nn::Tensor prev_emb = head().SegmentEmbedding(prev_segment);
    const nn::Tensor prev_ratio_tensor = nn::Tensor::Constant(
        nn::Matrix::Full(1, 1, static_cast<nn::Scalar>(prev_ratio)));
    nn::Tensor dec_in = nn::ConcatCols(
        nn::ConcatCols(nn::SliceRows(inputs, t, 1), context),
        nn::ConcatCols(prev_emb, prev_ratio_tensor));
    dec_in = nn::Dropout(dec_in, kDropout, training, rng);
    state = decoder_gru_->Forward(dec_in, state);
    return state;
  };
}

}  // namespace lighttr::baselines
