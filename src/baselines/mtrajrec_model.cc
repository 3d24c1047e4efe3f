#include "baselines/mtrajrec_model.h"

#include "nn/ops.h"

namespace lighttr::baselines {

MTrajRecModel::MTrajRecModel(const traj::TrajectoryEncoder* encoder,
                             const MTrajRecConfig& config, Rng* rng,
                             std::string name)
    : Seq2SeqModel(encoder, std::move(name), config.mu), config_(config) {
  const size_t features = traj::TrajectoryEncoder::kFeatureDim;
  const size_t hidden = config_.hidden_dim;
  encoder_gru_ = std::make_unique<nn::GruCell>(features, hidden, "enc.gru",
                                               &params_, rng);
  // Decoder input: [features, attention context, prev seg-emb, prev ratio].
  const size_t dec_in = features + hidden + config_.seg_embed_dim + 1;
  decoder_gru_ = std::make_unique<nn::GruCell>(dec_in, hidden, "dec.gru",
                                               &params_, rng);
  BuildHead(hidden, config_.seg_embed_dim, rng);
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
    dec_in = nn::Dropout(dec_in, config_.dropout, training, rng);
    state = decoder_gru_->Forward(dec_in, state);
    return state;
  };
}

}  // namespace lighttr::baselines
