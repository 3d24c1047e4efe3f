#include "lighttr/lte_model.h"

#include "common/check.h"
#include "nn/ops.h"

namespace lighttr::core {

LteModel::LteModel(const traj::TrajectoryEncoder* encoder,
                   const LteConfig& config, Rng* rng, std::string name)
    : Seq2SeqModel(encoder, std::move(name), config.mu), config_(config) {
  LIGHTTR_CHECK(rng != nullptr);
  LIGHTTR_CHECK_GE(config_.hidden_dim, 1u);
  LIGHTTR_CHECK_GE(config_.seg_embed_dim, 1u);
  LIGHTTR_CHECK_GE(config_.num_st_blocks, 1u);

  const size_t feature_dim = traj::TrajectoryEncoder::kFeatureDim;
  const size_t hidden = config_.hidden_dim;

  embed_gru_ = std::make_unique<nn::GruCell>(feature_dim, hidden, "embed.gru",
                                             &params_, rng);
  // First ST-block consumes [h_t, seg-embedding, ratio]; deeper blocks
  // chain on the previous block's hidden output.
  for (size_t b = 0; b < config_.num_st_blocks; ++b) {
    const size_t in_dim =
        (b == 0) ? hidden + config_.seg_embed_dim + 1 : hidden;
    st_rnn_.push_back(std::make_unique<nn::RnnCell>(
        in_dim, hidden, "st" + std::to_string(b) + ".rnn", &params_, rng));
  }
  BuildHead(hidden, config_.seg_embed_dim, rng);
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
    embedded.push_back(nn::Dropout(h, config_.dropout, training, rng));
  }

  // ST-blocks (Eq. 7): the block stack's output h'_t is the state the
  // MT head decodes.
  std::vector<nn::Tensor> block_state(st_rnn_.size());
  for (size_t b = 0; b < st_rnn_.size(); ++b) {
    block_state[b] = st_rnn_[b]->InitialState();
  }
  return [this, embedded = std::move(embedded),
          block_state = std::move(block_state)](
             size_t t, int prev_segment, double prev_ratio) mutable {
    const nn::Tensor prev_emb = head().SegmentEmbedding(prev_segment);
    const nn::Tensor prev_ratio_tensor = nn::Tensor::Constant(
        nn::Matrix::Full(1, 1, static_cast<nn::Scalar>(prev_ratio)));
    nn::Tensor state = nn::ConcatCols(
        nn::ConcatCols(embedded[t], prev_emb), prev_ratio_tensor);
    for (size_t b = 0; b < st_rnn_.size(); ++b) {
      state = st_rnn_[b]->Forward(state, block_state[b]);
      block_state[b] = state;
    }
    return state;
  };
}

}  // namespace lighttr::core
