#include "baselines/rntrajrec_model.h"

#include "nn/ops.h"
#include "roadnet/road_network.h"

namespace lighttr::baselines {
namespace {

constexpr size_t kHiddenDim = 48;
constexpr size_t kSegEmbedDim = 16;
constexpr double kDropout = 0.2;
constexpr size_t kMaxNeighbors = 6;  // one-hop graph propagation fan-in cap

}  // namespace

RnTrajRecModel::RnTrajRecModel(const traj::TrajectoryEncoder* encoder, Rng* rng)
    : Seq2SeqModel(encoder, "RNTrajRec+FL") {
  const roadnet::RoadNetwork& network = encoder->network();
  const auto num_segments = static_cast<size_t>(network.num_segments());

  // One-hop segment adjacency: segments reachable from this segment's
  // end plus segments feeding its start.
  neighbors_.resize(num_segments);
  for (roadnet::SegmentId e = 0;
       e < static_cast<roadnet::SegmentId>(num_segments); ++e) {
    const roadnet::Segment& seg = network.segment(e);
    for (roadnet::SegmentId n : network.OutSegments(seg.to)) {
      if (n != e && neighbors_[e].size() < kMaxNeighbors) {
        neighbors_[e].push_back(n);
      }
    }
    for (roadnet::SegmentId n : network.InSegments(seg.from)) {
      if (n != e && neighbors_[e].size() < kMaxNeighbors) {
        neighbors_[e].push_back(n);
      }
    }
  }

  const size_t features = traj::TrajectoryEncoder::kFeatureDim;
  encoder_gru_ = std::make_unique<nn::GruCell>(features, kHiddenDim, "enc.gru",
                                               &params_, rng);
  attn_ffn_ = std::make_unique<nn::Dense>(kHiddenDim, kHiddenDim, "enc.ffn",
                                          &params_, rng);
  const size_t dec_in = features + kHiddenDim + kSegEmbedDim + 1;
  decoder_gru_ = std::make_unique<nn::GruCell>(dec_in, kHiddenDim, "dec.gru",
                                               &params_, rng);
  gnn_embed_ = std::make_unique<nn::Embedding>(num_segments, kSegEmbedDim,
                                               "gnn.emb", &params_, rng);
  gnn_self_ = std::make_unique<nn::Dense>(kSegEmbedDim, kSegEmbedDim,
                                          "gnn.self", &params_, rng);
  gnn_neighbor_ = std::make_unique<nn::Dense>(kSegEmbedDim, kSegEmbedDim,
                                              "gnn.neighbor", &params_, rng);
  BuildHead(kHiddenDim, kSegEmbedDim, rng);
}

nn::Tensor RnTrajRecModel::EnrichedSegmentEmbedding(int segment) const {
  const nn::Tensor self_emb = gnn_embed_->Forward({&segment, 1});
  nn::Tensor out = gnn_self_->Forward(self_emb);
  const auto& neighbors = neighbors_[static_cast<size_t>(segment)];
  if (!neighbors.empty()) {
    const nn::Tensor neighbor_rows = gnn_embed_->Forward(neighbors);
    // Mean-pool the neighbour embeddings: sum rows / count.
    nn::Tensor mean = nn::SliceRows(neighbor_rows, 0, 1);
    for (size_t i = 1; i < neighbors.size(); ++i) {
      mean = nn::Add(mean, nn::SliceRows(neighbor_rows, i, 1));
    }
    mean = nn::Scale(mean,
                     nn::Scalar{1} / static_cast<nn::Scalar>(neighbors.size()));
    out = nn::Add(out, gnn_neighbor_->Forward(mean));
  }
  return nn::Relu(out);
}

core::Seq2SeqModel::DecoderStep RnTrajRecModel::Encode(
    const traj::IncompleteTrajectory& trajectory, const nn::Tensor& inputs,
    bool training, Rng* rng) {
  // GRU encoding of the full sequence followed by one self-attention
  // block with a feed-forward projection (spatial-temporal transformer
  // flavour of RNTrajRec).
  std::vector<nn::Tensor> enc_states;
  enc_states.reserve(trajectory.size());
  nn::Tensor h = encoder_gru_->InitialState();
  for (size_t t = 0; t < trajectory.size(); ++t) {
    h = encoder_gru_->Forward(nn::SliceRows(inputs, t, 1), h);
    enc_states.push_back(h);
  }
  nn::Tensor memory = nn::ConcatRows(enc_states);  // [T, H]
  memory = nn::Add(memory,
                   nn::ScaledDotProductAttention(memory, memory, memory));
  memory = nn::Relu(attn_ffn_->Forward(memory));
  memory = nn::Dropout(memory, kDropout, training, rng);

  return [this, inputs, memory, state = h](
             size_t t, int prev_segment, double prev_ratio) mutable {
    const nn::Tensor context =
        nn::ScaledDotProductAttention(state, memory, memory);
    const nn::Tensor prev_emb = EnrichedSegmentEmbedding(prev_segment);
    const nn::Tensor prev_ratio_tensor = nn::Tensor::Constant(
        nn::Matrix::Full(1, 1, static_cast<nn::Scalar>(prev_ratio)));
    const nn::Tensor dec_in = nn::ConcatCols(
        nn::ConcatCols(nn::SliceRows(inputs, t, 1), context),
        nn::ConcatCols(prev_emb, prev_ratio_tensor));
    state = decoder_gru_->Forward(dec_in, state);
    return state;
  };
}

}  // namespace lighttr::baselines
