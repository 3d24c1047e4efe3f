// RNTrajRec baseline [39] (paper Sec. V-A3): road-network-enhanced
// recovery with a spatial-temporal transformer flavour — GRU encoding of
// the full sequence followed by self-attention, a one-hop graph
// propagation that enriches road-segment embeddings from their network
// neighbours, and attention-based multi-task decoding. The most
// accurate and most expensive baseline (Fig. 5).
#ifndef LIGHTTR_BASELINES_RNTRAJREC_MODEL_H_
#define LIGHTTR_BASELINES_RNTRAJREC_MODEL_H_

#include <memory>
#include <vector>

#include "lighttr/seq2seq_model.h"
#include "nn/layers.h"
#include "traj/encoding.h"

namespace lighttr::baselines {

/// Graph- and attention-enhanced seq2seq recovery model.
class RnTrajRecModel : public core::Seq2SeqModel {
 public:
  RnTrajRecModel(const traj::TrajectoryEncoder* encoder, Rng* rng);

 private:
  DecoderStep Encode(const traj::IncompleteTrajectory& trajectory,
                     const nn::Tensor& inputs, bool training,
                     Rng* rng) override;

  /// One-hop graph-propagated embedding of a segment:
  /// ReLU(W1 emb[s] + W2 mean(emb[neighbors(s)])).
  nn::Tensor EnrichedSegmentEmbedding(int segment) const;

  std::vector<std::vector<int>> neighbors_;  // per segment, capped fan-in

  std::unique_ptr<nn::GruCell> encoder_gru_;
  std::unique_ptr<nn::Dense> attn_ffn_;      // post-attention feed-forward
  std::unique_ptr<nn::GruCell> decoder_gru_;
  std::unique_ptr<nn::Embedding> gnn_embed_;  // segment table for the GNN
  std::unique_ptr<nn::Dense> gnn_self_;
  std::unique_ptr<nn::Dense> gnn_neighbor_;
};

}  // namespace lighttr::baselines

#endif  // LIGHTTR_BASELINES_RNTRAJREC_MODEL_H_
