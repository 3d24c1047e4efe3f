// MTrajRec baseline [16] (paper Sec. V-A3, Table VI): Seq2Seq
// encoder-decoder with attention and multi-task constrained decoding.
// The encoder consumes the observed (low-sampling-rate) anchors; the
// decoder reconstructs every step, attending over encoder states.
#ifndef LIGHTTR_BASELINES_MTRAJREC_MODEL_H_
#define LIGHTTR_BASELINES_MTRAJREC_MODEL_H_

#include <memory>

#include "lighttr/seq2seq_model.h"
#include "nn/layers.h"
#include "traj/encoding.h"

namespace lighttr::baselines {

/// Seq2Seq multi-task trajectory recovery (the centralized SOTA the
/// paper compares against; federated as MTrajRec+FL).
class MTrajRecModel : public core::Seq2SeqModel {
 public:
  MTrajRecModel(const traj::TrajectoryEncoder* encoder, Rng* rng);

 private:
  DecoderStep Encode(const traj::IncompleteTrajectory& trajectory,
                     const nn::Tensor& inputs, bool training,
                     Rng* rng) override;

  std::unique_ptr<nn::GruCell> encoder_gru_;
  std::unique_ptr<nn::GruCell> decoder_gru_;
};

}  // namespace lighttr::baselines

#endif  // LIGHTTR_BASELINES_MTRAJREC_MODEL_H_
