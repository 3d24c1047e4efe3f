// The Lightweight Trajectory Embedding (LTE) model — LightTR's local
// model (paper Sec. IV-B2, Fig. 3):
//
//   embedding model : one GRU layer over the encoded trajectory (Eq. 5/6)
//   ST-blocks       : a lightweight ST-operator — an RNN cell whose output
//                     feeds a pure-MLP multi-task (MT) head predicting the
//                     road segment e_t and moving ratio r_t jointly
//                     (Eq. 7-9), with the constraint mask layer (Eq. 10/11)
//                     restricting segment logits to nearby candidates.
//                     The head and the decode loop are Seq2SeqModel's,
//                     shared with the MTrajRec and RNTrajRec baselines.
//
// The same class serves as teacher and student in the knowledge
// distillation scheme (Sec. IV-C); Forward() exposes the ST-block hidden
// states over missing steps as the distillation representation.
#ifndef LIGHTTR_LIGHTTR_LTE_MODEL_H_
#define LIGHTTR_LIGHTTR_LTE_MODEL_H_

#include <memory>

#include "lighttr/seq2seq_model.h"
#include "nn/layers.h"
#include "traj/encoding.h"

namespace lighttr::core {

/// LightTR's local trajectory-recovery model.
class LteModel : public Seq2SeqModel {
 public:
  /// `encoder` must outlive the model.
  LteModel(const traj::TrajectoryEncoder* encoder, Rng* rng);

 private:
  DecoderStep Encode(const traj::IncompleteTrajectory& trajectory,
                     const nn::Tensor& inputs, bool training,
                     Rng* rng) override;

  // Embedding model (Eq. 5/6).
  std::unique_ptr<nn::GruCell> embed_gru_;
  // Lightweight ST-operator (Eq. 7): one ST-block, an RNN cell.
  std::unique_ptr<nn::RnnCell> st_rnn_;
};

}  // namespace lighttr::core

#endif  // LIGHTTR_LIGHTTR_LTE_MODEL_H_
