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
#include <string>
#include <vector>

#include "lighttr/seq2seq_model.h"
#include "nn/layers.h"
#include "traj/encoding.h"

namespace lighttr::core {

/// Architecture hyper-parameters of the LTE model.
struct LteConfig {
  size_t hidden_dim = 32;     // D of the paper (scaled down; see DESIGN.md)
  size_t seg_embed_dim = 16;  // road-segment embedding size
  size_t num_st_blocks = 1;   // stacked lightweight ST-blocks
  double dropout = 0.2;       // embedding dropout (paper uses 0.5 at D=512)
  double mu = 1.0;            // Eq. 13 trade-off between CE and MSE
};

/// LightTR's local trajectory-recovery model.
class LteModel : public Seq2SeqModel {
 public:
  /// `encoder` must outlive the model.
  LteModel(const traj::TrajectoryEncoder* encoder, const LteConfig& config,
           Rng* rng, std::string name = "LightTR");

  const LteConfig& config() const { return config_; }

 private:
  DecoderStep Encode(const traj::IncompleteTrajectory& trajectory,
                     const nn::Tensor& inputs, bool training,
                     Rng* rng) override;

  LteConfig config_;
  // Embedding model (Eq. 5/6).
  std::unique_ptr<nn::GruCell> embed_gru_;
  // Lightweight ST-operator (Eq. 7): RNN cells, one per stacked block.
  std::vector<std::unique_ptr<nn::RnnCell>> st_rnn_;
};

}  // namespace lighttr::core

#endif  // LIGHTTR_LIGHTTR_LTE_MODEL_H_
