// The decoder shared by the seq2seq recovery models: LightTR's LTE
// (paper Sec. IV-B2) and the MTrajRec / RNTrajRec baselines. Each model
// brings its own encoder and recurrent decoder cell; this class feeds
// every step the previous step's segment and moving ratio, passes
// observed steps through, decodes missing ones with the MtHead
// (teacher-forced in Forward, on its own predictions in Recover), and
// builds the Eq. 13 loss.
#ifndef LIGHTTR_LIGHTTR_SEQ2SEQ_MODEL_H_
#define LIGHTTR_LIGHTTR_SEQ2SEQ_MODEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fl/recovery_model.h"
#include "nn/ops.h"
#include "nn/parameter.h"
#include "traj/encoding.h"

namespace lighttr::core {

/// The multi-task head applied at each missing step (Eq. 8-11):
/// candidate-restricted segment logits with the distance mask, plus a
/// segment-embedding-conditioned moving-ratio regressor. One fused
/// nn::MtHeadStep per step.
class MtHead {
 public:
  /// Registers the head's parameters, named "head.*", in `params`.
  MtHead(size_t hidden_dim, size_t seg_embed_dim, size_t num_segments,
         nn::ParameterSet* params, Rng* rng);

  /// Runs the head on decoder state `state` ([1, hidden]) for the given
  /// candidates. `conditioning_segment` (ground truth when teacher
  /// forcing, else the prediction) drives the ratio branch; pass -1 to
  /// use the head's own argmax prediction. The cross-entropy against
  /// the true segment is built when `with_loss` is set and the truth is
  /// in range.
  nn::MtHeadOutput Run(const nn::Tensor& state,
                       const traj::StepCandidates& candidates,
                       int conditioning_segment, bool with_loss) const;

  /// Embedding of a segment id (for feeding predictions back into the
  /// decoder input).
  nn::Tensor SegmentEmbedding(int segment) const {
    return nn::EmbeddingLookup(weights_.emb_table, {&segment, 1});
  }

 private:
  nn::MtHeadWeights weights_;
};

/// A recovery model that decodes step by step through an MtHead.
class Seq2SeqModel : public fl::RecoveryModel {
 public:
  const std::string& name() const override { return name_; }
  nn::ParameterSet& params() override { return params_; }

  const traj::TrajectoryEncoder* encoder() const override { return encoder_; }

  fl::ForwardResult Forward(const traj::IncompleteTrajectory& trajectory,
                            bool training, Rng* rng) override;

  std::vector<roadnet::PointPosition> Recover(
      const traj::IncompleteTrajectory& trajectory) override;

  fl::ForwardResult ForwardEncoded(const traj::EncodedTrajectory& encoded,
                                   const traj::IncompleteTrajectory& trajectory,
                                   bool training, Rng* rng) override;

  std::vector<roadnet::PointPosition> RecoverEncoded(
      const traj::EncodedTrajectory& encoded,
      const traj::IncompleteTrajectory& trajectory) override;

 protected:
  /// Decoder state ([1, hidden]) at step t, given the previous step's
  /// segment and moving ratio. Called once per step, for t = 0, 1, ...
  using DecoderStep =
      std::function<nn::Tensor(size_t t, int prev_segment, double prev_ratio)>;

  /// `encoder` must outlive the model.
  Seq2SeqModel(const traj::TrajectoryEncoder* encoder, std::string name);

  /// Runs the model's encoder over `inputs` (the encoded trajectory,
  /// [steps, kFeatureDim]) and returns its decoder for this trajectory.
  virtual DecoderStep Encode(const traj::IncompleteTrajectory& trajectory,
                             const nn::Tensor& inputs, bool training,
                             Rng* rng) = 0;

  /// Builds the head. Subclasses call it last in their constructor, so
  /// the head's parameters and RNG draws follow their own layers'.
  void BuildHead(size_t hidden_dim, size_t seg_embed_dim, Rng* rng);

  const MtHead& head() const { return *head_; }

  const traj::TrajectoryEncoder* encoder_;
  nn::ParameterSet params_;

 private:
  /// One decode pass over `encoded` (the encoding of `trajectory`).
  /// Builds the Eq. 13 loss when `collect` is null; otherwise records
  /// every step's position in `collect` and builds no loss.
  fl::ForwardResult Decode(const traj::EncodedTrajectory& encoded,
                           const traj::IncompleteTrajectory& trajectory,
                           bool training, bool teacher_forcing, Rng* rng,
                           std::vector<roadnet::PointPosition>* collect);

  std::string name_;
  std::unique_ptr<MtHead> head_;
};

}  // namespace lighttr::core

#endif  // LIGHTTR_LIGHTTR_SEQ2SEQ_MODEL_H_
