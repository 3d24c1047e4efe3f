// Meta-knowledge enhanced local training — paper Algorithm 2.
//
// Each client epoch trains with the Eq. 17 objective; after every epoch
// but the last, the distillation weight lambda for the next one is set
// dynamically (Eq. 18) from how much better the common teacher performs
// than the current local model on local validation data. When the
// teacher is no better, lambda drops to 0 (no guidance).
#ifndef LIGHTTR_LIGHTTR_META_LOCAL_UPDATE_H_
#define LIGHTTR_LIGHTTR_META_LOCAL_UPDATE_H_

#include <mutex>
#include <unordered_map>

#include "fl/federated_trainer.h"
#include "fl/recovery_model.h"

namespace lighttr::core {

/// Options for MetaLocalUpdate.
struct MetaLocalOptions {
  double lambda0 = 5.0;  // base distillation weight (paper best: 5)
  double l_t = 0.4;      // guidance threshold (paper best: 0.4)
  /// Global-norm gradient clipping bound forwarded to every local
  /// training step (see LocalTrainOptions::clip_norm); <= 0 disables.
  double clip_norm = 0.0;
};

/// The LightTR client-side update strategy (Algorithm 2) plugged into
/// the generic federated loop (Algorithm 3).
class MetaLocalUpdate : public fl::LocalUpdateStrategy {
 public:
  /// `teacher` is the common meta-learner from Algorithm 1; must outlive
  /// this object. Null behaves like plain FedAvg (used by the w/o_Meta
  /// ablation).
  MetaLocalUpdate(fl::RecoveryModel* teacher, MetaLocalOptions options);

  /// Without encodings from the caller, builds call-local ones.
  double Update(int client_index, fl::RecoveryModel* model,
                nn::Optimizer* optimizer, const traj::ClientDataset& data,
                int epochs, Rng* rng) override;

  /// Every epoch and validation pass, the teacher's included, reads
  /// `encodings` when the model (or teacher) shares their encoder.
  double UpdateEncoded(int client_index, fl::RecoveryModel* model,
                       nn::Optimizer* optimizer,
                       const traj::ClientDataset& data,
                       fl::ClientEncodings* encodings, int epochs,
                       Rng* rng) override;

  /// Computes Eq. 18: lambda0 * 10^(min(1, (acc_tea - acc_stu) * 5) - 1).
  static double DynamicLambda(double lambda0, double teacher_acc,
                              double student_acc);

 private:
  /// The teacher's accuracy on client `client_index`'s validation data,
  /// whose encodings are `valid`; computed on first use.
  double TeacherAccuracy(int client_index, fl::TrajectoryEncodings* valid);

  fl::RecoveryModel* teacher_;
  MetaLocalOptions options_;
  /// Teacher validation accuracy per client (the teacher is frozen
  /// during federated training, so this is computed once per client).
  /// Guarded by `cache_mutex_`: Update runs concurrently for distinct
  /// clients under the trainer's pool. Cached *values* are keyed by
  /// client and deterministic (frozen teacher, fixed valid set), so the
  /// fill order does not affect results.
  std::mutex cache_mutex_;
  std::unordered_map<int, double> teacher_acc_cache_;
};

}  // namespace lighttr::core

#endif  // LIGHTTR_LIGHTTR_META_LOCAL_UPDATE_H_
