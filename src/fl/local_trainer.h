// Client-side local training and evaluation primitives.
//
// Each takes an optional TrajectoryEncodings over exactly `data`: when
// the model's encoder() is its encoder, every pass reads the cached
// encodings instead of encoding each trajectory again. Without one,
// TrainLocal builds call-local encodings (it makes one pass per epoch);
// the single-pass evaluations call the trajectory methods.
#ifndef LIGHTTR_FL_LOCAL_TRAINER_H_
#define LIGHTTR_FL_LOCAL_TRAINER_H_

#include <span>

#include "common/rng.h"
#include "fl/recovery_model.h"
#include "fl/trajectory_encodings.h"
#include "nn/optimizer.h"
#include "traj/trajectory.h"

namespace lighttr::fl {

/// Options for one local-training call.
struct LocalTrainOptions {
  int epochs = 1;
  /// Distillation weight lambda of Eq. 17; 0 disables distillation.
  double lambda = 0.0;
  /// Teacher (meta-learner) for knowledge distillation; may be null.
  RecoveryModel* teacher = nullptr;
  /// Global-norm gradient clipping bound applied before each optimizer
  /// step (nn::ClipGradientsByGlobalNorm); <= 0 disables clipping (the
  /// default, and the paper's setting). Bounds client update norms when
  /// inputs or labels are corrupted.
  double clip_norm = 0.0;
};

/// Trains `model` on `data` for options.epochs epochs, one optimizer step
/// per trajectory. When a teacher and lambda > 0 are supplied, the total
/// loss is Eq. 17: L_local + lambda * ||f_tea(T) - f_stu(T)||^2.
/// Returns the mean per-trajectory loss of the final epoch.
double TrainLocal(RecoveryModel* model, nn::Optimizer* optimizer,
                  std::span<const traj::IncompleteTrajectory> data,
                  const LocalTrainOptions& options, Rng* rng,
                  TrajectoryEncodings* encodings = nullptr);

/// Fraction of missing points whose predicted road segment equals the
/// ground truth — the "acc" used by Algorithms 1 and 2. Grad-free.
double EvaluateSegmentAccuracy(
    RecoveryModel* model, std::span<const traj::IncompleteTrajectory> data,
    TrajectoryEncodings* encodings = nullptr);

/// Mean task loss over `data` without updating parameters. Grad-free.
double EvaluateMeanLoss(RecoveryModel* model,
                        std::span<const traj::IncompleteTrajectory> data,
                        TrajectoryEncodings* encodings = nullptr);

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_LOCAL_TRAINER_H_
