// Teacher (meta-learner) training — paper Algorithm 1.
//
// One common teacher model is trained by visiting clients cyclically on
// a subset of each client's local data. At each client the incoming
// model is evaluated on local validation data: when it carries useful
// knowledge (accuracy >= l_t) local training preserves it through a
// distillation term toward a frozen snapshot (Eq. 17 with lambda =
// lambda_0); otherwise plain local training overwrites it. This
// alleviates data heterogeneity across clients.
#ifndef LIGHTTR_LIGHTTR_TEACHER_TRAINING_H_
#define LIGHTTR_LIGHTTR_TEACHER_TRAINING_H_

#include <memory>
#include <vector>

#include "fl/recovery_model.h"
#include "traj/workload.h"

namespace lighttr::core {

/// Options for TrainTeacher.
struct TeacherTrainingOptions {
  double lambda0 = 5.0;  // fixed distillation weight (Alg. 1 line 1)
  double l_t = 0.4;      // knowledge-preservation threshold
  int cycles = 1;        // cyclic passes over all clients
  double learning_rate = 1e-3;
};

/// Trains a common teacher per Algorithm 1. `factory` must produce the
/// same architecture used for the students (the paper uses the LTE model
/// for both). Returns the trained teacher f_tea.
std::unique_ptr<fl::RecoveryModel> TrainTeacher(
    const fl::ModelFactory& factory,
    const std::vector<traj::ClientDataset>& clients,
    const TeacherTrainingOptions& options);

}  // namespace lighttr::core

#endif  // LIGHTTR_LIGHTTR_TEACHER_TRAINING_H_
