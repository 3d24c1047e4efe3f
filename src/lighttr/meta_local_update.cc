#include "lighttr/meta_local_update.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/check.h"
#include "fl/local_trainer.h"

namespace lighttr::core {

MetaLocalUpdate::MetaLocalUpdate(fl::RecoveryModel* teacher,
                                 MetaLocalOptions options)
    : teacher_(teacher), options_(options) {
  LIGHTTR_CHECK_GE(options_.lambda0, 0.0);
}

double MetaLocalUpdate::DynamicLambda(double lambda0, double teacher_acc,
                                      double student_acc) {
  const double exponent =
      std::min(1.0, (teacher_acc - student_acc) * 5.0) - 1.0;
  return lambda0 * std::pow(10.0, exponent);
}

double MetaLocalUpdate::TeacherAccuracy(int client_index,
                                        fl::TrajectoryEncodings* valid) {
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    auto it = teacher_acc_cache_.find(client_index);
    if (it != teacher_acc_cache_.end()) return it->second;
  }
  // Evaluate outside the lock; a concurrent duplicate for the same
  // client computes the identical value (frozen teacher, fixed valid
  // set), so first-emplace-wins is deterministic.
  const double accuracy =
      fl::EvaluateSegmentAccuracy(teacher_, valid->trajectories(), valid);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  teacher_acc_cache_.emplace(client_index, accuracy);
  return accuracy;
}

double MetaLocalUpdate::Update(int client_index, fl::RecoveryModel* model,
                               nn::Optimizer* optimizer,
                               const traj::ClientDataset& data, int epochs,
                               Rng* rng) {
  return UpdateEncoded(client_index, model, optimizer, data, nullptr, epochs,
                       rng);
}

double MetaLocalUpdate::UpdateEncoded(int client_index,
                                      fl::RecoveryModel* model,
                                      nn::Optimizer* optimizer,
                                      const traj::ClientDataset& data,
                                      fl::ClientEncodings* encodings,
                                      int epochs, Rng* rng) {
  std::optional<fl::ClientEncodings> call_local;
  if (encodings == nullptr) {
    encodings = &call_local.emplace(model->encoder(), data);
  }
  // Algorithm 2 line 1: start without guidance.
  double lambda = 0.0;
  double last_loss = 0.0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    fl::LocalTrainOptions local;
    local.epochs = 1;
    local.lambda = lambda;
    local.teacher = (lambda > 0.0) ? teacher_ : nullptr;
    local.clip_norm = options_.clip_norm;
    last_loss = fl::TrainLocal(model, optimizer, data.train, local, rng,
                               &encodings->train);

    // Lines 6-12 set lambda for the next epoch, so the last epoch skips
    // them: nothing would read the result.
    if (teacher_ == nullptr || epoch + 1 == epochs) continue;
    // Compare teacher and student on local validation data.
    const double teacher_acc =
        TeacherAccuracy(client_index, &encodings->valid);
    const double student_acc =
        fl::EvaluateSegmentAccuracy(model, data.valid, &encodings->valid);
    if (teacher_acc <= student_acc) {
      lambda = 0.0;  // the teacher has nothing to offer this client
    } else {
      lambda = DynamicLambda(options_.lambda0, teacher_acc, student_acc);
    }
    // l_t guards against over-guidance: once the student itself clears
    // the threshold, guidance is reduced to zero (Sec. V-B7 observes
    // that excessive guidance degrades recovery).
    if (student_acc >= options_.l_t && teacher_acc <= student_acc) {
      lambda = 0.0;
    }
  }
  return last_loss;
}

}  // namespace lighttr::core
