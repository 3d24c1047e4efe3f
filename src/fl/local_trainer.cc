#include "fl/local_trainer.h"

#include <optional>

#include "common/check.h"
#include "nn/losses.h"
#include "nn/ops.h"

namespace lighttr::fl {

namespace {

// The caller's `given` encodings, which must cover exactly `data`, or
// call-local ones bound to `model`'s encoder when the caller passed none.
TrajectoryEncodings* ResolveEncodings(
    TrajectoryEncodings* given, const RecoveryModel& model,
    std::span<const traj::IncompleteTrajectory> data,
    std::optional<TrajectoryEncodings>* local) {
  if (given == nullptr) return &local->emplace(model.encoder(), data);
  LIGHTTR_CHECK(given->Covers(data));
  return given;
}

}  // namespace

double TrainLocal(RecoveryModel* model, nn::Optimizer* optimizer,
                  std::span<const traj::IncompleteTrajectory> data,
                  const LocalTrainOptions& options, Rng* rng,
                  TrajectoryEncodings* encodings) {
  LIGHTTR_CHECK(model != nullptr);
  LIGHTTR_CHECK(optimizer != nullptr);
  LIGHTTR_CHECK(rng != nullptr);
  LIGHTTR_CHECK_GE(options.epochs, 1);
  LIGHTTR_CHECK_GE(options.lambda, 0.0);
  if (data.empty()) return 0.0;
  // Without encodings from the caller, call-local ones: each trajectory
  // is encoded once across the epochs.
  std::optional<TrajectoryEncodings> local;
  encodings = ResolveEncodings(encodings, *model, data, &local);

  double last_epoch_loss = 0.0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    double epoch_loss = 0.0;
    for (size_t i = 0; i < data.size(); ++i) {
      ForwardResult student =
          encodings->Forward(model, i, /*training=*/true, rng);
      nn::Tensor loss = student.loss;
      if (options.teacher != nullptr && options.lambda > 0.0 &&
          student.representation.defined()) {
        nn::Matrix teacher_repr;
        {
          nn::NoGradScope no_grad;
          ForwardResult teacher = encodings->Forward(
              options.teacher, i, /*training=*/false, nullptr);
          if (teacher.representation.defined()) {
            teacher_repr = teacher.representation.value();
          }
        }
        if (teacher_repr.SameShape(student.representation.value())) {
          loss = nn::Add(
              loss, nn::Scale(nn::L2DistillLoss(student.representation,
                                                teacher_repr),
                              static_cast<nn::Scalar>(options.lambda)));
        }
      }
      epoch_loss += loss.ScalarValue();
      loss.Backward();
      if (options.clip_norm > 0.0) {
        nn::ClipGradientsByGlobalNorm(&model->params(), options.clip_norm);
      }
      optimizer->Step(&model->params());
    }
    last_epoch_loss = epoch_loss / static_cast<double>(data.size());
  }
  return last_epoch_loss;
}

double EvaluateSegmentAccuracy(
    RecoveryModel* model, std::span<const traj::IncompleteTrajectory> data,
    TrajectoryEncodings* encodings) {
  LIGHTTR_CHECK(model != nullptr);
  LIGHTTR_CHECK(encodings == nullptr || encodings->Covers(data));
  int64_t correct = 0;
  int64_t total = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    const traj::IncompleteTrajectory& trajectory = data[i];
    const std::vector<roadnet::PointPosition> recovered =
        encodings != nullptr ? encodings->Recover(model, i)
                             : model->Recover(trajectory);
    LIGHTTR_CHECK_EQ(recovered.size(), trajectory.size());
    for (size_t t = 0; t < trajectory.size(); ++t) {
      if (trajectory.observed[t]) continue;
      ++total;
      if (recovered[t].segment ==
          trajectory.ground_truth.points[t].position.segment) {
        ++correct;
      }
    }
  }
  if (total == 0) return 0.0;
  return static_cast<double>(correct) / static_cast<double>(total);
}

double EvaluateMeanLoss(RecoveryModel* model,
                        std::span<const traj::IncompleteTrajectory> data,
                        TrajectoryEncodings* encodings) {
  LIGHTTR_CHECK(model != nullptr);
  LIGHTTR_CHECK(encodings == nullptr || encodings->Covers(data));
  if (data.empty()) return 0.0;
  nn::NoGradScope no_grad;
  double total = 0.0;
  for (size_t i = 0; i < data.size(); ++i) {
    ForwardResult result =
        encodings != nullptr
            ? encodings->Forward(model, i, /*training=*/false, nullptr)
            : model->Forward(data[i], /*training=*/false, nullptr);
    total += result.loss.ScalarValue();
  }
  return total / static_cast<double>(data.size());
}

}  // namespace lighttr::fl
