#include "lighttr/teacher_training.h"

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/check.h"
#include "common/rng.h"
#include "fl/local_trainer.h"
#include "nn/optimizer.h"

namespace lighttr::core {

namespace {

// Each visit trains one local epoch on "a part of its local data": the
// first half of the client's train split. The teacher's draws come from
// one fixed seed.
constexpr int kEpochsPerClient = 1;
constexpr double kDataFraction = 0.5;
constexpr uint64_t kTeacherSeed = 17;

}  // namespace

std::unique_ptr<fl::RecoveryModel> TrainTeacher(
    const fl::ModelFactory& factory,
    const std::vector<traj::ClientDataset>& clients,
    const TeacherTrainingOptions& options) {
  LIGHTTR_CHECK(!clients.empty());
  LIGHTTR_CHECK_GE(options.cycles, 1);

  Rng rng(kTeacherSeed);
  Rng teacher_rng = rng.Fork();
  std::unique_ptr<fl::RecoveryModel> teacher = factory(&teacher_rng);
  // The frozen snapshot used as the distillation reference when the
  // incoming knowledge is worth preserving.
  Rng snapshot_rng = rng.Fork();
  std::unique_ptr<fl::RecoveryModel> snapshot = factory(&snapshot_rng);
  nn::AdamOptimizer optimizer(static_cast<nn::Scalar>(options.learning_rate));

  // Each client's encodings, held for every cycle: "a part of its local
  // data" (a prefix of its train split) and its validation split.
  std::vector<fl::TrajectoryEncodings> train;
  std::vector<fl::TrajectoryEncodings> valid;
  train.reserve(clients.size());
  valid.reserve(clients.size());
  for (const traj::ClientDataset& client : clients) {
    const size_t take = std::max<size_t>(
        1, static_cast<size_t>(kDataFraction *
                               static_cast<double>(client.train.size())));
    train.emplace_back(teacher->encoder(),
                       std::span(client.train)
                           .first(std::min(take, client.train.size())));
    valid.emplace_back(teacher->encoder(), client.valid);
  }

  for (int cycle = 0; cycle < options.cycles; ++cycle) {
    for (size_t i = 0; i < clients.size(); ++i) {
      // Alg. 1 lines 4-10: decide whether the incoming knowledge is
      // useful for this client.
      const double incoming_acc = fl::EvaluateSegmentAccuracy(
          teacher.get(), clients[i].valid, &valid[i]);

      fl::LocalTrainOptions local;
      local.epochs = kEpochsPerClient;
      if (incoming_acc >= options.l_t) {
        // Useful: preserve it via Eq. 17 against a frozen snapshot.
        LIGHTTR_CHECK_OK(
            snapshot->params().Deserialize(teacher->params().Serialize()));
        local.teacher = snapshot.get();
        local.lambda = options.lambda0;
      }
      Rng update_rng = rng.Fork();
      fl::TrainLocal(teacher.get(), &optimizer, train[i].trajectories(),
                     local, &update_rng, &train[i]);
    }
  }
  return teacher;
}

}  // namespace lighttr::core
