#include "eval/harness.h"

#include "common/check.h"
#include "common/stopwatch.h"
#include "baselines/centralized_trainer.h"
#include "fl/local_trainer.h"
#include "lighttr/pipeline.h"
#include "roadnet/generators.h"
#include "nn/flops.h"
#include "nn/optimizer.h"

namespace lighttr::eval {

ExperimentEnv::ExperimentEnv(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  roadnet::CityGridOptions city;
  city.rows = rows;
  city.cols = cols;
  network_ = roadnet::GenerateCityGrid(city, &rng);
  index_ = std::make_unique<roadnet::SegmentIndex>(network_);
  encoder_ = std::make_unique<traj::TrajectoryEncoder>(network_, *index_);
}

std::vector<traj::ClientDataset> ExperimentEnv::MakeWorkload(
    const traj::WorkloadProfile& profile,
    const traj::FederatedWorkloadOptions& options, uint64_t seed) const {
  Rng rng(seed);
  return traj::GenerateFederatedWorkload(network_, profile, options, &rng);
}

std::vector<traj::IncompleteTrajectory> ExperimentEnv::PooledTestSet(
    const std::vector<traj::ClientDataset>& clients, int max_trajectories) {
  std::vector<traj::IncompleteTrajectory> pooled;
  for (const traj::ClientDataset& client : clients) {
    for (const auto& trajectory : client.test) {
      if (static_cast<int>(pooled.size()) >= max_trajectories) return pooled;
      pooled.push_back(trajectory);
    }
  }
  return pooled;
}

MethodRunOptions DefaultRunOptions(const ExperimentScale& scale) {
  MethodRunOptions options;
  options.fed.rounds = scale.rounds;
  options.fed.local_epochs = scale.local_epochs;
  // All methods train with the same rate; 3e-3 compensates for the
  // scaled-down round budget (the paper trains 50 epochs at 1e-3).
  options.fed.learning_rate = 3e-3;
  options.fed.seed = scale.seed;
  options.teacher.learning_rate = options.fed.learning_rate;
  options.teacher.cycles = scale.teacher_cycles;
  options.max_test_trajectories = scale.max_test_trajectories;
  return options;
}

traj::FederatedWorkloadOptions DefaultWorkloadOptions(
    const ExperimentScale& scale, double keep_ratio) {
  traj::FederatedWorkloadOptions options;
  options.num_clients = scale.num_clients;
  options.keep_ratio = keep_ratio;
  return options;
}

traj::WorkloadProfile ScaledProfile(traj::WorkloadProfile profile,
                                    const ExperimentScale& scale) {
  profile.trajectories_per_client = scale.trajectories_per_client;
  return profile;
}

void ProfileModel(const ExperimentEnv& env, baselines::ModelKind kind,
                  const std::vector<traj::IncompleteTrajectory>& sample,
                  MethodResult* result) {
  LIGHTTR_CHECK(result != nullptr);
  LIGHTTR_CHECK(!sample.empty());
  Rng rng(123);
  auto model = baselines::MakeFactory(kind, &env.encoder())(&rng);
  result->parameters = model->params().NumScalars();

  // Forward FLOPs of one recovery (Fig. 5b).
  {
    nn::ScopedFlopCount counter;
    (void)model->Recover(sample.front());
    result->flops_per_recovery = counter.Elapsed();
  }

  // Wall seconds of one local training epoch over the sample (Fig. 5a).
  nn::AdamOptimizer optimizer(1e-3);
  fl::LocalTrainOptions local;
  local.epochs = 1;
  Rng train_rng(321);
  Stopwatch watch;
  fl::TrainLocal(model.get(), &optimizer, sample, local, &train_rng);
  result->train_epoch_seconds = watch.ElapsedSeconds();
}

MethodResult RunFederatedMethod(
    const ExperimentEnv& env, baselines::ModelKind kind,
    const std::vector<traj::ClientDataset>& clients,
    const MethodRunOptions& options) {
  MethodResult result;
  result.method = baselines::ModelKindName(kind);
  Stopwatch watch;

  const std::vector<traj::IncompleteTrajectory> test =
      ExperimentEnv::PooledTestSet(clients, options.max_test_trajectories);

  if (kind == baselines::ModelKind::kLightTr) {
    core::LightTrOptions pipeline_options;
    pipeline_options.teacher = options.teacher;
    pipeline_options.meta = options.meta;
    pipeline_options.federated = options.fed;
    pipeline_options.use_teacher = options.lighttr_use_teacher;
    core::LightTrPipeline pipeline(&env.encoder(), &clients,
                                   pipeline_options);
    result.run = pipeline.Train();
    result.metrics =
        EvaluateRecovery(pipeline.global_model(), env.network(), test);
  } else {
    fl::FederatedTrainerOptions fed = options.fed;
    if (kind == baselines::ModelKind::kFc ||
        kind == baselines::ModelKind::kRnn) {
      // Per-baseline tuning: the full-vocabulary baselines need a larger
      // step size to make progress within the scaled-down round budget
      // (each method is tuned for its best setting, as in Sec. V-A4).
      fed.learning_rate *= 3.0;
    }
    fl::FederatedTrainer trainer(baselines::MakeFactory(kind, &env.encoder()),
                                 &clients, fed);
    result.run = trainer.Run();
    result.metrics =
        EvaluateRecovery(trainer.global_model(), env.network(), test);
  }
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

MethodResult RunCentralizedMethod(
    const ExperimentEnv& env, baselines::ModelKind kind,
    const std::vector<traj::ClientDataset>& clients, int epochs,
    double learning_rate, int max_test_trajectories, uint64_t seed) {
  MethodResult result;
  result.method = baselines::ModelKindName(kind) + " (centralized)";
  Stopwatch watch;
  const std::vector<traj::IncompleteTrajectory> train =
      traj::MergeTrainSets(clients);
  baselines::CentralizedOptions options;
  options.epochs = epochs;
  options.learning_rate = learning_rate;
  options.seed = seed;
  auto model = baselines::TrainCentralized(
      baselines::MakeFactory(kind, &env.encoder()), train, options);
  const std::vector<traj::IncompleteTrajectory> test =
      ExperimentEnv::PooledTestSet(clients, max_test_trajectories);
  result.metrics = EvaluateRecovery(model.get(), env.network(), test);
  result.wall_seconds = watch.ElapsedSeconds();
  return result;
}

}  // namespace lighttr::eval
