// Tests for the evaluation metrics (Eq. 19/20) and experiment harness.
#include <gtest/gtest.h>

#include <cstdlib>

#include "eval/harness.h"
#include "eval/metrics.h"
#include "eval/scale.h"
#include "roadnet/generators.h"

namespace lighttr::eval {
namespace {

// A model that recovers every point exactly.
class OracleModel : public fl::RecoveryModel {
 public:
  const std::string& name() const override { return name_; }
  nn::ParameterSet& params() override { return params_; }
  fl::ForwardResult Forward(const traj::IncompleteTrajectory&, bool,
                            Rng*) override {
    fl::ForwardResult result;
    result.loss = nn::Tensor::Constant(nn::Matrix::Zeros(1, 1));
    return result;
  }
  std::vector<roadnet::PointPosition> Recover(
      const traj::IncompleteTrajectory& trajectory) override {
    std::vector<roadnet::PointPosition> out(trajectory.size());
    for (size_t t = 0; t < trajectory.size(); ++t) {
      out[t] = trajectory.ground_truth.points[t].position;
    }
    return out;
  }

 private:
  std::string name_ = "Oracle";
  nn::ParameterSet params_;
};

// A model that always predicts a fixed wrong segment at missing steps.
class ConstantModel : public fl::RecoveryModel {
 public:
  explicit ConstantModel(roadnet::SegmentId segment) : segment_(segment) {}
  const std::string& name() const override { return name_; }
  nn::ParameterSet& params() override { return params_; }
  fl::ForwardResult Forward(const traj::IncompleteTrajectory&, bool,
                            Rng*) override {
    fl::ForwardResult result;
    result.loss = nn::Tensor::Constant(nn::Matrix::Zeros(1, 1));
    return result;
  }
  std::vector<roadnet::PointPosition> Recover(
      const traj::IncompleteTrajectory& trajectory) override {
    std::vector<roadnet::PointPosition> out(trajectory.size());
    for (size_t t = 0; t < trajectory.size(); ++t) {
      out[t] = trajectory.observed[t]
                   ? trajectory.ground_truth.points[t].position
                   : roadnet::PointPosition{segment_, 0.5};
    }
    return out;
  }

 private:
  std::string name_ = "Constant";
  nn::ParameterSet params_;
  roadnet::SegmentId segment_;
};

class EvalTest : public ::testing::Test {
 protected:
  EvalTest() : env_(6, 6, 71) {
    traj::WorkloadProfile profile = traj::TdriveLikeProfile();
    profile.trajectories_per_client = 6;
    clients_ = env_.MakeWorkload(profile, {2, 0.25, 0.7, 0.2}, 72);
    test_ = ExperimentEnv::PooledTestSet(clients_, 10);
  }

  ExperimentEnv env_;
  std::vector<traj::ClientDataset> clients_;
  std::vector<traj::IncompleteTrajectory> test_;
};

TEST_F(EvalTest, OracleScoresPerfectly) {
  OracleModel oracle;
  const RecoveryMetrics metrics =
      EvaluateRecovery(&oracle, env_.network(), test_);
  EXPECT_DOUBLE_EQ(metrics.recall, 1.0);
  EXPECT_DOUBLE_EQ(metrics.precision, 1.0);
  EXPECT_DOUBLE_EQ(metrics.mae_km, 0.0);
  EXPECT_DOUBLE_EQ(metrics.rmse_km, 0.0);
  EXPECT_GT(metrics.recovered_points, 0);
}

TEST_F(EvalTest, ConstantModelScoresPoorly) {
  ConstantModel constant(0);
  const RecoveryMetrics metrics =
      EvaluateRecovery(&constant, env_.network(), test_);
  EXPECT_LT(metrics.recall, 0.5);
  EXPECT_GT(metrics.mae_km, 0.0);
  EXPECT_GE(metrics.rmse_km, metrics.mae_km);
}

TEST_F(EvalTest, MetricsBounded) {
  ConstantModel constant(3);
  const RecoveryMetrics metrics =
      EvaluateRecovery(&constant, env_.network(), test_);
  EXPECT_GE(metrics.recall, 0.0);
  EXPECT_LE(metrics.recall, 1.0);
  EXPECT_GE(metrics.precision, 0.0);
  EXPECT_LE(metrics.precision, 1.0);
}

TEST_F(EvalTest, SegmentSetCountsHandCase) {
  // Ground truth missing segments: {a, a, b}; recovered: {a, b, b}.
  traj::IncompleteTrajectory icp;
  icp.ground_truth.epsilon_s = 15.0;
  icp.ground_truth.points = {
      {{5, 0.1}, 0.0, 0},  // observed
      {{7, 0.2}, 15.0, 1}, {{7, 0.3}, 30.0, 2}, {{9, 0.4}, 45.0, 3},
      {{5, 0.5}, 60.0, 4},  // observed
  };
  icp.observed = {true, false, false, false, true};
  const std::vector<roadnet::PointPosition> recovered = {
      {5, 0.1}, {7, 0.25}, {9, 0.3}, {9, 0.4}, {5, 0.5}};
  const SetCounts counts = SegmentSetCounts(icp, recovered);
  EXPECT_EQ(counts.truth, 3);
  EXPECT_EQ(counts.recovered, 3);
  EXPECT_EQ(counts.intersection, 2);  // one 7 and one 9 overlap
}

TEST_F(EvalTest, PooledTestSetRespectsCap) {
  EXPECT_LE(ExperimentEnv::PooledTestSet(clients_, 1).size(), 1u);
  size_t total = 0;
  for (const auto& client : clients_) total += client.test.size();
  EXPECT_EQ(ExperimentEnv::PooledTestSet(clients_, 1000).size(), total);
}

TEST_F(EvalTest, ProfileModelFillsFields) {
  MethodResult result;
  ProfileModel(env_, baselines::ModelKind::kLightTr, test_, &result);
  EXPECT_GT(result.parameters, 0);
  EXPECT_GT(result.flops_per_recovery, 0);
  EXPECT_GT(result.train_epoch_seconds, 0.0);
}

TEST_F(EvalTest, CentralizedMethodRunsAndScores) {
  const MethodResult result = RunCentralizedMethod(
      env_, baselines::ModelKind::kFc, clients_, /*epochs=*/1,
      /*learning_rate=*/3e-3, /*max_test_trajectories=*/8, /*seed=*/5);
  EXPECT_NE(result.method.find("centralized"), std::string::npos);
  EXPECT_GT(result.metrics.recovered_points, 0);
  EXPECT_GE(result.metrics.recall, 0.0);
  EXPECT_LE(result.metrics.recall, 1.0);
  EXPECT_GT(result.wall_seconds, 0.0);
}

TEST(Scale, FromEnvParsesModes) {
  setenv("LIGHTTR_SCALE", "smoke", 1);
  EXPECT_EQ(ExperimentScale::FromEnv().name, "smoke");
  setenv("LIGHTTR_SCALE", "full", 1);
  const ExperimentScale full = ExperimentScale::FromEnv();
  EXPECT_EQ(full.name, "full");
  EXPECT_EQ(full.num_clients, 20);  // the paper's default N
  setenv("LIGHTTR_SCALE", "quick", 1);
  EXPECT_EQ(ExperimentScale::FromEnv().name, "quick");
  unsetenv("LIGHTTR_SCALE");
  EXPECT_EQ(ExperimentScale::FromEnv().name, "quick");
}

TEST(Scale, DefaultOptionsConsistent) {
  const ExperimentScale scale;  // quick defaults
  const MethodRunOptions options = DefaultRunOptions(scale);
  EXPECT_EQ(options.fed.rounds, scale.rounds);
  EXPECT_EQ(options.fed.local_epochs, scale.local_epochs);
  EXPECT_EQ(options.teacher.cycles, scale.teacher_cycles);
  const auto workload = DefaultWorkloadOptions(scale, 0.125);
  EXPECT_EQ(workload.num_clients, scale.num_clients);
  EXPECT_DOUBLE_EQ(workload.keep_ratio, 0.125);
  const auto profile = ScaledProfile(traj::TdriveLikeProfile(), scale);
  EXPECT_EQ(profile.trajectories_per_client, scale.trajectories_per_client);
}

}  // namespace
}  // namespace lighttr::eval
