// Tests for the LightTR core: LTE model behaviour, teacher training
// (Algorithm 1), meta local update dynamics (Algorithm 2 / Eq. 18), and
// the end-to-end pipeline (Algorithm 3).
#include <gtest/gtest.h>

#include <cmath>

#include "fl/local_trainer.h"
#include "lighttr/lte_model.h"
#include "lighttr/meta_local_update.h"
#include "lighttr/pipeline.h"
#include "lighttr/teacher_training.h"
#include "nn/optimizer.h"
#include "roadnet/generators.h"
#include "roadnet/segment_index.h"
#include "traj/workload.h"

namespace lighttr::core {
namespace {

class LightTrTest : public ::testing::Test {
 protected:
  LightTrTest() {
    Rng rng(51);
    roadnet::CityGridOptions options;
    options.rows = 6;
    options.cols = 6;
    network_ = roadnet::GenerateCityGrid(options, &rng);
    index_ = std::make_unique<roadnet::SegmentIndex>(network_);
    encoder_ = std::make_unique<traj::TrajectoryEncoder>(network_, *index_);

    traj::WorkloadProfile profile = traj::TdriveLikeProfile();
    profile.trajectories_per_client = 8;
    traj::FederatedWorkloadOptions workload;
    workload.num_clients = 3;
    workload.keep_ratio = 0.25;
    Rng data_rng(52);
    clients_ = traj::GenerateFederatedWorkload(network_, profile, workload,
                                               &data_rng);
  }

  fl::ModelFactory Factory() const {
    const traj::TrajectoryEncoder* encoder = encoder_.get();
    return [encoder](Rng* rng) -> std::unique_ptr<fl::RecoveryModel> {
      return std::make_unique<LteModel>(encoder, rng);
    };
  }

  roadnet::RoadNetwork network_;
  std::unique_ptr<roadnet::SegmentIndex> index_;
  std::unique_ptr<traj::TrajectoryEncoder> encoder_;
  std::vector<traj::ClientDataset> clients_;
};

TEST_F(LightTrTest, ForwardLossFiniteAndPositive) {
  Rng rng(1);
  LteModel model(encoder_.get(), &rng);
  Rng fwd(2);
  for (const auto& trajectory : clients_[0].train) {
    const fl::ForwardResult result = model.Forward(trajectory, true, &fwd);
    EXPECT_TRUE(std::isfinite(result.loss.ScalarValue()));
    EXPECT_GE(result.loss.ScalarValue(), 0.0);
    ASSERT_TRUE(result.representation.defined());
    EXPECT_EQ(result.representation.cols(), 32u);  // LTE's hidden width
    EXPECT_EQ(result.representation.rows(),
              trajectory.MissingIndices().size());
  }
}

TEST_F(LightTrTest, TrainingReducesLoss) {
  Rng rng(4);
  LteModel model(encoder_.get(), &rng);
  nn::AdamOptimizer optimizer(3e-3);
  fl::LocalTrainOptions options;
  options.epochs = 1;
  Rng train_rng(5);
  const double first = fl::TrainLocal(&model, &optimizer, clients_[0].train,
                                      options, &train_rng);
  options.epochs = 15;
  const double later = fl::TrainLocal(&model, &optimizer, clients_[0].train,
                                      options, &train_rng);
  EXPECT_LT(later, first);
}

TEST_F(LightTrTest, ParameterLayoutIdenticalAcrossReplicas) {
  Rng r1(6);
  Rng r2(7);
  auto a = Factory()(&r1);
  auto b = Factory()(&r2);
  ASSERT_EQ(a->params().size(), b->params().size());
  for (size_t i = 0; i < a->params().size(); ++i) {
    EXPECT_EQ(a->params().name(i), b->params().name(i));
    EXPECT_TRUE(a->params().tensor(i).value().SameShape(
        b->params().tensor(i).value()));
  }
}

TEST(DynamicLambda, MatchesEq18) {
  // lambda0 * 10^(min(1, (acc_tea - acc_stu) * 5) - 1)
  EXPECT_NEAR(MetaLocalUpdate::DynamicLambda(5.0, 0.6, 0.4),
              5.0 * std::pow(10.0, 1.0 - 1.0), 1e-12);  // gap 0.2 -> 5
  EXPECT_NEAR(MetaLocalUpdate::DynamicLambda(5.0, 0.9, 0.4),
              5.0, 1e-12);  // capped by min(1, .)
  EXPECT_NEAR(MetaLocalUpdate::DynamicLambda(5.0, 0.44, 0.4),
              5.0 * std::pow(10.0, 0.2 - 1.0), 1e-12);
  // Equal accuracies: exponent -1 -> lambda0 / 10.
  EXPECT_NEAR(MetaLocalUpdate::DynamicLambda(5.0, 0.5, 0.5), 0.5, 1e-12);
}

TEST_F(LightTrTest, TeacherTrainingProducesWorkingModel) {
  TeacherTrainingOptions options;
  options.cycles = 1;
  auto teacher = TrainTeacher(Factory(), clients_, options);
  ASSERT_NE(teacher, nullptr);
  const double accuracy =
      fl::EvaluateSegmentAccuracy(teacher.get(), clients_[0].valid);
  EXPECT_GE(accuracy, 0.0);
  EXPECT_LE(accuracy, 1.0);
}

TEST_F(LightTrTest, MetaLocalUpdateRunsWithAndWithoutTeacher) {
  Rng rng(9);
  auto model = Factory()(&rng);
  nn::AdamOptimizer optimizer(3e-3);
  Rng update_rng(10);

  MetaLocalUpdate no_teacher(nullptr, MetaLocalOptions{});
  const double loss1 = no_teacher.Update(0, model.get(), &optimizer,
                                         clients_[0], 1, &update_rng);
  EXPECT_TRUE(std::isfinite(loss1));

  TeacherTrainingOptions teacher_options;
  teacher_options.cycles = 1;
  auto teacher = TrainTeacher(Factory(), clients_, teacher_options);
  MetaLocalUpdate with_teacher(teacher.get(), MetaLocalOptions{});
  const double loss2 = with_teacher.Update(0, model.get(), &optimizer,
                                           clients_[0], 2, &update_rng);
  EXPECT_TRUE(std::isfinite(loss2));
}

TEST_F(LightTrTest, PipelineEndToEnd) {
  LightTrOptions options;
  options.federated.rounds = 2;
  options.federated.local_epochs = 1;
  options.teacher.cycles = 1;
  LightTrPipeline pipeline(encoder_.get(), &clients_, options);
  const fl::FederatedRunResult result = pipeline.Train();
  EXPECT_EQ(result.comm.rounds, 2);
  ASSERT_NE(pipeline.global_model(), nullptr);
  ASSERT_NE(pipeline.teacher(), nullptr);
  const auto recovered = pipeline.global_model()->Recover(clients_[0].test[0]);
  EXPECT_EQ(recovered.size(), clients_[0].test[0].size());
}

TEST_F(LightTrTest, PipelineWithoutTeacherSkipsAlgorithm1) {
  LightTrOptions options;
  options.use_teacher = false;
  options.federated.rounds = 1;
  options.federated.local_epochs = 1;
  LightTrPipeline pipeline(encoder_.get(), &clients_, options);
  const fl::FederatedRunResult result = pipeline.Train();
  EXPECT_EQ(pipeline.teacher(), nullptr);
  EXPECT_EQ(result.comm.rounds, 1);
}

}  // namespace
}  // namespace lighttr::core
