// Tests for the model zoo, the centralized trainer, and the contract
// every recovery model kind (the four baselines and LightTR's LTE)
// keeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "baselines/centralized_trainer.h"
#include "baselines/model_zoo.h"
#include "fl/local_trainer.h"
#include "nn/optimizer.h"
#include "roadnet/generators.h"
#include "roadnet/segment_index.h"
#include "traj/workload.h"

namespace lighttr::baselines {
namespace {

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest() {
    Rng rng(61);
    roadnet::CityGridOptions options;
    options.rows = 6;
    options.cols = 6;
    network_ = roadnet::GenerateCityGrid(options, &rng);
    index_ = std::make_unique<roadnet::SegmentIndex>(network_);
    encoder_ = std::make_unique<traj::TrajectoryEncoder>(network_, *index_);

    traj::WorkloadProfile profile = traj::TdriveLikeProfile();
    profile.trajectories_per_client = 6;
    traj::FederatedWorkloadOptions workload;
    workload.num_clients = 2;
    workload.keep_ratio = 0.25;
    Rng data_rng(62);
    clients_ = traj::GenerateFederatedWorkload(network_, profile, workload,
                                               &data_rng);
  }

  roadnet::RoadNetwork network_;
  std::unique_ptr<roadnet::SegmentIndex> index_;
  std::unique_ptr<traj::TrajectoryEncoder> encoder_;
  std::vector<traj::ClientDataset> clients_;
};

TEST_F(BaselinesTest, ModelZooNamesAndFactories) {
  const std::vector<std::pair<ModelKind, std::string>> expectations = {
      {ModelKind::kFc, "FC+FL"},
      {ModelKind::kRnn, "RNN+FL"},
      {ModelKind::kMTrajRec, "MTrajRec+FL"},
      {ModelKind::kRnTrajRec, "RNTrajRec+FL"},
      {ModelKind::kLightTr, "LightTR"},
  };
  for (const auto& [kind, name] : expectations) {
    EXPECT_EQ(ModelKindName(kind), name);
    Rng rng(5);
    auto model = MakeFactory(kind, encoder_.get())(&rng);
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), name);
    EXPECT_GT(model->params().NumScalars(), 0);
  }
}

TEST_F(BaselinesTest, ModelSizeOrderingMatchesFig5) {
  // LightTR must be lighter than MTrajRec and RNTrajRec in parameters.
  Rng rng(6);
  auto light = MakeFactory(ModelKind::kLightTr, encoder_.get())(&rng);
  auto mtraj = MakeFactory(ModelKind::kMTrajRec, encoder_.get())(&rng);
  auto rntraj = MakeFactory(ModelKind::kRnTrajRec, encoder_.get())(&rng);
  EXPECT_LT(light->params().NumScalars(), mtraj->params().NumScalars());
  EXPECT_LT(mtraj->params().NumScalars(), rntraj->params().NumScalars());
}

TEST_F(BaselinesTest, CentralizedTrainerRuns) {
  CentralizedOptions options;
  options.epochs = 2;
  auto model = TrainCentralized(MakeFactory(ModelKind::kFc, encoder_.get()),
                                traj::MergeTrainSets(clients_), options);
  ASSERT_NE(model, nullptr);
  const auto recovered = model->Recover(clients_[0].test[0]);
  EXPECT_EQ(recovered.size(), clients_[0].test[0].size());
}

// The contract both shared decoders (core::Seq2SeqModel and
// PerStepModel) give every model built on them.
class ModelContract : public BaselinesTest,
                      public ::testing::WithParamInterface<ModelKind> {
 protected:
  std::unique_ptr<fl::RecoveryModel> MakeModel(uint64_t seed) const {
    Rng rng(seed);
    return MakeFactory(GetParam(), encoder_.get())(&rng);
  }
};

TEST_P(ModelContract, ForwardRecoverAndTraining) {
  auto model = MakeModel(static_cast<uint64_t>(GetParam()) + 1);
  EXPECT_GT(model->params().NumScalars(), 0);
  Rng rng(63);
  for (const auto& trajectory : clients_[0].train) {
    const fl::ForwardResult result = model->Forward(trajectory, true, &rng);
    EXPECT_TRUE(std::isfinite(result.loss.ScalarValue()));
    EXPECT_GE(result.loss.ScalarValue(), 0.0);
  }
  const auto& sample = clients_[0].test[0];
  const auto recovered = model->Recover(sample);
  ASSERT_EQ(recovered.size(), sample.size());
  for (size_t t = 0; t < sample.size(); ++t) {
    EXPECT_GE(recovered[t].segment, 0);
    EXPECT_LT(recovered[t].segment, network_.num_segments());
    EXPECT_GE(recovered[t].ratio, 0.0);
    EXPECT_LE(recovered[t].ratio, 1.0);
    if (sample.observed[t]) {
      EXPECT_EQ(recovered[t], sample.ground_truth.points[t].position);
    }
  }

  nn::AdamOptimizer optimizer(3e-3);
  fl::LocalTrainOptions options;
  options.epochs = 1;
  Rng train_rng(64);
  const double first = fl::TrainLocal(model.get(), &optimizer,
                                      clients_[0].train, options, &train_rng);
  options.epochs = 10;
  const double later = fl::TrainLocal(model.get(), &optimizer,
                                      clients_[0].train, options, &train_rng);
  EXPECT_LT(later, first);
}

TEST_P(ModelContract, FullyObservedTrajectoryHasNothingToRecover) {
  auto model = MakeModel(9);
  traj::IncompleteTrajectory full = clients_[0].train[0];
  full.observed.assign(full.size(), true);
  Rng rng(10);
  for (bool training : {true, false}) {
    const fl::ForwardResult result =
        model->Forward(full, training, training ? &rng : nullptr);
    EXPECT_EQ(result.loss.ScalarValue(), 0.0) << "training=" << training;
    EXPECT_FALSE(result.representation.defined());
  }
  const auto recovered = model->Recover(full);
  ASSERT_EQ(recovered.size(), full.size());
  for (size_t t = 0; t < full.size(); ++t) {
    EXPECT_EQ(recovered[t], full.ground_truth.points[t].position);
  }
}

TEST_P(ModelContract, RepresentationHasOneRowPerMissingStep) {
  auto model = MakeModel(11);
  Rng rng(12);
  for (const auto& trajectory : clients_[0].train) {
    const size_t missing = trajectory.MissingIndices().size();
    ASSERT_GT(missing, 0u);
    const fl::ForwardResult result = model->Forward(trajectory, true, &rng);
    ASSERT_TRUE(result.representation.defined());
    EXPECT_EQ(result.representation.rows(), missing);
  }
}

TEST_P(ModelContract, EvalForwardCarriesNoStateBetweenCalls) {
  auto model = MakeModel(13);
  for (const auto& trajectory : clients_[0].train) {
    const double a =
        model->Forward(trajectory, false, nullptr).loss.ScalarValue();
    const double b =
        model->Forward(trajectory, false, nullptr).loss.ScalarValue();
    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0) << a << " vs " << b;
  }
}

// Bitwise equality of two matrices: same shape, same bytes.
void ExpectSameBits(const nn::Matrix& a, const nn::Matrix& b,
                    const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(nn::Scalar)),
            0)
      << what;
}

// The encoded entry points the training loops call with a cached
// encoding are the trajectory entry points, bit for bit: loss,
// representation and every parameter gradient, with dropout on (same
// seed) and off, and the recovered positions.
TEST_P(ModelContract, EncodedEntryPointsMatchTrajectoryEntryPoints) {
  auto direct = MakeModel(15);
  auto cached = MakeModel(15);
  ASSERT_EQ(direct->encoder(), encoder_.get());
  ASSERT_EQ(cached->encoder(), encoder_.get());
  nn::ParameterSet& direct_params = direct->params();
  nn::ParameterSet& cached_params = cached->params();
  for (const auto& trajectory : clients_[0].train) {
    const traj::EncodedTrajectory encoded = encoder_->Encode(trajectory);
    for (bool training : {true, false}) {
      SCOPED_TRACE("training=" + std::to_string(training));
      direct_params.ZeroGrads();
      cached_params.ZeroGrads();
      Rng direct_rng(16);
      Rng cached_rng(16);
      fl::ForwardResult a = direct->Forward(
          trajectory, training, training ? &direct_rng : nullptr);
      fl::ForwardResult b = cached->ForwardEncoded(
          encoded, trajectory, training, training ? &cached_rng : nullptr);
      ExpectSameBits(a.loss.value(), b.loss.value(), "loss");
      ASSERT_TRUE(a.representation.defined());
      ASSERT_TRUE(b.representation.defined());
      ExpectSameBits(a.representation.value(), b.representation.value(),
                     "representation");
      a.loss.Backward();
      b.loss.Backward();
      ASSERT_EQ(direct_params.size(), cached_params.size());
      for (size_t i = 0; i < direct_params.size(); ++i) {
        ExpectSameBits(direct_params.tensor(i).grad(),
                       cached_params.tensor(i).grad(),
                       "grad of " + direct_params.name(i));
      }
    }
    EXPECT_EQ(direct->Recover(trajectory),
              cached->RecoverEncoded(encoded, trajectory));
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ModelContract,
                         ::testing::Values(ModelKind::kFc, ModelKind::kRnn,
                                           ModelKind::kMTrajRec,
                                           ModelKind::kRnTrajRec,
                                           ModelKind::kLightTr));

// The zero-initialised segment head (MtHead) makes a freshly built
// masked model recover the Eq. 10 prior: at every missing step, the
// candidate at the first maximum of that step's log mask. A control that
// recovers that argmax without a model (ROADMAP item 1) stands in for an
// untrained model only while this holds.
class ZeroInitPrior : public BaselinesTest,
                      public ::testing::WithParamInterface<ModelKind> {};

TEST_P(ZeroInitPrior, UntrainedModelRecoversTheMaskArgmax) {
  // The default mask's route bonus leads every step by a wide margin.
  // Without it and the heading term, the directed twins of a street tie,
  // so the first-maximum rule decides nearly every step.
  traj::EncoderOptions geometric;
  geometric.route_prior_bonus = 0.0;
  geometric.direction_weight = 0.0;
  const traj::TrajectoryEncoder twins(network_, *index_, geometric);
  const traj::TrajectoryEncoder* const encoders[] = {encoder_.get(), &twins};
  for (traj::WorkloadProfile profile :
       {traj::GeolifeLikeProfile(), traj::TdriveLikeProfile()}) {
    profile.trajectories_per_client = 8;
    traj::FederatedWorkloadOptions workload;
    workload.num_clients = 2;
    workload.keep_ratio = 0.125;
    Rng data_rng(71);
    const std::vector<traj::ClientDataset> clients =
        traj::GenerateFederatedWorkload(network_, profile, workload,
                                        &data_rng);
    for (const traj::TrajectoryEncoder* encoder : encoders) {
      SCOPED_TRACE(profile.name + (encoder == &twins ? ", twins tie" : ""));
      Rng rng(72);
      auto model = MakeFactory(GetParam(), encoder)(&rng);
      size_t steps = 0;
      for (const traj::ClientDataset& client : clients) {
        for (const auto* split : {&client.train, &client.test}) {
          for (const traj::IncompleteTrajectory& trajectory : *split) {
            const traj::EncodedTrajectory encoded = encoder->Encode(trajectory);
            const auto recovered = model->Recover(trajectory);
            for (size_t k = 0; k < encoded.missing.size(); ++k) {
              const traj::StepCandidates& step = encoded.candidates[k];
              const auto first_max = std::max_element(step.log_mask.begin(),
                                                      step.log_mask.end());
              ASSERT_EQ(recovered[encoded.missing[k]].segment,
                        step.segments[static_cast<size_t>(
                            first_max - step.log_mask.begin())])
                  << "step " << encoded.missing[k];
              ++steps;
            }
          }
        }
      }
      EXPECT_GT(steps, 200u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MaskedKinds, ZeroInitPrior,
                         ::testing::Values(ModelKind::kMTrajRec,
                                           ModelKind::kRnTrajRec,
                                           ModelKind::kLightTr));

// Property: every model kind survives a federated round-trip of
// serialize -> deserialize with bitwise-equal float32 parameters.
class ModelSerializationProperty
    : public BaselinesTest,
      public ::testing::WithParamInterface<ModelKind> {};

TEST_P(ModelSerializationProperty, SerializeRoundTrip) {
  Rng r1(7);
  Rng r2(8);
  auto source = MakeFactory(GetParam(), encoder_.get())(&r1);
  auto dest = MakeFactory(GetParam(), encoder_.get())(&r2);
  ASSERT_TRUE(dest->params().Deserialize(source->params().Serialize()).ok());
  const auto a = source->params().Flatten();
  const auto b = dest->params().Flatten();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ModelSerializationProperty,
                         ::testing::Values(ModelKind::kFc, ModelKind::kRnn,
                                           ModelKind::kMTrajRec,
                                           ModelKind::kRnTrajRec,
                                           ModelKind::kLightTr));

}  // namespace
}  // namespace lighttr::baselines
