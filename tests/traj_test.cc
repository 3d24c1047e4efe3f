// Unit and property tests for src/traj: generation, downsampling,
// workloads, and validation.
#include <gtest/gtest.h>

#include "roadnet/generators.h"
#include "roadnet/shortest_path.h"
#include "traj/downsample.h"
#include "traj/generator.h"
#include "traj/trajectory.h"
#include "traj/workload.h"

namespace lighttr::traj {
namespace {

roadnet::RoadNetwork TestCity(uint64_t seed = 1) {
  Rng rng(seed);
  roadnet::CityGridOptions options;
  options.rows = 7;
  options.cols = 7;
  return roadnet::GenerateCityGrid(options, &rng);
}

TEST(Generator, ProducesValidTrajectories) {
  const roadnet::RoadNetwork net = TestCity();
  const TrajectoryGenerator generator(net);
  Rng rng(2);
  GeneratorOptions options;
  for (int i = 0; i < 20; ++i) {
    auto result = generator.Generate(options, roadnet::kInvalidVertex, &rng);
    ASSERT_TRUE(result.ok());
    const MatchedTrajectory& t = result.value();
    EXPECT_GE(static_cast<int>(t.size()), options.min_points);
    EXPECT_LE(static_cast<int>(t.size()), options.max_points);
    EXPECT_TRUE(ValidateMatchedTrajectory(net, t).ok());
  }
}

TEST(Generator, ConsecutivePointsAdvanceAtPlausibleSpeed) {
  const roadnet::RoadNetwork net = TestCity();
  const TrajectoryGenerator generator(net);
  Rng rng(3);
  GeneratorOptions options;
  auto result = generator.Generate(options, roadnet::kInvalidVertex, &rng);
  ASSERT_TRUE(result.ok());
  const MatchedTrajectory& t = result.value();
  roadnet::DijkstraEngine engine(net);
  for (size_t i = 1; i < t.size(); ++i) {
    const double d = roadnet::DirectedTravelDistance(
        net, engine, t.points[i - 1].position, t.points[i].position);
    ASSERT_NE(d, roadnet::kUnreachable);
    const double speed = d / options.epsilon_s;
    // Within the configured cruise range plus jitter headroom, except the
    // last points which may idle at the route end.
    EXPECT_LE(speed, options.speed_mps_max * (1.0 + options.speed_jitter) + 0.5);
  }
}

TEST(Generator, HomeBiasKeepsStartsNearHome) {
  const roadnet::RoadNetwork net = TestCity();
  const TrajectoryGenerator generator(net);
  Rng rng(4);
  GeneratorOptions options;
  options.home_radius_m = 600.0;
  const roadnet::VertexId home = 24;  // middle of the grid
  int near = 0;
  const int trials = 30;
  for (int i = 0; i < trials; ++i) {
    auto result = generator.Generate(options, home, &rng);
    ASSERT_TRUE(result.ok());
    const geo::GeoPoint start =
        net.PositionToPoint(result.value().points[0].position);
    if (geo::HaversineMeters(start, net.vertex(home).position) <
        options.home_radius_m + 300.0) {
      ++near;
    }
  }
  EXPECT_GE(near, trials / 2);
}

TEST(Generator, TinyNetworkFailsGracefully) {
  const roadnet::RoadNetwork chain = roadnet::GenerateChain(2, 30.0);
  const TrajectoryGenerator generator(chain);
  Rng rng(5);
  GeneratorOptions options;
  options.min_points = 50;
  options.max_points = 50;
  // A 30 m chain cannot host kilometres of route.
  auto result = generator.Generate(options, roadnet::kInvalidVertex, &rng);
  EXPECT_FALSE(result.ok());
}

TEST(Downsample, EndpointsAlwaysKept) {
  const roadnet::RoadNetwork net = TestCity();
  const TrajectoryGenerator generator(net);
  Rng rng(6);
  auto result = generator.Generate({}, roadnet::kInvalidVertex, &rng);
  ASSERT_TRUE(result.ok());
  const IncompleteTrajectory icp =
      MakeIncomplete(std::move(result).value(), 0.1, &rng);
  EXPECT_TRUE(icp.observed.front());
  EXPECT_TRUE(icp.observed.back());
  EXPECT_EQ(icp.observed.size(), icp.ground_truth.size());
}

TEST(Downsample, KeepRatioStatistics) {
  const roadnet::RoadNetwork net = TestCity();
  const TrajectoryGenerator generator(net);
  Rng rng(7);
  int kept = 0;
  int interior = 0;
  for (int i = 0; i < 40; ++i) {
    auto result = generator.Generate({}, roadnet::kInvalidVertex, &rng);
    ASSERT_TRUE(result.ok());
    const IncompleteTrajectory icp =
        MakeIncomplete(std::move(result).value(), 0.25, &rng);
    for (size_t j = 1; j + 1 < icp.size(); ++j) {
      ++interior;
      kept += icp.observed[j] ? 1 : 0;
    }
  }
  EXPECT_NEAR(static_cast<double>(kept) / interior, 0.25, 0.04);
}

TEST(Downsample, ObservedAndMissingPartition) {
  const roadnet::RoadNetwork net = TestCity();
  const TrajectoryGenerator generator(net);
  Rng rng(8);
  auto result = generator.Generate({}, roadnet::kInvalidVertex, &rng);
  ASSERT_TRUE(result.ok());
  const IncompleteTrajectory icp =
      MakeIncomplete(std::move(result).value(), 0.125, &rng);
  EXPECT_EQ(icp.ObservedIndices().size() + icp.MissingIndices().size(),
            icp.size());
}

TEST(ToRaw, NoNoiseMatchesGeometry) {
  const roadnet::RoadNetwork net = TestCity();
  const TrajectoryGenerator generator(net);
  Rng rng(9);
  auto result = generator.Generate({}, roadnet::kInvalidVertex, &rng);
  ASSERT_TRUE(result.ok());
  const MatchedTrajectory& matched = result.value();
  const RawTrajectory raw = ToRawTrajectory(net, matched, 0.0, nullptr);
  ASSERT_EQ(raw.points.size(), matched.size());
  for (size_t i = 0; i < raw.points.size(); ++i) {
    EXPECT_NEAR(geo::HaversineMeters(
                    raw.points[i].position,
                    net.PositionToPoint(matched.points[i].position)),
                0.0, 0.01);
    EXPECT_DOUBLE_EQ(raw.points[i].t, matched.points[i].t);
  }
}

TEST(ToRaw, NoiseHasRequestedScale) {
  const roadnet::RoadNetwork net = TestCity();
  const TrajectoryGenerator generator(net);
  Rng rng(10);
  GeneratorOptions options;
  options.min_points = 40;
  options.max_points = 40;
  auto result = generator.Generate(options, roadnet::kInvalidVertex, &rng);
  ASSERT_TRUE(result.ok());
  const MatchedTrajectory& matched = result.value();
  double sum_sq = 0.0;
  int n = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const RawTrajectory raw = ToRawTrajectory(net, matched, 25.0, &rng);
    for (size_t i = 0; i < raw.points.size(); ++i) {
      const double d = geo::HaversineMeters(
          raw.points[i].position,
          net.PositionToPoint(matched.points[i].position));
      sum_sq += d * d;
      ++n;
    }
  }
  // E[d^2] = 2 sigma^2 for isotropic 2-D Gaussian noise.
  EXPECT_NEAR(std::sqrt(sum_sq / n / 2.0), 25.0, 3.0);
}

TEST(Validate, RejectsBadTrajectories) {
  const roadnet::RoadNetwork net = TestCity();
  MatchedTrajectory empty;
  empty.epsilon_s = 15.0;
  EXPECT_FALSE(ValidateMatchedTrajectory(net, empty).ok());

  MatchedTrajectory bad_tid;
  bad_tid.epsilon_s = 15.0;
  bad_tid.points = {MatchedPoint{{0, 0.5}, 0.0, 0},
                    MatchedPoint{{0, 0.6}, 30.0, 2}};
  EXPECT_FALSE(ValidateMatchedTrajectory(net, bad_tid).ok());

  MatchedTrajectory bad_ratio;
  bad_ratio.epsilon_s = 15.0;
  bad_ratio.points = {MatchedPoint{{0, 1.5}, 0.0, 0}};
  EXPECT_FALSE(ValidateMatchedTrajectory(net, bad_ratio).ok());

  MatchedTrajectory bad_segment;
  bad_segment.epsilon_s = 15.0;
  bad_segment.points = {MatchedPoint{{99999, 0.5}, 0.0, 0}};
  EXPECT_FALSE(ValidateMatchedTrajectory(net, bad_segment).ok());
}

TEST(Workload, SplitsAreSevenTwoOne) {
  const roadnet::RoadNetwork net = TestCity();
  WorkloadProfile profile = GeolifeLikeProfile();
  profile.trajectories_per_client = 20;
  FederatedWorkloadOptions options;
  options.num_clients = 3;
  Rng rng(11);
  const auto clients = GenerateFederatedWorkload(net, profile, options, &rng);
  ASSERT_EQ(clients.size(), 3u);
  for (const ClientDataset& client : clients) {
    EXPECT_EQ(client.TotalSize(), 20u);
    EXPECT_EQ(client.train.size(), 14u);
    EXPECT_EQ(client.valid.size(), 4u);
    EXPECT_EQ(client.test.size(), 2u);
    EXPECT_GE(client.home, 0);
  }
}

TEST(Workload, TinyClientStillHasAllSplits) {
  const roadnet::RoadNetwork net = TestCity();
  WorkloadProfile profile = TdriveLikeProfile();
  profile.trajectories_per_client = 3;
  FederatedWorkloadOptions options;
  options.num_clients = 2;
  Rng rng(12);
  const auto clients = GenerateFederatedWorkload(net, profile, options, &rng);
  for (const ClientDataset& client : clients) {
    EXPECT_GE(client.train.size(), 1u);
    EXPECT_GE(client.valid.size(), 1u);
    EXPECT_GE(client.test.size(), 1u);
  }
}

TEST(Workload, MergeTrainSetsConcatenates) {
  const roadnet::RoadNetwork net = TestCity();
  WorkloadProfile profile = TdriveLikeProfile();
  profile.trajectories_per_client = 10;
  FederatedWorkloadOptions options;
  options.num_clients = 4;
  Rng rng(13);
  const auto clients = GenerateFederatedWorkload(net, profile, options, &rng);
  size_t expected = 0;
  for (const auto& client : clients) expected += client.train.size();
  EXPECT_EQ(MergeTrainSets(clients).size(), expected);
}

TEST(Workload, ProfilesDifferAsDocumented) {
  const WorkloadProfile tdrive = TdriveLikeProfile();
  const WorkloadProfile geolife = GeolifeLikeProfile();
  EXPECT_GT(tdrive.gps_noise_m, geolife.gps_noise_m);
  EXPECT_LT(tdrive.trajectories_per_client, geolife.trajectories_per_client);
  EXPECT_LT(tdrive.generator.max_points, geolife.generator.max_points);
}

// Property: downsampling preserves the ground truth across keep ratios.
class DownsampleProperty : public ::testing::TestWithParam<double> {};

TEST_P(DownsampleProperty, GroundTruthUntouched) {
  const roadnet::RoadNetwork net = TestCity();
  const TrajectoryGenerator generator(net);
  Rng rng(14);
  auto result = generator.Generate({}, roadnet::kInvalidVertex, &rng);
  ASSERT_TRUE(result.ok());
  const MatchedTrajectory original = result.value();
  const IncompleteTrajectory icp =
      MakeIncomplete(MatchedTrajectory(original), GetParam(), &rng);
  ASSERT_EQ(icp.ground_truth.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(icp.ground_truth.points[i].position,
              original.points[i].position);
  }
}

INSTANTIATE_TEST_SUITE_P(KeepRatios, DownsampleProperty,
                         ::testing::Values(0.0625, 0.125, 0.25, 0.5, 1.0));

}  // namespace
}  // namespace lighttr::traj
