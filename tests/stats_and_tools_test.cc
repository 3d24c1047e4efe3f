// Tests for dataset statistics (Table III analog).
#include <gtest/gtest.h>

#include "eval/harness.h"
#include "traj/stats.h"

namespace lighttr {
namespace {

class StatsToolsTest : public ::testing::Test {
 protected:
  StatsToolsTest() : env_(6, 6, 91) {
    traj::WorkloadProfile profile = traj::TdriveLikeProfile();
    profile.trajectories_per_client = 8;
    traj::FederatedWorkloadOptions workload;
    workload.num_clients = 3;
    workload.keep_ratio = 0.25;
    clients_ = env_.MakeWorkload(profile, workload, 92);
  }

  eval::ExperimentEnv env_;
  std::vector<traj::ClientDataset> clients_;
};

TEST_F(StatsToolsTest, DatasetStatsAreConsistent) {
  const traj::DatasetStats stats =
      traj::ComputeWorkloadStats(env_.network(), clients_);
  EXPECT_EQ(stats.trajectories, 3 * 8);
  EXPECT_EQ(stats.drivers, 3);
  EXPECT_GT(stats.points, stats.trajectories * 10);
  EXPECT_NEAR(stats.mean_points_per_trajectory,
              static_cast<double>(stats.points) / stats.trajectories, 1e-9);
  EXPECT_GT(stats.total_length_km, 1.0);
  // Generator speeds are bounded to the profile's cruise range.
  const traj::WorkloadProfile profile = traj::TdriveLikeProfile();
  EXPECT_GE(stats.mean_speed_mps, profile.generator.speed_mps_min * 0.8);
  EXPECT_LE(stats.mean_speed_mps, profile.generator.speed_mps_max * 1.1);
  EXPECT_DOUBLE_EQ(stats.epsilon_s, profile.generator.epsilon_s);
  // Keep ratio 0.25 plus forced endpoints.
  EXPECT_GT(stats.observed_fraction, 0.2);
  EXPECT_LT(stats.observed_fraction, 0.45);
}

TEST_F(StatsToolsTest, EmptyDatasetStats) {
  const traj::DatasetStats stats =
      traj::ComputeDatasetStats(env_.network(), {});
  EXPECT_EQ(stats.trajectories, 0);
  EXPECT_EQ(stats.points, 0);
  EXPECT_DOUBLE_EQ(stats.total_length_km, 0.0);
}

}  // namespace
}  // namespace lighttr
