#include "traj/downsample.h"

#include <cmath>

namespace lighttr::traj {

IncompleteTrajectory MakeIncomplete(MatchedTrajectory trajectory,
                                    double keep_ratio, Rng* rng) {
  LIGHTTR_CHECK(rng != nullptr);
  LIGHTTR_CHECK_GT(keep_ratio, 0.0);
  LIGHTTR_CHECK_LE(keep_ratio, 1.0);
  const size_t n = trajectory.points.size();
  LIGHTTR_CHECK_GE(n, 2u);

  IncompleteTrajectory icp;
  icp.observed.assign(n, false);
  icp.observed.front() = true;
  icp.observed.back() = true;
  for (size_t i = 1; i + 1 < n; ++i) {
    icp.observed[i] = rng->Bernoulli(keep_ratio);
  }
  icp.ground_truth = std::move(trajectory);
  return icp;
}

}  // namespace lighttr::traj
