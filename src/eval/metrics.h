// Evaluation metrics of paper Sec. V-A2: Recall & Precision over
// recovered road segments (Eq. 19) and MAE & RMSE over the
// road-network-constrained distance (Eq. 20).
#ifndef LIGHTTR_EVAL_METRICS_H_
#define LIGHTTR_EVAL_METRICS_H_

#include <cstdint>
#include <vector>

#include "fl/recovery_model.h"
#include "roadnet/road_network.h"
#include "traj/trajectory.h"

namespace lighttr::eval {

/// Aggregated recovery quality over a test set.
struct RecoveryMetrics {
  double recall = 0.0;
  double precision = 0.0;
  double mae_km = 0.0;
  double rmse_km = 0.0;
  int64_t recovered_points = 0;
};

/// Segment-set recall/precision of one trajectory's recovery (Eq. 19):
/// multiset intersection of recovered vs ground-truth segments over the
/// missing steps.
struct SetCounts {
  int64_t intersection = 0;
  int64_t recovered = 0;  // |P_R|
  int64_t truth = 0;      // |G|
};
SetCounts SegmentSetCounts(const traj::IncompleteTrajectory& trajectory,
                           const std::vector<roadnet::PointPosition>& recovered);

/// Evaluates `model` over `test`: recall/precision micro-averaged across
/// trajectories, MAE/RMSE in kilometers of network-constrained distance
/// between each recovered point and its ground truth. Falls back to the
/// great-circle distance when no directed route connects a prediction
/// to the truth (possible on pathological graphs).
RecoveryMetrics EvaluateRecovery(
    fl::RecoveryModel* model, const roadnet::RoadNetwork& network,
    const std::vector<traj::IncompleteTrajectory>& test);

}  // namespace lighttr::eval

#endif  // LIGHTTR_EVAL_METRICS_H_
