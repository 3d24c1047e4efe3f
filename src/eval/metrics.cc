#include "eval/metrics.h"

#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "geo/geo_point.h"
#include "roadnet/shortest_path.h"

namespace lighttr::eval {

SetCounts SegmentSetCounts(
    const traj::IncompleteTrajectory& trajectory,
    const std::vector<roadnet::PointPosition>& recovered) {
  LIGHTTR_CHECK_EQ(recovered.size(), trajectory.size());
  std::unordered_map<int, int64_t> truth_counts;
  std::unordered_map<int, int64_t> recovered_counts;
  SetCounts counts;
  for (size_t t = 0; t < trajectory.size(); ++t) {
    if (trajectory.observed[t]) continue;
    ++truth_counts[trajectory.ground_truth.points[t].position.segment];
    ++recovered_counts[recovered[t].segment];
    ++counts.truth;
    ++counts.recovered;
  }
  for (const auto& [segment, count] : recovered_counts) {
    auto it = truth_counts.find(segment);
    if (it != truth_counts.end()) {
      counts.intersection += std::min(count, it->second);
    }
  }
  return counts;
}

RecoveryMetrics EvaluateRecovery(
    fl::RecoveryModel* model, const roadnet::RoadNetwork& network,
    const std::vector<traj::IncompleteTrajectory>& test) {
  LIGHTTR_CHECK(model != nullptr);
  roadnet::DijkstraEngine engine(network);

  int64_t intersection = 0;
  int64_t recovered_total = 0;
  int64_t truth_total = 0;
  double abs_sum_km = 0.0;
  double sq_sum_km = 0.0;
  int64_t points = 0;

  for (const traj::IncompleteTrajectory& trajectory : test) {
    const std::vector<roadnet::PointPosition> recovered =
        model->Recover(trajectory);
    const SetCounts counts = SegmentSetCounts(trajectory, recovered);
    intersection += counts.intersection;
    recovered_total += counts.recovered;
    truth_total += counts.truth;

    for (size_t t = 0; t < trajectory.size(); ++t) {
      if (trajectory.observed[t]) continue;
      const roadnet::PointPosition& truth =
          trajectory.ground_truth.points[t].position;
      double d_m = roadnet::ConstrainedDistance(network, engine, recovered[t],
                                                truth);
      if (d_m == roadnet::kUnreachable) {
        d_m = geo::HaversineMeters(network.PositionToPoint(recovered[t]),
                                   network.PositionToPoint(truth));
      }
      const double d_km = d_m / 1000.0;
      abs_sum_km += d_km;
      sq_sum_km += d_km * d_km;
      ++points;
    }
  }

  RecoveryMetrics metrics;
  metrics.recovered_points = points;
  if (truth_total > 0) {
    metrics.recall =
        static_cast<double>(intersection) / static_cast<double>(truth_total);
  }
  if (recovered_total > 0) {
    metrics.precision = static_cast<double>(intersection) /
                        static_cast<double>(recovered_total);
  }
  if (points > 0) {
    metrics.mae_km = abs_sum_km / static_cast<double>(points);
    metrics.rmse_km = std::sqrt(sq_sum_km / static_cast<double>(points));
  }
  return metrics;
}

}  // namespace lighttr::eval
