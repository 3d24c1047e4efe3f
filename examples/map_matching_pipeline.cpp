// Preprocessing pipeline (paper Sec. IV-B1): noisy raw GPS trajectories
// are map-matched onto the road network with the HMM matcher, converted
// into incomplete map-matched trajectories, and finally recovered with
// a locally trained LTE model.
#include <cstdio>

#include "common/table_printer.h"
#include "eval/metrics.h"
#include "fl/local_trainer.h"
#include "lighttr/lte_model.h"
#include "mapmatch/hmm_map_matcher.h"
#include "nn/optimizer.h"
#include "roadnet/generators.h"
#include "roadnet/segment_index.h"
#include "traj/downsample.h"
#include "traj/encoding.h"
#include "traj/generator.h"

int main() {
  using namespace lighttr;

  // 1. A simulated city and its spatial index.
  Rng rng(9);
  roadnet::CityGridOptions city;
  city.rows = 8;
  city.cols = 8;
  const roadnet::RoadNetwork network = roadnet::GenerateCityGrid(city, &rng);
  const roadnet::SegmentIndex index(network);
  std::printf("city: %d vertices, %d segments\n", network.num_vertices(),
              network.num_segments());

  // 2. Simulated vehicles emit noisy GPS; the HMM matcher snaps them
  //    back onto the network.
  const traj::TrajectoryGenerator generator(network);
  const mapmatch::HmmMapMatcher matcher(index, {});
  double total_error_m = 0.0;
  int matched_points = 0;
  std::vector<traj::IncompleteTrajectory> dataset;
  while (dataset.size() < 24) {
    auto truth = generator.Generate({}, roadnet::kInvalidVertex, &rng);
    if (!truth.ok()) continue;
    const traj::RawTrajectory raw =
        traj::ToRawTrajectory(network, truth.value(), /*noise_m=*/25.0, &rng);
    auto matched = matcher.Match(raw);
    if (!matched.ok()) {
      std::printf("match failed: %s\n", matched.status().ToString().c_str());
      continue;
    }
    for (size_t i = 0; i < matched.value().size(); ++i) {
      total_error_m += geo::HaversineMeters(
          network.PositionToPoint(matched.value().points[i].position),
          network.PositionToPoint(truth.value().points[i].position));
      ++matched_points;
    }
    // 3. Downsample to a low-sampling-rate trajectory (keep 12.5%).
    dataset.push_back(
        traj::MakeIncomplete(std::move(matched).value(), 0.125, &rng));
  }
  std::printf("HMM matching error: %.1f m mean over %d points "
              "(GPS noise was 25 m)\n",
              total_error_m / matched_points, matched_points);

  // 4. Train an LTE model locally on the map-matched data and evaluate
  //    recovery quality on held-out trajectories.
  const traj::TrajectoryEncoder encoder(network, index);
  Rng model_rng(10);
  core::LteModel model(&encoder, &model_rng);
  const std::vector<traj::IncompleteTrajectory> train(dataset.begin(),
                                                      dataset.begin() + 18);
  const std::vector<traj::IncompleteTrajectory> test(dataset.begin() + 18,
                                                     dataset.end());
  nn::AdamOptimizer optimizer(3e-3);
  fl::LocalTrainOptions options;
  options.epochs = 12;
  Rng train_rng(11);
  const double loss =
      fl::TrainLocal(&model, &optimizer, train, options, &train_rng);
  const eval::RecoveryMetrics metrics =
      eval::EvaluateRecovery(&model, network, test);

  TablePrinter table({"Metric", "Value"});
  table.AddRow({"final train loss", TablePrinter::Fmt(loss)});
  table.AddRow({"Recall", TablePrinter::Fmt(metrics.recall)});
  table.AddRow({"Precision", TablePrinter::Fmt(metrics.precision)});
  table.AddRow({"MAE (km)", TablePrinter::Fmt(metrics.mae_km)});
  table.AddRow({"RMSE (km)", TablePrinter::Fmt(metrics.rmse_km)});
  std::printf("%s", table.ToString().c_str());
  return 0;
}
