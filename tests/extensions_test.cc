// Tests for the extension features: DP upload privacy, quantized
// communication, and HMM map matching against a greedy baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "fl/compression.h"
#include "fl/federated_trainer.h"
#include "fl/privacy.h"
#include "fl/transport/wire.h"
#include "baselines/model_zoo.h"
#include "mapmatch/hmm_map_matcher.h"
#include "roadnet/generators.h"
#include "traj/generator.h"

namespace lighttr {
namespace {

// ---------------------------------------------------------------- privacy

TEST(Privacy, DisabledIsIdentity) {
  const std::vector<nn::Scalar> upload = {1.0, 2.0, 3.0};
  const std::vector<nn::Scalar> reference = {0.0, 0.0, 0.0};
  Rng rng(1);
  EXPECT_EQ(fl::PrivatizeUpload(upload, reference, fl::PrivacyConfig{}, &rng),
            upload);
}

TEST(Privacy, ClipsDeltaNorm) {
  const std::vector<nn::Scalar> reference = {0.0, 0.0, 0.0, 0.0};
  const std::vector<nn::Scalar> upload = {10.0, 0.0, 0.0, 0.0};
  fl::PrivacyConfig config;
  config.clip_norm = 2.0;
  config.noise_multiplier = 0.0;
  Rng rng(2);
  const auto out = fl::PrivatizeUpload(upload, reference, config, &rng);
  EXPECT_NEAR(fl::DeltaNorm(out, reference), 2.0, 1e-9);
  EXPECT_NEAR(out[0], 2.0, 1e-9);  // direction preserved
}

TEST(Privacy, SmallDeltaNotScaledUp) {
  const std::vector<nn::Scalar> reference = {1.0, 1.0};
  const std::vector<nn::Scalar> upload = {1.1, 1.0};
  fl::PrivacyConfig config;
  config.clip_norm = 5.0;
  Rng rng(3);
  const auto out = fl::PrivatizeUpload(upload, reference, config, &rng);
  EXPECT_NEAR(out[0], 1.1, 1e-12);
}

TEST(Privacy, NoiseHasConfiguredScale) {
  const std::vector<nn::Scalar> reference(2000, 0.0);
  const std::vector<nn::Scalar> upload(2000, 0.0);
  fl::PrivacyConfig config;
  config.clip_norm = 1.0;
  config.noise_multiplier = 0.5;  // sigma = 0.5
  Rng rng(4);
  const auto out = fl::PrivatizeUpload(upload, reference, config, &rng);
  double sq = 0.0;
  for (nn::Scalar x : out) sq += x * x;
  EXPECT_NEAR(std::sqrt(sq / 2000.0), 0.5, 0.05);
}

TEST(Privacy, DeltaNormIsEuclidean) {
  EXPECT_NEAR(fl::DeltaNorm({3.0, 0.0}, {0.0, 4.0}), 5.0, 1e-12);
}

// ------------------------------------------------------------ compression

TEST(Compression, RoundTripWithinQuantStep) {
  Rng rng(5);
  std::vector<nn::Scalar> flat(500);
  for (nn::Scalar& x : flat) x = rng.Uniform(-3.0, 7.0);
  const fl::QuantizedBlob blob = fl::QuantizeFlat(flat);
  const auto back = fl::DequantizeFlat(blob);
  ASSERT_EQ(back.size(), flat.size());
  const double step = fl::QuantizationStep(blob);
  for (size_t i = 0; i < flat.size(); ++i) {
    EXPECT_NEAR(back[i], flat[i], step + 1e-12);
  }
}

TEST(Compression, ConstantVectorExact) {
  const std::vector<nn::Scalar> flat(10, 2.5);
  const auto back = fl::DequantizeFlat(fl::QuantizeFlat(flat));
  for (nn::Scalar x : back) EXPECT_DOUBLE_EQ(x, 2.5);
}

TEST(Compression, WireBytesAreQuarterOfFloat32) {
  const std::vector<nn::Scalar> flat(1000, 1.0);
  fl::transport::UpdatePush raw;
  raw.kind = fl::transport::PayloadKind::kRawF64;
  raw.raw = flat;
  fl::transport::UpdatePush quantized;
  quantized.kind = fl::transport::PayloadKind::kQuantizedInt8;
  quantized.quantized = fl::QuantizeFlat(flat);
  const size_t raw_bytes = fl::transport::EncodeUpdatePush(raw).size();
  const size_t quantized_bytes =
      fl::transport::EncodeUpdatePush(quantized).size();
  // Both share a 25-byte header and an 8-byte count; a raw push then
  // carries 8 bytes per weight, a quantized one the two range scalars
  // and one byte per weight.
  EXPECT_EQ(raw_bytes, 25 + 8 + 1000 * 8);
  EXPECT_EQ(quantized_bytes, 25 + 8 + 2 * 8 + 1000);
  // vs 4000 bytes at float32: ~3.8x reduction (~7.7x against the push).
  EXPECT_LT(quantized_bytes * 3, 1000 * 4);
  EXPECT_LT(quantized_bytes * 7, raw_bytes);
}

TEST(Compression, ExtremesRepresentable) {
  const std::vector<nn::Scalar> flat = {-1.0, 0.0, 1.0};
  const auto back = fl::DequantizeFlat(fl::QuantizeFlat(flat));
  EXPECT_DOUBLE_EQ(back[0], -1.0);
  EXPECT_DOUBLE_EQ(back[2], 1.0);
}

// ----------------------------------------------------------------- greedy

// The greedy nearest-segment baseline: each GPS point snapped on its own
// to its nearest segment within 80 m (then 160 m, then 320 m), ignoring
// route continuity. Empty when some point has no segment in range.
std::vector<roadnet::PointPosition> GreedyMatch(
    const roadnet::SegmentIndex& index, const traj::RawTrajectory& raw) {
  std::vector<roadnet::PointPosition> matched;
  for (const traj::RawPoint& point : raw.points) {
    std::vector<roadnet::SegmentIndex::Candidate> candidates;
    for (double radius = 80.0; candidates.empty() && radius <= 320.0;
         radius *= 2.0) {
      candidates = index.Nearby(point.position, radius);
    }
    if (candidates.empty()) return {};
    matched.push_back(candidates.front().projection.position);
  }
  return matched;
}

TEST(GreedyMatcher, HmmAtLeastAsAccurateOnNoisyData) {
  Rng rng(41);
  roadnet::CityGridOptions options;
  options.rows = 7;
  options.cols = 7;
  const roadnet::RoadNetwork net = roadnet::GenerateCityGrid(options, &rng);
  const roadnet::SegmentIndex index(net);
  const traj::TrajectoryGenerator generator(net);
  const mapmatch::HmmMapMatcher hmm(index, {});

  double hmm_error = 0.0;
  double greedy_error = 0.0;
  int points = 0;
  for (int trial = 0; trial < 8; ++trial) {
    auto truth = generator.Generate({}, roadnet::kInvalidVertex, &rng);
    ASSERT_TRUE(truth.ok());
    const traj::RawTrajectory raw =
        traj::ToRawTrajectory(net, truth.value(), 30.0, &rng);
    auto hmm_match = hmm.Match(raw);
    const std::vector<roadnet::PointPosition> greedy_match =
        GreedyMatch(index, raw);
    ASSERT_TRUE(hmm_match.ok());
    ASSERT_EQ(greedy_match.size(), raw.points.size());
    for (size_t i = 0; i < raw.points.size(); ++i) {
      const geo::GeoPoint expected =
          net.PositionToPoint(truth.value().points[i].position);
      hmm_error += geo::HaversineMeters(
          net.PositionToPoint(hmm_match.value().points[i].position),
          expected);
      greedy_error +=
          geo::HaversineMeters(net.PositionToPoint(greedy_match[i]), expected);
      ++points;
    }
  }
  // Viterbi uses route continuity that the greedy matcher ignores.
  EXPECT_LE(hmm_error / points, greedy_error / points + 1.0);
}

// -------------------------------------------- federated trainer plumbing

TEST(FederatedExtensions, QuantizedUploadsReduceUplink) {
  Rng rng(61);
  roadnet::CityGridOptions city;
  city.rows = 6;
  city.cols = 6;
  static roadnet::RoadNetwork net = roadnet::GenerateCityGrid(city, &rng);
  static roadnet::SegmentIndex index(net);
  static traj::TrajectoryEncoder encoder(net, index);
  traj::WorkloadProfile profile = traj::TdriveLikeProfile();
  profile.trajectories_per_client = 6;
  traj::FederatedWorkloadOptions workload;
  workload.num_clients = 2;
  Rng data_rng(62);
  const auto clients =
      traj::GenerateFederatedWorkload(net, profile, workload, &data_rng);

  const fl::ModelFactory factory =
      baselines::MakeFactory(baselines::ModelKind::kLightTr, &encoder);

  fl::FederatedTrainerOptions plain;
  plain.rounds = 1;
  plain.local_epochs = 1;
  fl::FederatedTrainer trainer_plain(factory, &clients, plain);
  const auto run_plain = trainer_plain.Run();

  fl::FederatedTrainerOptions quantized = plain;
  quantized.quantize_uploads = true;
  quantized.privacy.clip_norm = 50.0;
  quantized.privacy.noise_multiplier = 0.001;
  fl::FederatedTrainer trainer_q(factory, &clients, quantized);
  const auto run_q = trainer_q.Run();

  EXPECT_LT(run_q.comm.bytes_uplink, run_plain.comm.bytes_uplink / 3);
  EXPECT_EQ(run_q.comm.bytes_downlink, run_plain.comm.bytes_downlink);
  // The trained global model must still be usable.
  const auto recovered =
      trainer_q.global_model()->Recover(clients[0].test[0]);
  EXPECT_EQ(recovered.size(), clients[0].test[0].size());
}

}  // namespace
}  // namespace lighttr
