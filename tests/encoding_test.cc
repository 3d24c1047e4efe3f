// Tests for the trajectory encoder: features, targets, candidates, the
// constraint mask (Eq. 10/11), route-based interpolation, and the
// one-pass Encode against the per-step functions.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "roadnet/generators.h"
#include "roadnet/segment_index.h"
#include "segment_index_oracle.h"
#include "traj/downsample.h"
#include "traj/encoding.h"
#include "traj/generator.h"
#include "traj/workload.h"

namespace lighttr::traj {
namespace {

using test_util::Bits;

// Step t's surrounding anchors by scanning outward (prev <= t <= next).
std::pair<size_t, size_t> ScanAnchors(const IncompleteTrajectory& icp,
                                      size_t t) {
  size_t prev = t;
  while (prev > 0 && !icp.observed[prev]) --prev;
  size_t next = t;
  while (next + 1 < icp.size() && !icp.observed[next]) ++next;
  return {prev, next};
}

// EncodeInputs rebuilt step by step from InterpolatedPoint and scanned
// anchors, as an oracle for the one-pass geometry.
nn::Matrix PerStepInputs(const TrajectoryEncoder& encoder,
                         const IncompleteTrajectory& icp) {
  const roadnet::RoadNetwork& net = encoder.network();
  const geo::GridSpec grid(
      {net.min_corner().lat - 0.01, net.min_corner().lng - 0.01},
      {net.max_corner().lat + 0.01, net.max_corner().lng + 0.01},
      encoder.options().grid_cell_m);
  const size_t n = icp.size();
  const auto cols = static_cast<double>(grid.cols());
  const auto rows = static_cast<double>(grid.rows());
  nn::Matrix inputs(n, TrajectoryEncoder::kFeatureDim);
  for (size_t t = 0; t < n; ++t) {
    const auto [prev, next] = ScanAnchors(icp, t);
    const geo::GridCell cell = grid.CellOf(encoder.InterpolatedPoint(icp, t));
    const geo::GridCell prev_cell = grid.CellOf(
        net.PositionToPoint(icp.ground_truth.points[prev].position));
    const geo::GridCell next_cell = grid.CellOf(
        net.PositionToPoint(icp.ground_truth.points[next].position));
    inputs(t, 0) = icp.observed[t] ? 1.0 : 0.0;
    inputs(t, 1) = (cell.x + 0.5) / cols;
    inputs(t, 2) = (cell.y + 0.5) / rows;
    inputs(t, 3) =
        icp.observed[t] ? icp.ground_truth.points[t].position.ratio : 0.0;
    inputs(t, 4) = next > prev ? static_cast<double>(t - prev) /
                                     static_cast<double>(next - prev)
                               : 0.0;
    inputs(t, 5) = static_cast<double>(next - prev) / static_cast<double>(n);
    inputs(t, 6) = static_cast<double>(t) / static_cast<double>(n);
    inputs(t, 7) = (prev_cell.x + 0.5) / cols;
    inputs(t, 8) = (prev_cell.y + 0.5) / rows;
    inputs(t, 9) = (next_cell.x + 0.5) / cols;
    inputs(t, 10) = (next_cell.y + 0.5) / rows;
  }
  return inputs;
}

void ExpectSameMatrix(const nn::Matrix& got, const nn::Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (size_t r = 0; r < got.rows(); ++r) {
    for (size_t c = 0; c < got.cols(); ++c) {
      EXPECT_EQ(Bits(got(r, c)), Bits(want(r, c))) << r << "," << c;
    }
  }
}

void ExpectSameCandidates(const StepCandidates& got,
                          const StepCandidates& want) {
  EXPECT_EQ(got.segments, want.segments);
  ASSERT_EQ(got.log_mask.size(), want.log_mask.size());
  for (size_t i = 0; i < got.log_mask.size(); ++i) {
    EXPECT_EQ(Bits(got.log_mask[i]), Bits(want.log_mask[i])) << i;
  }
  EXPECT_EQ(got.target_index, want.target_index);
  EXPECT_EQ(got.target_in_range, want.target_in_range);
}

void ExpectSameEncoding(const EncodedTrajectory& got,
                        const EncodedTrajectory& want) {
  ExpectSameMatrix(got.inputs, want.inputs);
  ASSERT_EQ(got.targets.size(), want.targets.size());
  for (size_t t = 0; t < got.targets.size(); ++t) {
    EXPECT_EQ(got.targets[t].segment, want.targets[t].segment);
    EXPECT_EQ(Bits(got.targets[t].ratio), Bits(want.targets[t].ratio));
    EXPECT_EQ(got.targets[t].missing, want.targets[t].missing);
  }
  EXPECT_EQ(got.missing, want.missing);
  ASSERT_EQ(got.candidates.size(), want.candidates.size());
  for (size_t k = 0; k < got.candidates.size(); ++k) {
    ExpectSameCandidates(got.candidates[k], want.candidates[k]);
  }
}

// Encode must equal the per-step functions bitwise.
void ExpectEncodeMatchesPerStep(const TrajectoryEncoder& encoder,
                                const IncompleteTrajectory& icp) {
  EncodedTrajectory per_step;
  per_step.inputs = encoder.EncodeInputs(icp);
  per_step.targets = encoder.EncodeTargets(icp);
  per_step.missing = icp.MissingIndices();
  for (size_t t : per_step.missing) {
    per_step.candidates.push_back(encoder.CandidatesForStep(icp, t));
  }
  const EncodedTrajectory encoded = encoder.Encode(icp);
  ExpectSameEncoding(encoded, per_step);
  ExpectSameMatrix(encoded.inputs, PerStepInputs(encoder, icp));
}

// A trajectory of `positions` (one per step), observed where `observed`.
IncompleteTrajectory HandBuilt(
    const std::vector<roadnet::PointPosition>& positions,
    std::vector<bool> observed) {
  IncompleteTrajectory icp;
  icp.ground_truth.epsilon_s = 10.0;
  for (size_t i = 0; i < positions.size(); ++i) {
    icp.ground_truth.points.push_back(
        MatchedPoint{positions[i], 10.0 * static_cast<double>(i),
                     static_cast<int64_t>(i)});
  }
  icp.observed = std::move(observed);
  return icp;
}

class EncodingTest : public ::testing::Test {
 protected:
  EncodingTest() {
    Rng rng(31);
    roadnet::CityGridOptions options;
    options.rows = 7;
    options.cols = 7;
    network_ = roadnet::GenerateCityGrid(options, &rng);
    index_ = std::make_unique<roadnet::SegmentIndex>(network_);
    encoder_ = std::make_unique<TrajectoryEncoder>(network_, *index_);
  }

  IncompleteTrajectory MakeSample(double keep_ratio = 0.25,
                                  uint64_t seed = 32) {
    Rng rng(seed);
    const TrajectoryGenerator generator(network_);
    auto result = generator.Generate({}, roadnet::kInvalidVertex, &rng);
    EXPECT_TRUE(result.ok());
    return MakeIncomplete(std::move(result).value(), keep_ratio, &rng);
  }

  roadnet::RoadNetwork network_;
  std::unique_ptr<roadnet::SegmentIndex> index_;
  std::unique_ptr<TrajectoryEncoder> encoder_;
};

TEST_F(EncodingTest, InputShapeAndRanges) {
  const IncompleteTrajectory icp = MakeSample();
  const nn::Matrix inputs = encoder_->EncodeInputs(icp);
  EXPECT_EQ(inputs.rows(), icp.size());
  EXPECT_EQ(inputs.cols(), TrajectoryEncoder::kFeatureDim);
  for (size_t r = 0; r < inputs.rows(); ++r) {
    for (size_t c = 0; c < inputs.cols(); ++c) {
      EXPECT_GE(inputs(r, c), 0.0) << r << "," << c;
      EXPECT_LE(inputs(r, c), 1.0) << r << "," << c;
    }
    EXPECT_EQ(inputs(r, 0), icp.observed[r] ? 1.0 : 0.0);
  }
}

TEST_F(EncodingTest, TargetsMatchGroundTruth) {
  const IncompleteTrajectory icp = MakeSample();
  const auto targets = encoder_->EncodeTargets(icp);
  ASSERT_EQ(targets.size(), icp.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    EXPECT_EQ(targets[t].segment,
              icp.ground_truth.points[t].position.segment);
    EXPECT_DOUBLE_EQ(targets[t].ratio,
                     icp.ground_truth.points[t].position.ratio);
    EXPECT_EQ(targets[t].missing, !icp.observed[t]);
  }
}

TEST_F(EncodingTest, CandidatesAlwaysContainTruth) {
  const IncompleteTrajectory icp = MakeSample(0.125, 33);
  for (size_t t = 0; t < icp.size(); ++t) {
    const StepCandidates candidates = encoder_->CandidatesForStep(icp, t);
    ASSERT_GE(candidates.target_index, 0);
    ASSERT_LT(static_cast<size_t>(candidates.target_index),
              candidates.segments.size());
    EXPECT_EQ(candidates.segments[candidates.target_index],
              icp.ground_truth.points[t].position.segment);
    EXPECT_EQ(candidates.segments.size(), candidates.log_mask.size());
  }
}

TEST_F(EncodingTest, MaskIsLogWeightNonPositiveNearZeroForTruthAtObserved) {
  const IncompleteTrajectory icp = MakeSample(0.25, 34);
  const double bonus = encoder_->options().route_prior_bonus;
  for (size_t t = 0; t < icp.size(); ++t) {
    const StepCandidates candidates = encoder_->CandidatesForStep(icp, t);
    // Only the route-prior candidate may carry a positive (bonus) mask.
    int positive = 0;
    for (nn::Scalar mask : candidates.log_mask) {
      EXPECT_LE(mask, bonus + 1e-12);
      positive += mask > 1e-12 ? 1 : 0;
    }
    EXPECT_LE(positive, 1);
    if (icp.observed[t]) {
      // At observed points the estimate sits on the true segment, whose
      // distance term vanishes (direction term may not for twins).
      EXPECT_GE(candidates.log_mask[candidates.target_index], -4.5);
    }
  }
}

TEST_F(EncodingTest, InterpolatedPointIsExactAtObservedSteps) {
  const IncompleteTrajectory icp = MakeSample(0.25, 35);
  for (size_t t = 0; t < icp.size(); ++t) {
    if (!icp.observed[t]) continue;
    const geo::GeoPoint expected =
        network_.PositionToPoint(icp.ground_truth.points[t].position);
    EXPECT_NEAR(geo::HaversineMeters(encoder_->InterpolatedPoint(icp, t),
                                     expected),
                0.0, 0.01);
  }
}

TEST_F(EncodingTest, RouteInterpolationRecoversConstantSpeedChainExactly) {
  // A straight chain with a constant-speed trajectory: the route-based
  // interpolation must land on the true segment with the true ratio.
  const roadnet::RoadNetwork chain = roadnet::GenerateChain(20, 100.0);
  const roadnet::SegmentIndex index(chain);
  const TrajectoryEncoder encoder(chain, index);

  MatchedTrajectory t;
  t.epsilon_s = 10.0;
  // 50 m per step eastward along the chain (segment k covers [100k, 100k+100]).
  for (int i = 0; i < 16; ++i) {
    const double meters = 50.0 * i;
    const int vertex = static_cast<int>(meters / 100.0);
    const double ratio = (meters - vertex * 100.0) / 100.0;
    const roadnet::SegmentId seg = chain.FindSegment(vertex, vertex + 1);
    ASSERT_NE(seg, roadnet::kInvalidSegment);
    t.points.push_back(MatchedPoint{{seg, ratio}, i * 10.0, i});
  }
  IncompleteTrajectory icp;
  icp.observed.assign(16, false);
  icp.observed[0] = icp.observed[5] = icp.observed[10] = icp.observed[15] =
      true;
  icp.ground_truth = std::move(t);

  for (size_t i = 0; i < 16; ++i) {
    auto position = encoder.RouteInterpolatedPosition(icp, i);
    ASSERT_TRUE(position.has_value()) << i;
    EXPECT_EQ(position->segment,
              icp.ground_truth.points[i].position.segment)
        << i;
    EXPECT_NEAR(position->ratio, icp.ground_truth.points[i].position.ratio,
                1e-6)
        << i;
  }
}

TEST_F(EncodingTest, DirectionMaskPrefersTravelDirection) {
  // On a two-way chain, the mask must rank the forward segment above its
  // reverse twin at interior missing steps.
  const roadnet::RoadNetwork chain = roadnet::GenerateChain(20, 100.0);
  const roadnet::SegmentIndex index(chain);
  const TrajectoryEncoder encoder(chain, index);

  MatchedTrajectory t;
  t.epsilon_s = 10.0;
  for (int i = 0; i < 12; ++i) {
    const double meters = 80.0 * i;
    const int vertex = static_cast<int>(meters / 100.0);
    const double ratio = (meters - vertex * 100.0) / 100.0;
    const roadnet::SegmentId seg = chain.FindSegment(vertex, vertex + 1);
    t.points.push_back(MatchedPoint{{seg, ratio}, i * 10.0, i});
  }
  IncompleteTrajectory icp;
  icp.observed.assign(12, false);
  icp.observed[0] = icp.observed[11] = true;
  icp.ground_truth = std::move(t);

  for (size_t i = 1; i < 11; ++i) {
    const StepCandidates chain_candidates = encoder.CandidatesForStep(icp, i);
    const int truth = icp.ground_truth.points[i].position.segment;
    const auto& seg = chain.segment(truth);
    const roadnet::SegmentId reverse = chain.FindSegment(seg.to, seg.from);
    double truth_mask = 1.0;
    double reverse_mask = 1.0;
    for (size_t k = 0; k < chain_candidates.segments.size(); ++k) {
      if (chain_candidates.segments[k] == truth) {
        truth_mask = chain_candidates.log_mask[k];
      }
      if (chain_candidates.segments[k] == reverse) {
        reverse_mask = chain_candidates.log_mask[k];
      }
    }
    EXPECT_LT(reverse_mask, truth_mask) << "step " << i;
  }
}

TEST_F(EncodingTest, EncodeMatchesPerStepFunctionsOnCorpus) {
  // Both profiles x four keep ratios on two cities; the segment index
  // also answers the encoder's own queries exactly as the oracle does.
  Rng city_rng(44);
  roadnet::CityGridOptions city;
  city.rows = 9;
  city.cols = 9;
  const roadnet::RoadNetwork second =
      roadnet::GenerateCityGrid(city, &city_rng);
  const roadnet::SegmentIndex second_index(second);
  const TrajectoryEncoder second_encoder(second, second_index);
  struct City {
    const TrajectoryEncoder* encoder;
    const roadnet::SegmentIndex* index;
  };
  size_t steps = 0;
  for (const City& c : {City{encoder_.get(), index_.get()},
                        City{&second_encoder, &second_index}}) {
    const roadnet::RoadNetwork& net = c.encoder->network();
    const test_util::OracleIndex oracle(net);
    const TrajectoryGenerator generator(net);
    Rng rng(45);
    for (const WorkloadProfile& profile :
         {TdriveLikeProfile(), GeolifeLikeProfile()}) {
      for (const double keep : {0.0625, 0.125, 0.25, 0.5}) {
        for (int i = 0; i < 6; ++i) {
          auto matched = generator.Generate(profile.generator,
                                            roadnet::kInvalidVertex, &rng);
          ASSERT_TRUE(matched.ok());
          const IncompleteTrajectory icp =
              MakeIncomplete(std::move(matched).value(), keep, &rng);
          ExpectEncodeMatchesPerStep(*c.encoder, icp);
          for (size_t t : icp.MissingIndices()) {
            const auto [prev, next] = ScanAnchors(icp, t);
            const double gap_m = geo::EquirectangularMeters(
                net.PositionToPoint(icp.ground_truth.points[prev].position),
                net.PositionToPoint(icp.ground_truth.points[next].position));
            const EncoderOptions& options = c.encoder->options();
            const double radius =
                std::max(options.candidate_radius_m,
                         options.radius_gap_factor * gap_m);
            const geo::GeoPoint p = c.encoder->InterpolatedPoint(icp, t);
            test_util::ExpectSameCandidates(c.index->Nearby(p, radius),
                                            oracle.Nearby(p, radius));
            ++steps;
          }
        }
      }
    }
  }
  EXPECT_GT(steps, 1000u);
}

TEST_F(EncodingTest, EncodeFallsBackToLinearWithoutDirectedRoute) {
  // A one-way chain traversed against its direction: no directed route
  // connects the anchors, so the missing steps use the straight line.
  roadnet::RoadNetwork chain;
  const geo::LocalProjection plane({39.9, 116.4});
  for (int i = 0; i < 5; ++i) chain.AddVertex(plane.FromXy({100.0 * i, 0.0}));
  for (int i = 0; i < 4; ++i) chain.AddSegment(i, i + 1);
  chain.Finalize();
  const roadnet::SegmentIndex index(chain);
  const TrajectoryEncoder encoder(chain, index);
  const IncompleteTrajectory icp =
      HandBuilt({{3, 0.5}, {2, 0.5}, {2, 0.1}, {1, 0.5}, {0, 0.9}, {0, 0.5}},
                {true, false, false, false, false, true});
  for (size_t t = 1; t < 5; ++t) {
    EXPECT_FALSE(encoder.RouteInterpolatedPosition(icp, t).has_value()) << t;
  }
  ExpectEncodeMatchesPerStep(encoder, icp);
}

TEST_F(EncodingTest, EncodeHandlesAnchorsOnOneSegment) {
  // Forward: the route is the one segment between the two ratios.
  // Backward: the route leaves the segment and loops back to its start.
  const roadnet::RoadNetwork chain = roadnet::GenerateChain(6, 100.0);
  const roadnet::SegmentIndex index(chain);
  const TrajectoryEncoder encoder(chain, index);
  const roadnet::SegmentId seg = chain.FindSegment(2, 3);
  const IncompleteTrajectory forward =
      HandBuilt({{seg, 0.1}, {seg, 0.3}, {seg, 0.5}, {seg, 0.7}, {seg, 0.9}},
                {true, false, false, false, true});
  for (size_t t = 1; t < 4; ++t) {
    const auto position = encoder.RouteInterpolatedPosition(forward, t);
    ASSERT_TRUE(position.has_value());
    EXPECT_EQ(position->segment, seg);
  }
  ExpectEncodeMatchesPerStep(encoder, forward);
  const IncompleteTrajectory backward =
      HandBuilt({{seg, 0.9}, {seg, 0.7}, {seg, 0.5}, {seg, 0.3}, {seg, 0.1}},
                {true, false, false, false, true});
  ExpectEncodeMatchesPerStep(encoder, backward);
}

TEST_F(EncodingTest, EncodeHandlesMissingEndpointsAndFullObservation) {
  const IncompleteTrajectory sample = MakeSample(0.25, 37);
  const size_t n = sample.size();
  IncompleteTrajectory first = sample;
  first.observed[0] = false;
  ExpectEncodeMatchesPerStep(*encoder_, first);
  IncompleteTrajectory last = sample;
  last.observed[n - 1] = false;
  ExpectEncodeMatchesPerStep(*encoder_, last);
  IncompleteTrajectory both = sample;
  both.observed[0] = both.observed[1] = false;
  both.observed[n - 1] = both.observed[n - 2] = false;
  ExpectEncodeMatchesPerStep(*encoder_, both);
  IncompleteTrajectory none = sample;
  none.observed.assign(n, false);
  ExpectEncodeMatchesPerStep(*encoder_, none);

  IncompleteTrajectory full = sample;
  full.observed.assign(n, true);
  ExpectEncodeMatchesPerStep(*encoder_, full);
  const EncodedTrajectory encoded = encoder_->Encode(full);
  EXPECT_TRUE(encoded.missing.empty());
  EXPECT_TRUE(encoded.candidates.empty());
}

TEST_F(EncodingTest, ConcurrentEncodeAndNearbyMatchSerial) {
  std::vector<IncompleteTrajectory> corpus;
  for (uint64_t seed = 0; seed < 24; ++seed) {
    corpus.push_back(MakeSample(0.125, 100 + seed));
  }
  const double radius = encoder_->options().candidate_radius_m;
  const auto queries = [&](const IncompleteTrajectory& icp) {
    std::vector<std::vector<roadnet::SegmentIndex::Candidate>> out;
    for (size_t t : icp.MissingIndices()) {
      out.push_back(
          index_->Nearby(encoder_->InterpolatedPoint(icp, t), radius));
    }
    return out;
  };
  std::vector<EncodedTrajectory> encoded(corpus.size());
  std::vector<std::vector<std::vector<roadnet::SegmentIndex::Candidate>>>
      nearby(corpus.size());
  ThreadPool pool(4);
  pool.ParallelFor(corpus.size(),  // lint: shared-state(encoded, nearby)
                   [&](size_t i) {
                     encoded[i] = encoder_->Encode(corpus[i]);
                     nearby[i] = queries(corpus[i]);
                   });
  for (size_t i = 0; i < corpus.size(); ++i) {
    ExpectSameEncoding(encoded[i], encoder_->Encode(corpus[i]));
    const auto serial = queries(corpus[i]);
    ASSERT_EQ(nearby[i].size(), serial.size());
    for (size_t k = 0; k < serial.size(); ++k) {
      test_util::ExpectSameCandidates(nearby[i][k], serial[k]);
    }
  }
}

TEST_F(EncodingTest, FullyObservedTrajectoryHasNoMissingTargets) {
  IncompleteTrajectory icp = MakeSample(1.0, 36);
  for (size_t i = 0; i < icp.size(); ++i) icp.observed[i] = true;
  const auto targets = encoder_->EncodeTargets(icp);
  for (const StepTarget& target : targets) EXPECT_FALSE(target.missing);
}

}  // namespace
}  // namespace lighttr::traj
