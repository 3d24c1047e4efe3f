// Featurization of incomplete trajectories for neural recovery models,
// including the candidate generation and distance weights used by the
// constraint mask layer (paper Eq. 10/11).
//
// All recovery models (LightTR and baselines) consume the same encoding,
// so accuracy comparisons reflect the models, not the features.
#ifndef LIGHTTR_TRAJ_ENCODING_H_
#define LIGHTTR_TRAJ_ENCODING_H_

#include <optional>
#include <vector>

#include "geo/grid.h"
#include "nn/matrix.h"
#include "roadnet/segment_index.h"
#include "traj/trajectory.h"

namespace lighttr::traj {

/// Per-step recovery targets derived from the ground truth.
struct StepTarget {
  int segment = 0;      // true road segment id
  double ratio = 0.0;   // true moving ratio
  bool missing = false; // whether this step must be recovered
};

/// Candidate road segments for one step, with constraint-mask weights.
struct StepCandidates {
  std::vector<int> segments;       // candidate segment ids
  std::vector<nn::Scalar> log_mask;  // log c_i of Eq. 10 per candidate
  int target_index = -1;           // position of the true segment, or -1
  /// True when the true segment was found by the spatial search. When
  /// false, the mask of Eq. 10 assigns it (near-)zero probability
  /// ("omega = 0" in the paper), making the step unlearnable — models
  /// skip its CE term rather than memorise an exception.
  bool target_in_range = false;
};

/// Everything a recovery model reads of one trajectory, built in one pass
/// by TrajectoryEncoder::Encode.
struct EncodedTrajectory {
  nn::Matrix inputs;                     // [T, kFeatureDim], as EncodeInputs
  std::vector<StepTarget> targets;       // as EncodeTargets
  std::vector<size_t> missing;           // the missing steps, ascending
  std::vector<StepCandidates> candidates;  // candidates[k] is step missing[k]'s
};

/// Options for TrajectoryEncoder.
struct EncoderOptions {
  double grid_cell_m = 200.0;       // Eq. 4 discretisation cell size
  double candidate_radius_m = 300.0;  // base constraint-mask search radius
  /// The search radius and mask scale grow with the distance between the
  /// surrounding anchors: mid-gap points can be far from the linear
  /// interpolation estimate, so a fixed radius would exclude the truth.
  double radius_gap_factor = 0.45;
  int max_candidates = 32;
  double gamma = 125.0;             // Eq. 10 length scale in meters
  double gamma_gap_factor = 0.3;    // mask scale growth with anchor gap
  /// Directed road networks carry both directions of a street as twin
  /// segments at identical geometric distance; the mask additionally
  /// penalises candidates whose direction opposes the local travel
  /// heading: log-mask += weight * (cos(angle) - 1).
  double direction_weight = 2.0;
  /// Log-mask bonus for the candidate the shortest-route interpolation
  /// lands on. Near intersections several segments are equidistant from
  /// the estimate; the route itself disambiguates them (trajectories are
  /// road-constrained). 0 disables.
  double route_prior_bonus = 2.5;
};

/// Encodes incomplete trajectories into model inputs and targets.
class TrajectoryEncoder {
 public:
  TrajectoryEncoder(const roadnet::RoadNetwork& network,
                    const roadnet::SegmentIndex& index,
                    EncoderOptions options = {});

  /// Number of features per step (fixed by the encoding).
  static constexpr size_t kFeatureDim = 11;

  /// Inputs, targets and every missing step's candidates, equal to
  /// EncodeInputs, EncodeTargets and CandidatesForStep, in one pass: the
  /// anchors come from one forward and one backward sweep, each anchor
  /// gap runs one route search, and each step's interpolated point is
  /// computed once.
  EncodedTrajectory Encode(const IncompleteTrajectory& trajectory) const;

  /// Encodes a [T, kFeatureDim] input matrix. Features per step:
  ///   0: observed flag
  ///   1: normalized grid x of the (anchor-interpolated) position (Eq. 4)
  ///   2: normalized grid y
  ///   3: observed moving ratio (0 when missing)
  ///   4: alpha — fractional position between surrounding anchors
  ///   5: normalized gap length between the surrounding anchors
  ///   6: normalized time bin t / T
  ///   7: normalized grid x of the previous observed anchor
  ///   8: normalized grid y of the previous observed anchor
  ///   9: normalized grid x of the next observed anchor
  ///  10: normalized grid y of the next observed anchor
  /// Missing steps carry the linear interpolation between the previous
  /// and next observed anchors, which every model receives equally.
  nn::Matrix EncodeInputs(const IncompleteTrajectory& trajectory) const;

  /// Ground-truth targets per step.
  std::vector<StepTarget> EncodeTargets(
      const IncompleteTrajectory& trajectory) const;

  /// Candidates + constraint-mask weights for step `t`, built around the
  /// anchor-interpolated position (the model does not see the ground
  /// truth). If the true segment is not among the spatial candidates it
  /// is appended (standard practice so the CE loss is well-defined);
  /// `target_index` records its position either way.
  StepCandidates CandidatesForStep(const IncompleteTrajectory& trajectory,
                                   size_t t) const;

  /// The anchor-interpolated estimate for step `t` (public for the
  /// case-study visualisation): the position a constant-speed vehicle
  /// would reach at step t while following the shortest road route
  /// between the surrounding observed anchors. Falls back to linear
  /// lat/lng interpolation when no directed route exists. Trajectories
  /// are map-constrained, so the route-based estimate is far stronger
  /// than the straight line.
  geo::GeoPoint InterpolatedPoint(const IncompleteTrajectory& trajectory,
                                  size_t t) const;

  /// Like InterpolatedPoint but returns the network position (segment +
  /// moving ratio) when a route exists; nullopt when only the linear
  /// fallback is available.
  std::optional<roadnet::PointPosition> RouteInterpolatedPosition(
      const IncompleteTrajectory& trajectory, size_t t) const;

  const roadnet::RoadNetwork& network() const { return network_; }
  const EncoderOptions& options() const { return options_; }
  size_t num_segments() const {
    return static_cast<size_t>(network_.num_segments());
  }

 private:
  /// What the candidate builder reads of one step besides its truth.
  struct StepGeometry {
    geo::GeoPoint estimate;  // the step's interpolated point
    /// Segment the route interpolation lands on; kInvalidSegment when
    /// only the linear fallback exists.
    roadnet::SegmentId route_segment = roadnet::kInvalidSegment;
    double gap_m = 0.0;    // distance between the surrounding anchors
    geo::GeoPoint before;  // interpolated points of the neighbouring
    geo::GeoPoint after;   // steps, which give the travel heading
  };

  /// The candidates and Eq. 10 log mask of one step (CandidatesForStep).
  StepCandidates BuildCandidates(const StepGeometry& step,
                                 roadnet::SegmentId true_segment) const;

  const roadnet::RoadNetwork& network_;
  const roadnet::SegmentIndex& index_;
  EncoderOptions options_;
  geo::GridSpec grid_;
};

}  // namespace lighttr::traj

#endif  // LIGHTTR_TRAJ_ENCODING_H_
