#include "traj/encoding.h"

#include "roadnet/shortest_path.h"

#include <algorithm>
#include <optional>
#include <cmath>

namespace lighttr::traj {

namespace {

// Pads the network bounding box slightly so interpolated points near the
// border always fall inside the grid.
geo::GeoPoint Pad(const geo::GeoPoint& p, double dlat, double dlng) {
  return {p.lat + dlat, p.lng + dlng};
}

// Surrounding observed anchors of step t (prev <= t <= next).
struct AnchorSpan {
  size_t prev = 0;
  size_t next = 0;
  double alpha = 0.0;  // fractional position of t within [prev, next]
};

double Alpha(size_t prev, size_t next, size_t t) {
  return next > prev
             ? static_cast<double>(t - prev) / static_cast<double>(next - prev)
             : 0.0;
}

AnchorSpan FindAnchors(const IncompleteTrajectory& trajectory, size_t t) {
  size_t prev = t;
  while (prev > 0 && !trajectory.observed[prev]) --prev;
  size_t next = t;
  const size_t n = trajectory.observed.size();
  while (next + 1 < n && !trajectory.observed[next]) ++next;
  return {prev, next, Alpha(prev, next, t)};
}

// FindAnchors of every step, from one forward and one backward sweep.
std::vector<AnchorSpan> AllAnchors(const IncompleteTrajectory& trajectory) {
  const size_t n = trajectory.observed.size();
  std::vector<AnchorSpan> spans(n);
  for (size_t t = 0; t < n; ++t) {
    spans[t].prev =
        (t == 0 || trajectory.observed[t]) ? t : spans[t - 1].prev;
  }
  for (size_t t = n; t-- > 0;) {
    spans[t].next =
        (t + 1 == n || trajectory.observed[t]) ? t : spans[t + 1].next;
    spans[t].alpha = Alpha(spans[t].prev, spans[t].next, t);
  }
  return spans;
}

// The steps whose interpolated points give step t's travel heading.
size_t StepBefore(const AnchorSpan& span, size_t t) {
  return t > span.prev ? t - 1 : span.prev;
}
size_t StepAfter(const AnchorSpan& span, size_t t) {
  return t < span.next ? t + 1 : span.next;
}

// One piece of an anchor-to-anchor route: `segment` traversed from
// `from_ratio` to `to_ratio`.
struct Piece {
  roadnet::SegmentId segment;
  double from_ratio;
  double to_ratio;
};

// An anchor gap: the true positions of its two anchors and the shortest
// directed route between them, searched once for every step in the gap.
struct Gap {
  size_t prev = 0;
  size_t next = 0;
  roadnet::PointPosition a;
  roadnet::PointPosition b;
  geo::GeoPoint a_point;
  geo::GeoPoint b_point;
  double meters = 0.0;        // straight-line distance between the anchors
  std::vector<Piece> pieces;  // in travel order; empty when no route exists
  double total = 0.0;         // route length in meters
};

Gap MakeGap(const roadnet::RoadNetwork& network,
            const IncompleteTrajectory& trajectory, const AnchorSpan& span) {
  Gap gap;
  gap.prev = span.prev;
  gap.next = span.next;
  gap.a = trajectory.ground_truth.points[span.prev].position;
  gap.b = trajectory.ground_truth.points[span.next].position;
  gap.a_point = network.PositionToPoint(gap.a);
  gap.b_point = network.PositionToPoint(gap.b);
  gap.meters = geo::EquirectangularMeters(gap.a_point, gap.b_point);
  if (gap.a.segment == gap.b.segment && gap.b.ratio >= gap.a.ratio) {
    gap.pieces.push_back({gap.a.segment, gap.a.ratio, gap.b.ratio});
  } else {
    const roadnet::Segment& sa = network.segment(gap.a.segment);
    const roadnet::Segment& sb = network.segment(gap.b.segment);
    auto route = roadnet::VertexRoute(network, sa.to, sb.from);
    if (!route.ok()) return gap;
    gap.pieces.push_back({gap.a.segment, gap.a.ratio, 1.0});
    for (roadnet::SegmentId e : route.value()) {
      gap.pieces.push_back({e, 0.0, 1.0});
    }
    gap.pieces.push_back({gap.b.segment, 0.0, gap.b.ratio});
  }
  for (const Piece& piece : gap.pieces) {
    gap.total += (piece.to_ratio - piece.from_ratio) *
                 network.segment(piece.segment).length_m;
  }
  return gap;
}

// Constant-speed position along the gap's route (which must exist) at
// fraction alpha. A strict comparison maps piece boundaries to the *next*
// segment's start — matching the generator's representation of boundary
// points.
roadnet::PointPosition PositionAlong(const roadnet::RoadNetwork& network,
                                     const Gap& gap, double alpha) {
  if (gap.total <= 0.0) return gap.a;
  double remaining = alpha * gap.total;
  for (const Piece& piece : gap.pieces) {
    const double len = (piece.to_ratio - piece.from_ratio) *
                       network.segment(piece.segment).length_m;
    if (remaining + 1e-6 < len || &piece == &gap.pieces.back()) {
      const double seg_len = network.segment(piece.segment).length_m;
      const double ratio =
          piece.from_ratio + (seg_len > 0.0 ? remaining / seg_len : 0.0);
      return roadnet::PointPosition{
          piece.segment,
          std::clamp(ratio, piece.from_ratio, piece.to_ratio)};
    }
    remaining -= len;
  }
  return gap.b;  // unreachable, but keeps the compiler satisfied
}

// Step t's interpolated point and the segment its route position lies on
// (kInvalidSegment for the linear fallback). `gap` is t's anchor gap
// unless t is observed, when the truth is used.
struct StepEstimate {
  geo::GeoPoint point;
  roadnet::SegmentId route_segment = roadnet::kInvalidSegment;
};

StepEstimate Estimate(const roadnet::RoadNetwork& network,
                      const IncompleteTrajectory& trajectory, const Gap& gap,
                      size_t t) {
  roadnet::PointPosition position;
  if (trajectory.observed[t]) {
    position = trajectory.ground_truth.points[t].position;
  } else if (!gap.pieces.empty()) {
    position = PositionAlong(network, gap, Alpha(gap.prev, gap.next, t));
  } else {
    // Linear fallback when no directed route connects the anchors.
    return {geo::Lerp(gap.a_point, gap.b_point, Alpha(gap.prev, gap.next, t)),
            roadnet::kInvalidSegment};
  }
  return {network.PositionToPoint(position), position.segment};
}

// Every step's anchors and estimate, plus the anchor distance of its gap,
// with one route search per anchor gap.
struct Geometry {
  std::vector<AnchorSpan> spans;
  std::vector<StepEstimate> estimates;
  std::vector<double> gap_m;
};

Geometry Trace(const roadnet::RoadNetwork& network,
               const IncompleteTrajectory& trajectory) {
  const size_t n = trajectory.size();
  LIGHTTR_CHECK_GE(n, 2u);
  LIGHTTR_CHECK_EQ(trajectory.observed.size(), n);
  Geometry geometry;
  geometry.spans = AllAnchors(trajectory);
  geometry.estimates.resize(n);
  geometry.gap_m.resize(n);
  std::optional<Gap> gap;
  for (size_t t = 0; t < n; ++t) {
    // The missing steps between two anchors are consecutive and share
    // one gap.
    const AnchorSpan& span = geometry.spans[t];
    if (!gap || gap->prev != span.prev || gap->next != span.next) {
      gap = MakeGap(network, trajectory, span);
    }
    geometry.estimates[t] = Estimate(network, trajectory, *gap, t);
    geometry.gap_m[t] = gap->meters;
  }
  return geometry;
}

nn::Matrix FillInputs(const geo::GridSpec& grid,
                      const roadnet::RoadNetwork& network,
                      const IncompleteTrajectory& trajectory,
                      const Geometry& geometry) {
  const size_t n = trajectory.size();
  nn::Matrix inputs(n, TrajectoryEncoder::kFeatureDim);
  const auto cols = static_cast<double>(grid.cols());
  const auto rows = static_cast<double>(grid.rows());
  for (size_t t = 0; t < n; ++t) {
    const bool observed = trajectory.observed[t];
    const geo::GridCell cell = grid.CellOf(geometry.estimates[t].point);
    const AnchorSpan& span = geometry.spans[t];
    const geo::GridCell prev_cell =
        grid.CellOf(network.PositionToPoint(
            trajectory.ground_truth.points[span.prev].position));
    const geo::GridCell next_cell =
        grid.CellOf(network.PositionToPoint(
            trajectory.ground_truth.points[span.next].position));
    inputs(t, 0) = observed ? 1.0 : 0.0;
    inputs(t, 1) = (cell.x + 0.5) / cols;
    inputs(t, 2) = (cell.y + 0.5) / rows;
    inputs(t, 3) =
        observed ? trajectory.ground_truth.points[t].position.ratio : 0.0;
    inputs(t, 4) = span.alpha;
    inputs(t, 5) = static_cast<double>(span.next - span.prev) /
                   static_cast<double>(n);
    inputs(t, 6) = static_cast<double>(t) / static_cast<double>(n);
    inputs(t, 7) = (prev_cell.x + 0.5) / cols;
    inputs(t, 8) = (prev_cell.y + 0.5) / rows;
    inputs(t, 9) = (next_cell.x + 0.5) / cols;
    inputs(t, 10) = (next_cell.y + 0.5) / rows;
  }
  return inputs;
}

}  // namespace

TrajectoryEncoder::TrajectoryEncoder(const roadnet::RoadNetwork& network,
                                     const roadnet::SegmentIndex& index,
                                     EncoderOptions options)
    : network_(network),
      index_(index),
      options_(options),
      grid_(Pad(network.min_corner(), -0.01, -0.01),
            Pad(network.max_corner(), 0.01, 0.01), options.grid_cell_m) {
  LIGHTTR_CHECK_GT(options_.candidate_radius_m, 0.0);
  LIGHTTR_CHECK_GE(options_.max_candidates, 1);
  LIGHTTR_CHECK_GT(options_.gamma, 0.0);
}

std::optional<roadnet::PointPosition>
TrajectoryEncoder::RouteInterpolatedPosition(
    const IncompleteTrajectory& trajectory, size_t t) const {
  LIGHTTR_CHECK_LT(t, trajectory.size());
  if (trajectory.observed[t]) {
    return trajectory.ground_truth.points[t].position;
  }
  const Gap gap = MakeGap(network_, trajectory, FindAnchors(trajectory, t));
  if (gap.pieces.empty()) return std::nullopt;
  return PositionAlong(network_, gap, Alpha(gap.prev, gap.next, t));
}

geo::GeoPoint TrajectoryEncoder::InterpolatedPoint(
    const IncompleteTrajectory& trajectory, size_t t) const {
  LIGHTTR_CHECK_LT(t, trajectory.size());
  const Gap gap = MakeGap(network_, trajectory, FindAnchors(trajectory, t));
  return Estimate(network_, trajectory, gap, t).point;
}

nn::Matrix TrajectoryEncoder::EncodeInputs(
    const IncompleteTrajectory& trajectory) const {
  return FillInputs(grid_, network_, trajectory, Trace(network_, trajectory));
}

std::vector<StepTarget> TrajectoryEncoder::EncodeTargets(
    const IncompleteTrajectory& trajectory) const {
  std::vector<StepTarget> targets(trajectory.size());
  for (size_t t = 0; t < trajectory.size(); ++t) {
    const MatchedPoint& mp = trajectory.ground_truth.points[t];
    targets[t].segment = mp.position.segment;
    targets[t].ratio = mp.position.ratio;
    targets[t].missing = !trajectory.observed[t];
  }
  return targets;
}

StepCandidates TrajectoryEncoder::CandidatesForStep(
    const IncompleteTrajectory& trajectory, size_t t) const {
  LIGHTTR_CHECK_LT(t, trajectory.size());
  const AnchorSpan span = FindAnchors(trajectory, t);
  const Gap gap = MakeGap(network_, trajectory, span);
  const StepEstimate estimate = Estimate(network_, trajectory, gap, t);
  StepGeometry step;
  step.estimate = estimate.point;
  step.route_segment = estimate.route_segment;
  step.gap_m = gap.meters;
  step.before =
      Estimate(network_, trajectory, gap, StepBefore(span, t)).point;
  step.after = Estimate(network_, trajectory, gap, StepAfter(span, t)).point;
  return BuildCandidates(step,
                         trajectory.ground_truth.points[t].position.segment);
}

EncodedTrajectory TrajectoryEncoder::Encode(
    const IncompleteTrajectory& trajectory) const {
  const Geometry geometry = Trace(network_, trajectory);
  EncodedTrajectory out;
  out.inputs = FillInputs(grid_, network_, trajectory, geometry);
  out.targets = EncodeTargets(trajectory);
  out.missing = trajectory.MissingIndices();
  out.candidates.reserve(out.missing.size());
  for (size_t t : out.missing) {
    const AnchorSpan& span = geometry.spans[t];
    StepGeometry step;
    step.estimate = geometry.estimates[t].point;
    step.route_segment = geometry.estimates[t].route_segment;
    step.gap_m = geometry.gap_m[t];
    step.before = geometry.estimates[StepBefore(span, t)].point;
    step.after = geometry.estimates[StepAfter(span, t)].point;
    out.candidates.push_back(
        BuildCandidates(step, out.targets[t].segment));
  }
  return out;
}

StepCandidates TrajectoryEncoder::BuildCandidates(
    const StepGeometry& step, roadnet::SegmentId true_segment) const {
  // Scale the search radius and mask length with the distance between
  // the surrounding anchors: a mid-gap point can stray far from the
  // straight-line estimate (road detours), so a fixed radius would
  // exclude the truth and poison the CE loss with -inf-like masks.
  const double radius = std::max(options_.candidate_radius_m,
                                 options_.radius_gap_factor * step.gap_m);
  const double sigma =
      std::max(options_.gamma, options_.gamma_gap_factor * step.gap_m);

  auto nearby = index_.Nearby(step.estimate, radius);
  if (static_cast<int>(nearby.size()) > options_.max_candidates) {
    nearby.resize(static_cast<size_t>(options_.max_candidates));
  }

  // Local travel heading, estimated from the interpolated positions of
  // the neighbouring steps. Breaks the tie between a street's two
  // directed twin segments.
  const geo::LocalProjection plane(step.estimate);
  const auto h0 = plane.ToXy(step.before);
  const auto h1 = plane.ToXy(step.after);
  const double hx = h1.x - h0.x;
  const double hy = h1.y - h0.y;
  const double heading_norm = std::sqrt(hx * hx + hy * hy);

  StepCandidates out;
  // Eq. 10: c_i = exp(-dist^2 / gamma); log c_i below. gamma is read as
  // a length scale (meters) that widens with the anchor gap; a direction
  // penalty disambiguates the two directed twins of a street.
  const auto log_mask_of = [&](roadnet::SegmentId segment, double d) {
    double mask = -d * d / (2.0 * sigma * sigma);
    if (segment == step.route_segment) mask += options_.route_prior_bonus;
    if (heading_norm > 1.0 && options_.direction_weight > 0.0) {
      const roadnet::Segment& seg = network_.segment(segment);
      const auto a = plane.ToXy(network_.vertex(seg.from).position);
      const auto b = plane.ToXy(network_.vertex(seg.to).position);
      const double sx = b.x - a.x;
      const double sy = b.y - a.y;
      const double seg_norm = std::sqrt(sx * sx + sy * sy);
      if (seg_norm > 0.0) {
        const double cosine =
            (hx * sx + hy * sy) / (heading_norm * seg_norm);
        mask += options_.direction_weight * (cosine - 1.0);
      }
    }
    return static_cast<nn::Scalar>(mask);
  };
  for (const auto& candidate : nearby) {
    if (candidate.segment == true_segment) {
      out.target_index = static_cast<int>(out.segments.size());
      out.target_in_range = true;
    }
    out.segments.push_back(candidate.segment);
    out.log_mask.push_back(
        log_mask_of(candidate.segment, candidate.projection.distance_m));
  }
  if (out.target_index < 0) {
    // True segment outside the search radius: append it so the loss is
    // defined. Its mask weight uses its actual distance.
    const auto proj = network_.ProjectOntoSegment(true_segment, step.estimate);
    out.target_index = static_cast<int>(out.segments.size());
    out.segments.push_back(true_segment);
    out.log_mask.push_back(log_mask_of(true_segment, proj.distance_m));
  }
  return out;
}

}  // namespace lighttr::traj
