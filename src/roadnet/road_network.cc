#include "roadnet/road_network.h"

#include <algorithm>
#include <cmath>

namespace lighttr::roadnet {

VertexId RoadNetwork::AddVertex(const geo::GeoPoint& position) {
  LIGHTTR_CHECK(!finalized_);
  vertices_.push_back(Vertex{position});
  min_corner_.lat = std::min(min_corner_.lat, position.lat);
  min_corner_.lng = std::min(min_corner_.lng, position.lng);
  max_corner_.lat = std::max(max_corner_.lat, position.lat);
  max_corner_.lng = std::max(max_corner_.lng, position.lng);
  return static_cast<VertexId>(vertices_.size() - 1);
}

SegmentId RoadNetwork::AddSegment(VertexId from, VertexId to,
                                  double length_m) {
  LIGHTTR_CHECK(!finalized_);
  LIGHTTR_CHECK_GE(from, 0);
  LIGHTTR_CHECK_LT(from, num_vertices());
  LIGHTTR_CHECK_GE(to, 0);
  LIGHTTR_CHECK_LT(to, num_vertices());
  LIGHTTR_CHECK_NE(from, to);
  if (length_m < 0.0) {
    length_m =
        geo::HaversineMeters(vertices_[from].position, vertices_[to].position);
  }
  LIGHTTR_CHECK_GT(length_m, 0.0);
  segments_.push_back(Segment{from, to, length_m});
  return static_cast<SegmentId>(segments_.size() - 1);
}

SegmentId RoadNetwork::AddTwoWay(VertexId u, VertexId v) {
  const SegmentId forward = AddSegment(u, v);
  AddSegment(v, u, segments_[forward].length_m);
  return forward;
}

void RoadNetwork::Finalize() {
  LIGHTTR_CHECK(!finalized_);
  out_segments_.assign(vertices_.size(), {});
  in_segments_.assign(vertices_.size(), {});
  for (SegmentId e = 0; e < num_segments(); ++e) {
    out_segments_[segments_[e].from].push_back(e);
    in_segments_[segments_[e].to].push_back(e);
  }
  frames_.reserve(segments_.size());
  for (const Segment& seg : segments_) {
    const geo::GeoPoint& a = vertices_[seg.from].position;
    const geo::LocalProjection plane(a);
    const auto pa = plane.ToXy(a);
    const auto pb = plane.ToXy(vertices_[seg.to].position);
    const double dx = pb.x - pa.x;
    const double dy = pb.y - pa.y;
    frames_.push_back(ProjectionFrame{plane, pa, dx, dy, dx * dx + dy * dy});
  }
  finalized_ = true;
}

const std::vector<SegmentId>& RoadNetwork::OutSegments(VertexId v) const {
  LIGHTTR_CHECK(finalized_);
  LIGHTTR_CHECK_GE(v, 0);
  LIGHTTR_CHECK_LT(v, num_vertices());
  return out_segments_[v];
}

const std::vector<SegmentId>& RoadNetwork::InSegments(VertexId v) const {
  LIGHTTR_CHECK(finalized_);
  LIGHTTR_CHECK_GE(v, 0);
  LIGHTTR_CHECK_LT(v, num_vertices());
  return in_segments_[v];
}

SegmentId RoadNetwork::FindSegment(VertexId u, VertexId v) const {
  LIGHTTR_CHECK(finalized_);
  for (SegmentId e : out_segments_[u]) {
    if (segments_[e].to == v) return e;
  }
  return kInvalidSegment;
}

geo::GeoPoint RoadNetwork::PositionToPoint(const PointPosition& pos) const {
  const Segment& seg = segment(pos.segment);
  const double r = std::clamp(pos.ratio, 0.0, 1.0);
  return geo::Lerp(vertices_[seg.from].position, vertices_[seg.to].position,
                   r);
}

const RoadNetwork::ProjectionFrame& RoadNetwork::FrameOf(SegmentId e) const {
  LIGHTTR_CHECK(finalized_);
  LIGHTTR_CHECK_GE(e, 0);
  LIGHTTR_CHECK_LT(e, num_segments());
  return frames_[e];
}

RoadNetwork::PlanarFoot RoadNetwork::Foot(const ProjectionFrame& frame,
                                          const geo::GeoPoint& p) {
  const auto pp = frame.plane.ToXy(p);
  double t = 0.0;
  if (frame.len2 > 0.0) {
    t = std::clamp((pp.x * frame.dx + pp.y * frame.dy) / frame.len2, 0.0,
                   1.0);
  }
  PlanarFoot foot;
  foot.ratio = t;
  foot.snapped = {frame.pa.x + t * frame.dx, frame.pa.y + t * frame.dy};
  const double ex = pp.x - foot.snapped.x;
  const double ey = pp.y - foot.snapped.y;
  foot.distance_m = std::sqrt(ex * ex + ey * ey);
  return foot;
}

Projection RoadNetwork::Snap(SegmentId e, const ProjectionFrame& frame,
                             const PlanarFoot& foot) {
  Projection proj;
  proj.position = PointPosition{e, foot.ratio};
  proj.snapped = frame.plane.FromXy(foot.snapped);
  proj.distance_m = foot.distance_m;
  return proj;
}

Projection RoadNetwork::ProjectOntoSegment(SegmentId e,
                                           const geo::GeoPoint& p) const {
  const ProjectionFrame& frame = FrameOf(e);
  return Snap(e, frame, Foot(frame, p));
}

std::optional<Projection> RoadNetwork::ProjectWithin(
    SegmentId e, const geo::GeoPoint& p, double max_distance_m) const {
  const ProjectionFrame& frame = FrameOf(e);
  const PlanarFoot foot = Foot(frame, p);
  if (!(foot.distance_m <= max_distance_m)) return std::nullopt;
  return Snap(e, frame, foot);
}

}  // namespace lighttr::roadnet
