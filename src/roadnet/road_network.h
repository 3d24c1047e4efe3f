// Directed road network graph (paper Definition 1) with segment geometry,
// moving-ratio positions (Definition 5, Fig. 1), and point projection.
#ifndef LIGHTTR_ROADNET_ROAD_NETWORK_H_
#define LIGHTTR_ROADNET_ROAD_NETWORK_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "geo/geo_point.h"

namespace lighttr::roadnet {

using VertexId = int32_t;
using SegmentId = int32_t;

inline constexpr VertexId kInvalidVertex = -1;
inline constexpr SegmentId kInvalidSegment = -1;

/// A road vertex v_i: an intersection or road end.
struct Vertex {
  geo::GeoPoint position;
};

/// A directed road segment e_{i,j} from vertex `from` (e.N1) to vertex
/// `to` (e.N2), modeled as a straight line of `length_m` meters.
struct Segment {
  VertexId from = kInvalidVertex;
  VertexId to = kInvalidVertex;
  double length_m = 0.0;
};

/// A position on the network: segment e plus moving ratio r in [0, 1],
/// r = dis(e.N1, e.N_cur) / dis(e.N1, e.N2) (Definition 5).
struct PointPosition {
  SegmentId segment = kInvalidSegment;
  double ratio = 0.0;

  friend bool operator==(const PointPosition& a, const PointPosition& b) {
    return a.segment == b.segment && a.ratio == b.ratio;
  }
};

/// Result of projecting a GPS point onto a segment.
struct Projection {
  PointPosition position;
  geo::GeoPoint snapped;    // the closest point on the segment
  double distance_m = 0.0;  // perpendicular distance from the raw point
};

/// The road network G = (V, E): an immutable-after-build directed graph.
///
/// Build with AddVertex / AddSegment, then call Finalize() once; lookups
/// are valid afterwards. Thread-compatible: safe for concurrent reads.
class RoadNetwork {
 public:
  RoadNetwork() = default;

  /// Adds a vertex and returns its id.
  VertexId AddVertex(const geo::GeoPoint& position);

  /// Adds a directed segment; length defaults to the haversine distance
  /// between its endpoints. Returns the new segment id.
  SegmentId AddSegment(VertexId from, VertexId to, double length_m = -1.0);

  /// Adds both directions between u and v; returns the u->v segment id.
  SegmentId AddTwoWay(VertexId u, VertexId v);

  /// Freezes the graph, builds adjacency indexes and stores each
  /// segment's projection frame.
  void Finalize();

  bool finalized() const { return finalized_; }
  int32_t num_vertices() const { return static_cast<int32_t>(vertices_.size()); }
  int32_t num_segments() const { return static_cast<int32_t>(segments_.size()); }

  const Vertex& vertex(VertexId v) const {
    LIGHTTR_CHECK_GE(v, 0);
    LIGHTTR_CHECK_LT(v, num_vertices());
    return vertices_[v];
  }
  const Segment& segment(SegmentId e) const {
    LIGHTTR_CHECK_GE(e, 0);
    LIGHTTR_CHECK_LT(e, num_segments());
    return segments_[e];
  }

  /// Segments leaving / entering a vertex. Requires Finalize().
  const std::vector<SegmentId>& OutSegments(VertexId v) const;
  const std::vector<SegmentId>& InSegments(VertexId v) const;

  /// The directed segment from u to v, or kInvalidSegment if absent.
  SegmentId FindSegment(VertexId u, VertexId v) const;

  /// GPS coordinate of a network position (linear along the segment).
  geo::GeoPoint PositionToPoint(const PointPosition& pos) const;

  /// Projects a raw GPS point onto segment `e` (clamped to the segment).
  /// Requires Finalize().
  Projection ProjectOntoSegment(SegmentId e, const geo::GeoPoint& p) const;

  /// ProjectOntoSegment(e, p), bit for bit, when its distance_m is at
  /// most `max_distance_m`; nullopt otherwise (NaN distances included).
  /// The distance comes first, so a miss never converts the snapped
  /// point back to lat/lng. Requires Finalize().
  std::optional<Projection> ProjectWithin(SegmentId e, const geo::GeoPoint& p,
                                          double max_distance_m) const;

  /// Bounding box of all vertices (undefined before the first vertex).
  geo::GeoPoint min_corner() const { return min_corner_; }
  geo::GeoPoint max_corner() const { return max_corner_; }

 private:
  std::vector<Vertex> vertices_;
  std::vector<Segment> segments_;
  std::vector<std::vector<SegmentId>> out_segments_;
  std::vector<std::vector<SegmentId>> in_segments_;
  /// What ProjectOntoSegment derives from a segment alone: the local
  /// plane around its `from` vertex and the segment in that plane.
  struct ProjectionFrame {
    geo::LocalProjection plane;
    geo::LocalProjection::Xy pa;  // the `from` vertex, (0, 0)
    double dx = 0.0;
    double dy = 0.0;
    double len2 = 0.0;
  };
  /// A point's foot on a segment, in the segment's plane.
  struct PlanarFoot {
    double ratio = 0.0;
    geo::LocalProjection::Xy snapped;
    double distance_m = 0.0;
  };
  /// The one copy of the projection arithmetic both public forms share.
  const ProjectionFrame& FrameOf(SegmentId e) const;
  static PlanarFoot Foot(const ProjectionFrame& frame, const geo::GeoPoint& p);
  static Projection Snap(SegmentId e, const ProjectionFrame& frame,
                         const PlanarFoot& foot);
  std::vector<ProjectionFrame> frames_;
  geo::GeoPoint min_corner_{90.0, 180.0};
  geo::GeoPoint max_corner_{-90.0, -180.0};
  bool finalized_ = false;
};

}  // namespace lighttr::roadnet

#endif  // LIGHTTR_ROADNET_ROAD_NETWORK_H_
