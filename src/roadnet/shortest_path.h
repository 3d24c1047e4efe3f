// Shortest-path computation on the road network: Dijkstra single-source
// and point-to-point, route extraction, and the road-network-constrained
// distance of Eq. 20 used by the MAE/RMSE metrics.
#ifndef LIGHTTR_ROADNET_SHORTEST_PATH_H_
#define LIGHTTR_ROADNET_SHORTEST_PATH_H_

#include <limits>
#include <memory>
#include <vector>

#include "common/status.h"
#include "roadnet/road_network.h"

namespace lighttr::roadnet {

/// Marker for unreachable vertices in distance arrays.
inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Directed shortest-path distance from vertex u to vertex v in meters,
/// with early termination. Returns kUnreachable when no path exists.
double VertexDistance(const RoadNetwork& network, VertexId u, VertexId v);

/// Shortest route from u to v as a sequence of segment ids (empty when
/// u == v). Returns NotFound when v is unreachable from u.
Result<std::vector<SegmentId>> VertexRoute(const RoadNetwork& network,
                                           VertexId u, VertexId v);

/// Directed travel distance rn_dis(a, b) in meters from network position
/// `a` to network position `b`, following segment directions.
///
/// Same segment with b.ratio >= a.ratio is the trivial along-segment case;
/// otherwise the route leaves via a's end vertex and enters b via its
/// start vertex. Returns kUnreachable when no directed route exists.
double DirectedTravelDistance(const RoadNetwork& network,
                              const PointPosition& a, const PointPosition& b);

/// Road-network-constrained distance of Eq. 20:
/// min(rn_dis(a, b), rn_dis(b, a)). Used for MAE/RMSE.
double ConstrainedDistance(const RoadNetwork& network, const PointPosition& a,
                           const PointPosition& b);

class DijkstraEngine;

/// Overloads reusing a DijkstraEngine across many queries (metric loops).
double DirectedTravelDistance(const RoadNetwork& network,
                              DijkstraEngine& engine, const PointPosition& a,
                              const PointPosition& b);
double ConstrainedDistance(const RoadNetwork& network, DijkstraEngine& engine,
                           const PointPosition& a, const PointPosition& b);

/// Dijkstra's reusable working set (defined in shortest_path.cc).
struct DijkstraLabels;

/// Reusable single-source Dijkstra engine that avoids re-allocating its
/// internal arrays across queries (hot path of the evaluation metrics).
/// VertexRoute runs the same search on a per-thread working set.
class DijkstraEngine {
 public:
  explicit DijkstraEngine(const RoadNetwork& network);
  ~DijkstraEngine();

  /// Distance from u to v with early exit; kUnreachable when disconnected.
  double Distance(VertexId u, VertexId v);

 private:
  const RoadNetwork& network_;
  std::unique_ptr<DijkstraLabels> labels_;
};

}  // namespace lighttr::roadnet

#endif  // LIGHTTR_ROADNET_SHORTEST_PATH_H_
