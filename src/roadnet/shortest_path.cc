#include "roadnet/shortest_path.h"

#include <algorithm>
#include <queue>
#include <utility>

namespace lighttr::roadnet {

namespace {

// (distance, vertex) min-heap entry.
using HeapEntry = std::pair<double, VertexId>;
using MinHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

}  // namespace

double VertexDistance(const RoadNetwork& network, VertexId u, VertexId v) {
  DijkstraEngine engine(network);
  return engine.Distance(u, v);
}

Result<std::vector<SegmentId>> VertexRoute(const RoadNetwork& network,
                                           VertexId u, VertexId v) {
  LIGHTTR_CHECK(network.finalized());
  if (u == v) return std::vector<SegmentId>{};
  std::vector<double> dist(network.num_vertices(), kUnreachable);
  std::vector<SegmentId> parent_segment(network.num_vertices(),
                                        kInvalidSegment);
  dist[u] = 0.0;
  MinHeap heap;
  heap.push({0.0, u});
  while (!heap.empty()) {
    auto [d, x] = heap.top();
    heap.pop();
    if (x == v) break;
    if (d > dist[x]) continue;
    for (SegmentId e : network.OutSegments(x)) {
      const Segment& seg = network.segment(e);
      const double nd = d + seg.length_m;
      if (nd < dist[seg.to]) {
        dist[seg.to] = nd;
        parent_segment[seg.to] = e;
        heap.push({nd, seg.to});
      }
    }
  }
  if (dist[v] == kUnreachable) {
    return Status::NotFound("no directed route between vertices");
  }
  std::vector<SegmentId> route;
  for (VertexId x = v; x != u;) {
    const SegmentId e = parent_segment[x];
    route.push_back(e);
    x = network.segment(e).from;
  }
  std::reverse(route.begin(), route.end());
  return route;
}

double DirectedTravelDistance(const RoadNetwork& network,
                              DijkstraEngine& engine, const PointPosition& a,
                              const PointPosition& b) {
  const Segment& sa = network.segment(a.segment);
  const Segment& sb = network.segment(b.segment);
  if (a.segment == b.segment && b.ratio >= a.ratio) {
    return (b.ratio - a.ratio) * sa.length_m;
  }
  const double to_end = (1.0 - a.ratio) * sa.length_m;
  const double from_start = b.ratio * sb.length_m;
  const double middle = engine.Distance(sa.to, sb.from);
  if (middle == kUnreachable) return kUnreachable;
  return to_end + middle + from_start;
}

double DirectedTravelDistance(const RoadNetwork& network,
                              const PointPosition& a, const PointPosition& b) {
  DijkstraEngine engine(network);
  return DirectedTravelDistance(network, engine, a, b);
}

double ConstrainedDistance(const RoadNetwork& network, DijkstraEngine& engine,
                           const PointPosition& a, const PointPosition& b) {
  return std::min(DirectedTravelDistance(network, engine, a, b),
                  DirectedTravelDistance(network, engine, b, a));
}

double ConstrainedDistance(const RoadNetwork& network, const PointPosition& a,
                           const PointPosition& b) {
  DijkstraEngine engine(network);
  return ConstrainedDistance(network, engine, a, b);
}

DijkstraEngine::DijkstraEngine(const RoadNetwork& network)
    : network_(network),
      dist_(network.num_vertices(), kUnreachable),
      epoch_(network.num_vertices(), 0) {
  LIGHTTR_CHECK(network.finalized());
}

double DijkstraEngine::Distance(VertexId u, VertexId v) {
  ++current_epoch_;
  auto get = [&](VertexId x) {
    return epoch_[x] == current_epoch_ ? dist_[x] : kUnreachable;
  };
  auto set = [&](VertexId x, double d) {
    epoch_[x] = current_epoch_;
    dist_[x] = d;
  };

  set(u, 0.0);
  MinHeap heap;
  heap.push({0.0, u});
  while (!heap.empty()) {
    auto [d, x] = heap.top();
    heap.pop();
    if (x == v) return d;
    if (d > get(x)) continue;
    for (SegmentId e : network_.OutSegments(x)) {
      const Segment& seg = network_.segment(e);
      const double nd = d + seg.length_m;
      if (nd < get(seg.to)) {
        set(seg.to, nd);
        heap.push({nd, seg.to});
      }
    }
  }
  return get(v);
}

}  // namespace lighttr::roadnet
