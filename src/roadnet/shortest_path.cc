#include "roadnet/shortest_path.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

namespace lighttr::roadnet {

/// Labels live across searches; a label counts only when its stamp equals
/// the current search's epoch, so a search starts without clearing arrays.
/// The stamps are 16-bit: the rare wrap-around resets them (which keeps
/// that path cheap to exercise in a test).
struct DijkstraLabels {
  struct Label {
    double dist = kUnreachable;
    SegmentId parent = kInvalidSegment;  // the segment that labelled it
    uint16_t stamp = 0;
  };
  std::vector<Label> labels;  // indexed by vertex
  uint16_t epoch = 0;
  /// (distance, vertex) entries: a binary min-heap under std::greater.
  std::vector<std::pair<double, VertexId>> heap;

  double Dist(VertexId x) const {
    const Label& l = labels[x];
    return l.stamp == epoch ? l.dist : kUnreachable;
  }

  // Runs Dijkstra from u until v is settled (or the graph is exhausted)
  // and returns v's distance. A (distance, vertex) heap has no equal
  // entries (a vertex is re-pushed only at a strictly smaller distance),
  // so it settles vertices in one fixed order and every label it leaves
  // equals what any exact (distance, vertex) min-queue would leave.
  double Search(const RoadNetwork& network, VertexId u, VertexId v) {
    LIGHTTR_CHECK_GE(u, 0);
    LIGHTTR_CHECK_LT(u, network.num_vertices());
    LIGHTTR_CHECK_GE(v, 0);
    LIGHTTR_CHECK_LT(v, network.num_vertices());
    const auto n = static_cast<size_t>(network.num_vertices());
    if (labels.size() < n) labels.resize(n);  // stamp 0: never current
    if (++epoch == 0) {
      for (Label& l : labels) l.stamp = 0;
      epoch = 1;
    }
    labels[u] = Label{0.0, kInvalidSegment, epoch};
    heap.assign(1, {0.0, u});
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const auto [d, x] = heap.back();
      heap.pop_back();
      if (x == v) return d;
      if (d > Dist(x)) continue;
      for (SegmentId e : network.OutSegments(x)) {
        const Segment& seg = network.segment(e);
        const double nd = d + seg.length_m;
        if (nd < Dist(seg.to)) {
          labels[seg.to] = Label{nd, e, epoch};
          heap.emplace_back(nd, seg.to);
          std::push_heap(heap.begin(), heap.end(), std::greater<>());
        }
      }
    }
    return Dist(v);
  }
};

double VertexDistance(const RoadNetwork& network, VertexId u, VertexId v) {
  DijkstraEngine engine(network);
  return engine.Distance(u, v);
}

Result<std::vector<SegmentId>> VertexRoute(const RoadNetwork& network,
                                           VertexId u, VertexId v) {
  LIGHTTR_CHECK(network.finalized());
  if (u == v) return std::vector<SegmentId>{};
  thread_local DijkstraLabels search;
  if (search.Search(network, u, v) == kUnreachable) {
    return Status::NotFound("no directed route between vertices");
  }
  std::vector<SegmentId> route;
  for (VertexId x = v; x != u;) {
    const SegmentId e = search.labels[x].parent;
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
    : network_(network), labels_(std::make_unique<DijkstraLabels>()) {
  LIGHTTR_CHECK(network.finalized());
}

DijkstraEngine::~DijkstraEngine() = default;

double DijkstraEngine::Distance(VertexId u, VertexId v) {
  return labels_->Search(network_, u, v);
}

}  // namespace lighttr::roadnet
