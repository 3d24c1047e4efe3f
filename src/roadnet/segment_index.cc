#include "roadnet/segment_index.h"

#include <algorithm>
#include <cmath>

namespace lighttr::roadnet {

namespace {

// Expands the network bounding box slightly so border segments and noisy
// points near the edge stay in range.
geo::GeoPoint Pad(const geo::GeoPoint& p, double dlat, double dlng) {
  return {p.lat + dlat, p.lng + dlng};
}

}  // namespace

SegmentIndex::SegmentIndex(const RoadNetwork& network, double cell_meters)
    : network_(network),
      grid_(Pad(network.min_corner(), -0.01, -0.01),
            Pad(network.max_corner(), 0.01, 0.01), cell_meters) {
  LIGHTTR_CHECK(network.finalized());
  buckets_.assign(static_cast<size_t>(grid_.num_cells()), {});
  cells_.assign(static_cast<size_t>(network.num_segments()), {});
  for (SegmentId e = 0; e < network.num_segments(); ++e) {
    const Segment& seg = network.segment(e);
    const geo::GeoPoint& a = network.vertex(seg.from).position;
    const geo::GeoPoint& b = network.vertex(seg.to).position;
    // Rasterize along the segment at half-cell pitch, inserting into each
    // visited cell (segments are straight lines, so this covers them).
    // Each bucket lists a segment at most once.
    const int steps = std::max(
        1, static_cast<int>(std::ceil(seg.length_m / (cell_meters / 2.0))));
    std::vector<geo::GridCell>& cells = cells_[static_cast<size_t>(e)];
    for (int s = 0; s <= steps; ++s) {
      const geo::GeoPoint p = geo::Lerp(a, b, static_cast<double>(s) / steps);
      const geo::GridCell cell = grid_.CellOf(p);
      if (std::find(cells.begin(), cells.end(), cell) != cells.end()) continue;
      cells.push_back(cell);
      buckets_[static_cast<size_t>(grid_.CellId(cell))].push_back(e);
    }
  }
}

std::vector<SegmentIndex::Candidate> SegmentIndex::Nearby(
    const geo::GeoPoint& p, double radius_m) const {
  LIGHTTR_CHECK_GT(radius_m, 0.0);
  // The window of cells around p's cell, computed in double and clamped
  // to the grid before narrowing: no radius, +inf included, overflows it
  // or walks cells outside the grid.
  const geo::GridCell center = grid_.CellOf(p);
  const double ring = std::ceil(radius_m / grid_.cell_meters()) + 1.0;
  const auto x0 = static_cast<int32_t>(std::max(0.0, center.x - ring));
  const auto x1 =
      static_cast<int32_t>(std::min(grid_.cols() - 1.0, center.x + ring));
  const auto y0 = static_cast<int32_t>(std::max(0.0, center.y - ring));
  const auto y1 =
      static_cast<int32_t>(std::min(grid_.rows() - 1.0, center.y + ring));

  // A segment is projected in the first window cell, in row-major scan
  // order, that lists it, so candidates reach the sort in first-occurrence
  // order (equal-distance twins keep a fixed order).
  const auto listed_earlier = [&](SegmentId e, int32_t x, int32_t y) {
    for (const geo::GridCell& c : cells_[static_cast<size_t>(e)]) {
      if (c.x >= x0 && c.x <= x1 && c.y >= y0 &&
          (c.y < y || (c.y == y && c.x < x))) {
        return true;
      }
    }
    return false;
  };
  std::vector<Candidate> candidates;
  for (int32_t y = y0; y <= y1; ++y) {
    for (int32_t x = x0; x <= x1; ++x) {
      for (SegmentId e : buckets_[static_cast<size_t>(
               grid_.CellId(geo::GridCell{x, y}))]) {
        if (listed_earlier(e, x, y)) continue;
        Projection proj = network_.ProjectOntoSegment(e, p);
        if (proj.distance_m <= radius_m) {
          candidates.push_back(Candidate{e, proj});
        }
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.projection.distance_m < b.projection.distance_m;
            });
  return candidates;
}

}  // namespace lighttr::roadnet
