#include "roadnet/segment_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

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
  boxes_.reserve(static_cast<size_t>(network.num_segments()));
  std::vector<geo::GridCell> cells;  // the cells already listing e
  for (SegmentId e = 0; e < network.num_segments(); ++e) {
    const Segment& seg = network.segment(e);
    const geo::GeoPoint& a = network.vertex(seg.from).position;
    const geo::GeoPoint& b = network.vertex(seg.to).position;
    // Rasterize along the segment at half-cell pitch, inserting into each
    // visited cell (segments are straight lines, so this covers them).
    // Each bucket lists a segment at most once.
    const int steps = std::max(
        1, static_cast<int>(std::ceil(seg.length_m / (cell_meters / 2.0))));
    cells.clear();
    for (int s = 0; s <= steps; ++s) {
      const geo::GeoPoint p = geo::Lerp(a, b, static_cast<double>(s) / steps);
      const geo::GridCell cell = grid_.CellOf(p);
      if (std::find(cells.begin(), cells.end(), cell) != cells.end()) continue;
      cells.push_back(cell);
      buckets_[static_cast<size_t>(grid_.CellId(cell))].push_back(e);
    }
    boxes_.push_back(Box{std::min(a.lat, b.lat), std::max(a.lat, b.lat),
                         std::min(a.lng, b.lng), std::max(a.lng, b.lng)});
    // The same expression geo::LocalProjection evaluates for the plane
    // ProjectOntoSegment anchors at `a`.
    min_cos_lat_ =
        std::min(min_cos_lat_, std::fabs(std::cos(a.lat * geo::kDegToRad)));
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

  // The box bound (DESIGN.md §5). In the plane ProjectOntoSegment uses for
  // segment e, a degree of latitude spans kMetersPerDegree meters and a
  // degree of longitude at least kMetersPerDegree * min_cos_lat_, so each
  // point of e lies at least that far from p per degree by which p falls
  // outside e's box. A segment whose box misses p's reach box thus fails
  // the exact `<=` test below; the relative and absolute slack exceed the
  // rounding of both computations (nanometers at any map scale).
  constexpr double kMetersPerDegree =
      geo::kDegToRad * geo::kEarthRadiusMeters;
  const double reach_m = radius_m * (1.0 + 1e-6) + 1e-3;
  const double lat_reach = reach_m / kMetersPerDegree;
  const double lng_reach = reach_m / (kMetersPerDegree * min_cos_lat_);
  const double lat_lo = p.lat - lat_reach;
  const double lat_hi = p.lat + lat_reach;
  const double lng_lo = p.lng - lng_reach;
  const double lng_hi = p.lng + lng_reach;

  // A segment is considered in the first window cell, in row-major scan
  // order, that lists it (`seen` marks it there), so hits reach the sort
  // in first-occurrence order and equal-distance twins keep a fixed order.
  // Per-thread scratch keeps concurrent queries apart.
  thread_local std::vector<uint64_t> seen;
  thread_local std::vector<Candidate> hits;
  seen.assign((static_cast<size_t>(network_.num_segments()) + 63) / 64, 0);
  hits.clear();
  for (int32_t y = y0; y <= y1; ++y) {
    for (int32_t x = x0; x <= x1; ++x) {
      for (SegmentId e : buckets_[static_cast<size_t>(
               grid_.CellId(geo::GridCell{x, y}))]) {
        const auto i = static_cast<size_t>(e);
        const uint64_t bit = uint64_t{1} << (i % 64);
        if ((seen[i / 64] & bit) != 0) continue;
        seen[i / 64] |= bit;
        const Box& box = boxes_[i];
        if (box.min_lat > lat_hi || box.max_lat < lat_lo ||
            box.min_lng > lng_hi || box.max_lng < lng_lo) {
          continue;
        }
        if (auto proj = network_.ProjectWithin(e, p, radius_m)) {
          hits.push_back(Candidate{e, *proj});
        }
      }
    }
  }
  // std::sort's permutation depends only on its comparisons' outcomes, so
  // sorting (distance, position) keys under the distance-only comparator
  // orders the hits exactly as sorting the hits themselves would.
  thread_local std::vector<std::pair<double, uint32_t>> keys;
  keys.clear();
  for (size_t k = 0; k < hits.size(); ++k) {
    keys.emplace_back(hits[k].projection.distance_m, static_cast<uint32_t>(k));
  }
  std::sort(keys.begin(), keys.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Candidate> candidates;
  candidates.reserve(keys.size());
  for (const auto& key : keys) candidates.push_back(hits[key.second]);
  return candidates;
}

}  // namespace lighttr::roadnet
