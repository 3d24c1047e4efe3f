// Direct implementations of point projection and the segment-index
// radius query, kept as differential oracles for the optimized ones.
// OracleProject derives the segment's projection frame on every call;
// OracleIndex buckets segments the same way SegmentIndex does, dedups
// each query's segments with an unordered_set in first-occurrence scan
// order, and sorts them with std::sort. Valid for radii whose cell ring
// fits an int32, which every test query respects.
#ifndef LIGHTTR_TESTS_SEGMENT_INDEX_ORACLE_H_
#define LIGHTTR_TESTS_SEGMENT_INDEX_ORACLE_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "geo/geo_point.h"
#include "geo/grid.h"
#include "roadnet/road_network.h"
#include "roadnet/segment_index.h"

namespace lighttr::test_util {

inline roadnet::Projection OracleProject(const roadnet::RoadNetwork& network,
                                         roadnet::SegmentId e,
                                         const geo::GeoPoint& p) {
  const roadnet::Segment& seg = network.segment(e);
  const geo::GeoPoint& a = network.vertex(seg.from).position;
  const geo::GeoPoint& b = network.vertex(seg.to).position;

  const geo::LocalProjection plane(a);
  const auto pa = plane.ToXy(a);
  const auto pb = plane.ToXy(b);
  const auto pp = plane.ToXy(p);

  const double dx = pb.x - pa.x;
  const double dy = pb.y - pa.y;
  const double len2 = dx * dx + dy * dy;
  double t = 0.0;
  if (len2 > 0.0) {
    t = std::clamp((pp.x * dx + pp.y * dy) / len2, 0.0, 1.0);
  }
  const geo::LocalProjection::Xy snapped_xy{pa.x + t * dx, pa.y + t * dy};

  roadnet::Projection proj;
  proj.position = roadnet::PointPosition{e, t};
  proj.snapped = plane.FromXy(snapped_xy);
  const double ex = pp.x - snapped_xy.x;
  const double ey = pp.y - snapped_xy.y;
  proj.distance_m = std::sqrt(ex * ex + ey * ey);
  return proj;
}

class OracleIndex {
 public:
  explicit OracleIndex(const roadnet::RoadNetwork& network,
                       double cell_meters = 200.0)
      : network_(network),
        grid_(geo::GeoPoint{network.min_corner().lat - 0.01,
                            network.min_corner().lng - 0.01},
              geo::GeoPoint{network.max_corner().lat + 0.01,
                            network.max_corner().lng + 0.01},
              cell_meters) {
    buckets_.assign(static_cast<size_t>(grid_.num_cells()), {});
    for (roadnet::SegmentId e = 0; e < network.num_segments(); ++e) {
      const roadnet::Segment& seg = network.segment(e);
      const geo::GeoPoint& a = network.vertex(seg.from).position;
      const geo::GeoPoint& b = network.vertex(seg.to).position;
      const int steps = std::max(
          1, static_cast<int>(std::ceil(seg.length_m / (cell_meters / 2.0))));
      int64_t last_cell = -1;
      for (int s = 0; s <= steps; ++s) {
        const geo::GeoPoint p =
            geo::Lerp(a, b, static_cast<double>(s) / steps);
        const int64_t cell = grid_.CellId(grid_.CellOf(p));
        if (cell != last_cell) {
          buckets_[static_cast<size_t>(cell)].push_back(e);
          last_cell = cell;
        }
      }
    }
  }

  std::vector<roadnet::SegmentIndex::Candidate> Nearby(const geo::GeoPoint& p,
                                                       double radius_m) const {
    const geo::GridCell center = grid_.CellOf(p);
    const int32_t ring =
        static_cast<int32_t>(std::ceil(radius_m / grid_.cell_meters())) + 1;
    std::unordered_set<roadnet::SegmentId> seen;
    std::vector<roadnet::SegmentIndex::Candidate> candidates;
    for (int32_t dy = -ring; dy <= ring; ++dy) {
      for (int32_t dx = -ring; dx <= ring; ++dx) {
        const int32_t x = center.x + dx;
        const int32_t y = center.y + dy;
        if (x < 0 || x >= grid_.cols() || y < 0 || y >= grid_.rows()) continue;
        for (roadnet::SegmentId e :
             buckets_[static_cast<size_t>(grid_.CellId({x, y}))]) {
          if (!seen.insert(e).second) continue;
          const roadnet::Projection proj = OracleProject(network_, e, p);
          if (proj.distance_m <= radius_m) candidates.push_back({e, proj});
        }
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) {
                return a.projection.distance_m < b.projection.distance_m;
              });
    return candidates;
  }

 private:
  const roadnet::RoadNetwork& network_;
  geo::GridSpec grid_;
  std::vector<std::vector<roadnet::SegmentId>> buckets_;
};

inline uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

/// Bitwise equality of two projections.
inline void ExpectSameProjection(const roadnet::Projection& got,
                                 const roadnet::Projection& want) {
  EXPECT_EQ(got.position.segment, want.position.segment);
  EXPECT_EQ(Bits(got.position.ratio), Bits(want.position.ratio));
  EXPECT_EQ(Bits(got.snapped.lat), Bits(want.snapped.lat));
  EXPECT_EQ(Bits(got.snapped.lng), Bits(want.snapped.lng));
  EXPECT_EQ(Bits(got.distance_m), Bits(want.distance_m));
}

/// Bitwise equality of two candidate lists, order included.
inline void ExpectSameCandidates(
    const std::vector<roadnet::SegmentIndex::Candidate>& got,
    const std::vector<roadnet::SegmentIndex::Candidate>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].segment, want[i].segment) << "rank " << i;
    ExpectSameProjection(got[i].projection, want[i].projection);
  }
}

}  // namespace lighttr::test_util

#endif  // LIGHTTR_TESTS_SEGMENT_INDEX_ORACLE_H_
