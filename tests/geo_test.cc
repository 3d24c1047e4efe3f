// Unit tests for src/geo: distances, projection, grids, time bins.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/geo_point.h"
#include "geo/grid.h"

namespace lighttr::geo {
namespace {

TEST(Haversine, ZeroForSamePoint) {
  const GeoPoint p{39.9, 116.4};
  EXPECT_DOUBLE_EQ(HaversineMeters(p, p), 0.0);
}

TEST(Haversine, OneDegreeLatitude) {
  // One degree of latitude is ~111.2 km everywhere.
  const GeoPoint a{39.0, 116.0};
  const GeoPoint b{40.0, 116.0};
  EXPECT_NEAR(HaversineMeters(a, b), 111194.9, 50.0);
}

TEST(Haversine, Symmetric) {
  const GeoPoint a{39.9, 116.3};
  const GeoPoint b{40.05, 116.52};
  EXPECT_DOUBLE_EQ(HaversineMeters(a, b), HaversineMeters(b, a));
}

TEST(Equirectangular, MatchesHaversineAtCityScale) {
  lighttr::Rng rng(1);
  const GeoPoint origin{39.9, 116.4};
  for (int i = 0; i < 200; ++i) {
    const GeoPoint p{origin.lat + rng.Uniform(-0.1, 0.1),
                     origin.lng + rng.Uniform(-0.1, 0.1)};
    const double h = HaversineMeters(origin, p);
    const double e = EquirectangularMeters(origin, p);
    EXPECT_NEAR(e, h, std::max(1.0, 0.002 * h));
  }
}

TEST(Lerp, Endpoints) {
  const GeoPoint a{39.0, 116.0};
  const GeoPoint b{40.0, 117.0};
  EXPECT_EQ(Lerp(a, b, 0.0), a);
  EXPECT_EQ(Lerp(a, b, 1.0), b);
  const GeoPoint mid = Lerp(a, b, 0.5);
  EXPECT_DOUBLE_EQ(mid.lat, 39.5);
  EXPECT_DOUBLE_EQ(mid.lng, 116.5);
}

TEST(LocalProjection, RoundTrip) {
  const LocalProjection plane(GeoPoint{39.9, 116.4});
  lighttr::Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const GeoPoint p{39.9 + rng.Uniform(-0.05, 0.05),
                     116.4 + rng.Uniform(-0.05, 0.05)};
    const GeoPoint back = plane.FromXy(plane.ToXy(p));
    EXPECT_NEAR(back.lat, p.lat, 1e-9);
    EXPECT_NEAR(back.lng, p.lng, 1e-9);
  }
}

TEST(LocalProjection, DistancesPreserved) {
  const LocalProjection plane(GeoPoint{39.9, 116.4});
  const GeoPoint p{39.93, 116.45};
  const auto xy = plane.ToXy(p);
  const double planar = std::sqrt(xy.x * xy.x + xy.y * xy.y);
  EXPECT_NEAR(planar, HaversineMeters(plane.origin(), p),
              0.01 * planar + 1.0);
}

TEST(GridSpec, CellsTileTheBox) {
  const GridSpec grid({39.9, 116.3}, {40.0, 116.5}, 500.0);
  EXPECT_GT(grid.rows(), 0);
  EXPECT_GT(grid.cols(), 0);
  // Cell of the min corner is (0, 0); max corner lands in the last cell.
  const GridCell lo = grid.CellOf({39.9, 116.3});
  EXPECT_EQ(lo, (GridCell{0, 0}));
  const GridCell hi = grid.CellOf({40.0, 116.5});
  EXPECT_EQ(hi.x, grid.cols() - 1);
  EXPECT_EQ(hi.y, grid.rows() - 1);
}

TEST(GridSpec, OutOfBoundsClamped) {
  const GridSpec grid({39.9, 116.3}, {40.0, 116.5}, 500.0);
  EXPECT_EQ(grid.CellOf({0.0, 0.0}), (GridCell{0, 0}));
  const GridCell far = grid.CellOf({89.0, 179.0});
  EXPECT_EQ(far.x, grid.cols() - 1);
  EXPECT_EQ(far.y, grid.rows() - 1);
}

TEST(GridSpec, CellIdIsRowMajor) {
  const GridSpec grid({39.9, 116.3}, {40.0, 116.5}, 300.0);
  int64_t next = 0;
  for (int32_t y = 0; y < grid.rows(); ++y) {
    for (int32_t x = 0; x < grid.cols(); ++x) {
      EXPECT_EQ(grid.CellId({x, y}), next++);
    }
  }
  EXPECT_EQ(next, grid.num_cells());
}

TEST(GridSpec, CellSizeApproximatelyRequested) {
  const GeoPoint lo{39.9, 116.3};
  const GeoPoint hi{40.0, 116.5};
  const GridSpec grid(lo, hi, 200.0);
  EXPECT_NEAR(HaversineMeters(lo, {lo.lat, hi.lng}) / grid.cols(), 200.0, 40.0);
  EXPECT_NEAR(HaversineMeters(lo, {hi.lat, lo.lng}) / grid.rows(), 200.0, 40.0);
}

TEST(TimeBin, MatchesFloor) {
  EXPECT_EQ(TimeBin(0.0, 0.0, 15.0), 0);
  EXPECT_EQ(TimeBin(14.9, 0.0, 15.0), 0);
  EXPECT_EQ(TimeBin(15.0, 0.0, 15.0), 1);
  EXPECT_EQ(TimeBin(44.0, 0.0, 15.0), 2);
  EXPECT_EQ(TimeBin(-0.1, 0.0, 15.0), -1);
}

}  // namespace
}  // namespace lighttr::geo
