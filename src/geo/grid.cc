#include "geo/grid.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace lighttr::geo {

GridSpec::GridSpec(GeoPoint min_corner, GeoPoint max_corner,
                   double cell_meters)
    : min_corner_(min_corner),
      max_corner_(max_corner),
      cell_meters_(cell_meters) {
  LIGHTTR_CHECK_GT(cell_meters, 0.0);
  LIGHTTR_CHECK_LT(min_corner.lat, max_corner.lat);
  LIGHTTR_CHECK_LT(min_corner.lng, max_corner.lng);

  const double lat_extent_m = HaversineMeters(
      min_corner_, GeoPoint{max_corner_.lat, min_corner_.lng});
  const double lng_extent_m = HaversineMeters(
      min_corner_, GeoPoint{min_corner_.lat, max_corner_.lng});
  rows_ = std::max<int32_t>(
      1, static_cast<int32_t>(std::ceil(lat_extent_m / cell_meters_)));
  cols_ = std::max<int32_t>(
      1, static_cast<int32_t>(std::ceil(lng_extent_m / cell_meters_)));
  lat_step_ = (max_corner_.lat - min_corner_.lat) / rows_;
  lng_step_ = (max_corner_.lng - min_corner_.lng) / cols_;
}

GridCell GridSpec::CellOf(const GeoPoint& p) const {
  auto clamp_idx = [](double v, int32_t n) {
    const int32_t i = static_cast<int32_t>(std::floor(v));
    return std::clamp(i, 0, n - 1);
  };
  return {clamp_idx((p.lng - min_corner_.lng) / lng_step_, cols_),
          clamp_idx((p.lat - min_corner_.lat) / lat_step_, rows_)};
}

int64_t TimeBin(double t, double t0, double eps) {
  LIGHTTR_CHECK_GT(eps, 0.0);
  return static_cast<int64_t>(std::floor((t - t0) / eps));
}

}  // namespace lighttr::geo
