// Spatial grid discretisation of GPS coordinates (Eq. 4 of the paper):
// a point is converted to a unit g_i = (x_i, y_i, tid_i) where (x_i, y_i)
// is the grid cell and tid_i = floor((t_i - t_0) / eps) the time bin.
#ifndef LIGHTTR_GEO_GRID_H_
#define LIGHTTR_GEO_GRID_H_

#include <cstdint>

#include "geo/geo_point.h"

namespace lighttr::geo {

/// A grid cell index (x = column/longitude axis, y = row/latitude axis).
struct GridCell {
  int32_t x = 0;
  int32_t y = 0;

  friend bool operator==(const GridCell& a, const GridCell& b) {
    return a.x == b.x && a.y == b.y;
  }
};

/// Uniform grid over a bounding box with approximately square cells of
/// `cell_meters` on a side. Points outside the box are clamped to the
/// border cells (GPS noise can push points slightly out of bounds).
class GridSpec {
 public:
  GridSpec(GeoPoint min_corner, GeoPoint max_corner, double cell_meters);

  GridCell CellOf(const GeoPoint& p) const;

  /// Flattened row-major id in [0, num_cells()).
  int64_t CellId(const GridCell& cell) const {
    return static_cast<int64_t>(cell.y) * cols_ + cell.x;
  }

  int32_t rows() const { return rows_; }
  int32_t cols() const { return cols_; }
  int64_t num_cells() const { return static_cast<int64_t>(rows_) * cols_; }
  double cell_meters() const { return cell_meters_; }

 private:
  GeoPoint min_corner_;
  GeoPoint max_corner_;
  double cell_meters_;
  double lat_step_;  // degrees per row
  double lng_step_;  // degrees per column
  int32_t rows_ = 0;
  int32_t cols_ = 0;
};

/// Time bin tid = floor((t - t0) / eps); `eps` is the sampling rate of
/// Definition 4, in the same unit as the timestamps.
int64_t TimeBin(double t, double t0, double eps);

}  // namespace lighttr::geo

#endif  // LIGHTTR_GEO_GRID_H_
