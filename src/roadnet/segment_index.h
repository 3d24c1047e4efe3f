// Spatial grid index over road segments for radius candidate queries
// (the candidate-generation step of HMM map matching).
#ifndef LIGHTTR_ROADNET_SEGMENT_INDEX_H_
#define LIGHTTR_ROADNET_SEGMENT_INDEX_H_

#include <vector>

#include "geo/geo_point.h"
#include "geo/grid.h"
#include "roadnet/road_network.h"

namespace lighttr::roadnet {

/// Buckets segments into a uniform grid; Nearby() returns segments whose
/// geometry passes within `radius_m` of a query point, in ascending
/// projection-distance order. Immutable after construction, so
/// concurrent Nearby() calls are safe.
class SegmentIndex {
 public:
  /// Builds the index; `cell_meters` trades memory for probe count.
  explicit SegmentIndex(const RoadNetwork& network, double cell_meters = 200.0);

  /// A candidate segment with its projection of the query point.
  struct Candidate {
    SegmentId segment = kInvalidSegment;
    Projection projection;
  };

  /// All segments within `radius_m` of `p`, nearest first. Any positive
  /// radius is valid; +inf returns every segment.
  std::vector<Candidate> Nearby(const geo::GeoPoint& p, double radius_m) const;

  const RoadNetwork& network() const { return network_; }

 private:
  /// A segment's lat/lng bounding box (the box of its two vertices).
  struct Box {
    double min_lat = 0.0;
    double max_lat = 0.0;
    double min_lng = 0.0;
    double max_lng = 0.0;
  };

  const RoadNetwork& network_;
  geo::GridSpec grid_;
  std::vector<std::vector<SegmentId>> buckets_;
  std::vector<Box> boxes_;  // indexed by segment id
  /// The smallest |cos(lat)| over the planes ProjectOntoSegment uses: in
  /// each of them a degree of longitude spans at least this fraction of
  /// a degree of latitude.
  double min_cos_lat_ = 1.0;
};

}  // namespace lighttr::roadnet

#endif  // LIGHTTR_ROADNET_SEGMENT_INDEX_H_
