// Synthetic road-network generators.
//
// The paper evaluates on the Beijing road network; this module builds
// city-like directed graphs with comparable local structure (grid blocks,
// diagonal arterials, one-way streets, perturbed intersections) so that
// map matching, recovery, and metrics exercise the same code paths.
#ifndef LIGHTTR_ROADNET_GENERATORS_H_
#define LIGHTTR_ROADNET_GENERATORS_H_

#include "common/rng.h"
#include "geo/geo_point.h"
#include "roadnet/road_network.h"

namespace lighttr::roadnet {

/// Parameters for GenerateCityGrid.
struct CityGridOptions {
  int32_t rows = 12;            // intersection rows
  int32_t cols = 12;            // intersection columns
  double spacing_m = 250.0;     // nominal block size
  double jitter_frac = 0.15;    // intersection position jitter (fraction of spacing)
  double diagonal_prob = 0.08;  // chance of a diagonal arterial per block
  double one_way_prob = 0.10;   // chance a street is one-way
  double missing_prob = 0.05;   // chance a block edge is absent
  geo::GeoPoint origin{39.90, 116.38};  // south-west corner (Beijing-like)
};

/// Generates a perturbed grid city. The graph is guaranteed to be strongly
/// connected (a two-way ring road around the border is always present).
RoadNetwork GenerateCityGrid(const CityGridOptions& options, Rng* rng);

/// Generates a simple two-way chain of `n` vertices spaced `spacing_m`
/// apart along the equator-parallel direction. Useful in tests.
RoadNetwork GenerateChain(int32_t n, double spacing_m,
                          const geo::GeoPoint& origin = {39.90, 116.38});

}  // namespace lighttr::roadnet

#endif  // LIGHTTR_ROADNET_GENERATORS_H_
