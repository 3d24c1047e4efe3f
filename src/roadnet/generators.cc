#include "roadnet/generators.h"

#include <cmath>
#include <vector>

namespace lighttr::roadnet {

RoadNetwork GenerateCityGrid(const CityGridOptions& options, Rng* rng) {
  LIGHTTR_CHECK(rng != nullptr);
  LIGHTTR_CHECK_GE(options.rows, 2);
  LIGHTTR_CHECK_GE(options.cols, 2);
  RoadNetwork net;

  const geo::LocalProjection plane(options.origin);
  std::vector<std::vector<VertexId>> grid(
      options.rows, std::vector<VertexId>(options.cols, kInvalidVertex));

  for (int32_t r = 0; r < options.rows; ++r) {
    for (int32_t c = 0; c < options.cols; ++c) {
      const bool border = r == 0 || c == 0 || r == options.rows - 1 ||
                          c == options.cols - 1;
      const double jitter = options.jitter_frac * options.spacing_m;
      // The ring road stays regular so connectivity is guaranteed.
      const double jx = border ? 0.0 : rng->Uniform(-jitter, jitter);
      const double jy = border ? 0.0 : rng->Uniform(-jitter, jitter);
      const geo::LocalProjection::Xy xy{c * options.spacing_m + jx,
                                        r * options.spacing_m + jy};
      grid[r][c] = net.AddVertex(plane.FromXy(xy));
    }
  }

  auto add_street = [&](VertexId u, VertexId v, bool force_two_way) {
    if (!force_two_way && rng->Bernoulli(options.one_way_prob)) {
      // One-way with a random direction.
      if (rng->Bernoulli(0.5)) {
        net.AddSegment(u, v);
      } else {
        net.AddSegment(v, u);
      }
    } else {
      net.AddTwoWay(u, v);
    }
  };

  for (int32_t r = 0; r < options.rows; ++r) {
    for (int32_t c = 0; c < options.cols; ++c) {
      // Horizontal street to the east neighbour.
      if (c + 1 < options.cols) {
        const bool border_street = r == 0 || r == options.rows - 1;
        if (border_street || !rng->Bernoulli(options.missing_prob)) {
          add_street(grid[r][c], grid[r][c + 1], border_street);
        }
      }
      // Vertical street to the north neighbour.
      if (r + 1 < options.rows) {
        const bool border_street = c == 0 || c == options.cols - 1;
        if (border_street || !rng->Bernoulli(options.missing_prob)) {
          add_street(grid[r][c], grid[r + 1][c], border_street);
        }
      }
      // Occasional diagonal arterial across the block.
      if (r + 1 < options.rows && c + 1 < options.cols &&
          rng->Bernoulli(options.diagonal_prob)) {
        if (rng->Bernoulli(0.5)) {
          net.AddTwoWay(grid[r][c], grid[r + 1][c + 1]);
        } else {
          net.AddTwoWay(grid[r][c + 1], grid[r + 1][c]);
        }
      }
    }
  }

  net.Finalize();
  return net;
}

RoadNetwork GenerateChain(int32_t n, double spacing_m,
                          const geo::GeoPoint& origin) {
  LIGHTTR_CHECK_GE(n, 2);
  RoadNetwork net;
  const geo::LocalProjection plane(origin);
  std::vector<VertexId> ids;
  ids.reserve(n);
  for (int32_t i = 0; i < n; ++i) {
    ids.push_back(net.AddVertex(plane.FromXy({i * spacing_m, 0.0})));
  }
  for (int32_t i = 0; i + 1 < n; ++i) net.AddTwoWay(ids[i], ids[i + 1]);
  net.Finalize();
  return net;
}

}  // namespace lighttr::roadnet
