// Unit and property tests for src/roadnet: graph construction, point
// projection, shortest paths (vs brute force), generators, and the
// segment spatial index (vs brute force and vs a direct oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "roadnet/generators.h"
#include "roadnet/road_network.h"
#include "roadnet/segment_index.h"
#include "roadnet/shortest_path.h"
#include "segment_index_oracle.h"

namespace lighttr::roadnet {
namespace {

RoadNetwork TriangleNetwork() {
  // v0 -> v1 -> v2 -> v0 one-way ring with known lengths.
  RoadNetwork net;
  const geo::LocalProjection plane({39.9, 116.4});
  const VertexId v0 = net.AddVertex(plane.FromXy({0.0, 0.0}));
  const VertexId v1 = net.AddVertex(plane.FromXy({300.0, 0.0}));
  const VertexId v2 = net.AddVertex(plane.FromXy({300.0, 400.0}));
  net.AddSegment(v0, v1);
  net.AddSegment(v1, v2);
  net.AddSegment(v2, v0);
  net.Finalize();
  return net;
}

TEST(RoadNetwork, SegmentLengthDefaultsToHaversine) {
  const RoadNetwork net = TriangleNetwork();
  EXPECT_NEAR(net.segment(0).length_m, 300.0, 1.0);
  EXPECT_NEAR(net.segment(1).length_m, 400.0, 1.0);
  EXPECT_NEAR(net.segment(2).length_m, 500.0, 1.0);  // 3-4-5 triangle
}

TEST(RoadNetwork, AdjacencyIndexes) {
  const RoadNetwork net = TriangleNetwork();
  ASSERT_EQ(net.OutSegments(0).size(), 1u);
  EXPECT_EQ(net.segment(net.OutSegments(0)[0]).to, 1);
  ASSERT_EQ(net.InSegments(0).size(), 1u);
  EXPECT_EQ(net.segment(net.InSegments(0)[0]).from, 2);
}

TEST(RoadNetwork, FindSegment) {
  const RoadNetwork net = TriangleNetwork();
  EXPECT_EQ(net.FindSegment(0, 1), 0);
  EXPECT_EQ(net.FindSegment(1, 0), kInvalidSegment);  // one-way
}

TEST(RoadNetwork, AddTwoWayCreatesBothDirections) {
  RoadNetwork net;
  const VertexId a = net.AddVertex({39.9, 116.4});
  const VertexId b = net.AddVertex({39.91, 116.4});
  net.AddTwoWay(a, b);
  net.Finalize();
  EXPECT_NE(net.FindSegment(a, b), kInvalidSegment);
  EXPECT_NE(net.FindSegment(b, a), kInvalidSegment);
  EXPECT_DOUBLE_EQ(net.segment(0).length_m, net.segment(1).length_m);
}

TEST(RoadNetwork, PositionToPointEndpoints) {
  const RoadNetwork net = TriangleNetwork();
  const geo::GeoPoint at_start = net.PositionToPoint({0, 0.0});
  const geo::GeoPoint at_end = net.PositionToPoint({0, 1.0});
  EXPECT_NEAR(geo::HaversineMeters(at_start, net.vertex(0).position), 0.0,
              0.01);
  EXPECT_NEAR(geo::HaversineMeters(at_end, net.vertex(1).position), 0.0,
              0.01);
}

TEST(RoadNetwork, ProjectOntoSegmentPerpendicular) {
  const RoadNetwork net = TriangleNetwork();
  // A point 50 m "north" of the midpoint of segment 0 (which runs east).
  const geo::LocalProjection plane(net.vertex(0).position);
  const geo::GeoPoint probe = plane.FromXy({150.0, 50.0});
  const Projection proj = net.ProjectOntoSegment(0, probe);
  EXPECT_NEAR(proj.position.ratio, 0.5, 0.01);
  EXPECT_NEAR(proj.distance_m, 50.0, 1.0);
}

TEST(RoadNetwork, ProjectOntoSegmentClampsToEndpoints) {
  const RoadNetwork net = TriangleNetwork();
  const geo::LocalProjection plane(net.vertex(0).position);
  const Projection before = net.ProjectOntoSegment(0, plane.FromXy({-100.0, 10.0}));
  EXPECT_DOUBLE_EQ(before.position.ratio, 0.0);
  const Projection after = net.ProjectOntoSegment(0, plane.FromXy({500.0, 10.0}));
  EXPECT_DOUBLE_EQ(after.position.ratio, 1.0);
}

TEST(ShortestPath, TriangleDistances) {
  const RoadNetwork net = TriangleNetwork();
  EXPECT_NEAR(VertexDistance(net, 0, 1), 300.0, 1.0);
  EXPECT_NEAR(VertexDistance(net, 1, 0), 900.0, 2.0);  // must loop around
  EXPECT_NEAR(VertexDistance(net, 0, 2), 700.0, 2.0);
}

TEST(ShortestPath, UnreachableIsInfinite) {
  RoadNetwork net;
  const VertexId a = net.AddVertex({39.9, 116.4});
  const VertexId b = net.AddVertex({39.91, 116.4});
  net.AddSegment(a, b);
  net.Finalize();
  EXPECT_EQ(VertexDistance(net, b, a), kUnreachable);
  EXPECT_FALSE(VertexRoute(net, b, a).ok());
}

TEST(ShortestPath, RouteIsConnectedAndMatchesDistance) {
  Rng rng(11);
  CityGridOptions options;
  options.rows = 6;
  options.cols = 6;
  const RoadNetwork net = GenerateCityGrid(options, &rng);
  Rng pick(12);
  for (int trial = 0; trial < 40; ++trial) {
    const auto u =
        static_cast<VertexId>(pick.UniformInt(0, net.num_vertices() - 1));
    const auto v =
        static_cast<VertexId>(pick.UniformInt(0, net.num_vertices() - 1));
    if (u == v) continue;
    auto route = VertexRoute(net, u, v);
    ASSERT_TRUE(route.ok());
    double total = 0.0;
    VertexId cursor = u;
    for (SegmentId e : route.value()) {
      EXPECT_EQ(net.segment(e).from, cursor);
      cursor = net.segment(e).to;
      total += net.segment(e).length_m;
    }
    EXPECT_EQ(cursor, v);
    EXPECT_NEAR(total, VertexDistance(net, u, v), 1e-6);
  }
}

// Property: Dijkstra agrees with Floyd-Warshall on random small graphs.
class DijkstraVsBruteForce : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DijkstraVsBruteForce, AllPairsAgree) {
  Rng rng(GetParam());
  RoadNetwork net;
  const int n = 8;
  for (int i = 0; i < n; ++i) {
    net.AddVertex({39.9 + 0.001 * i, 116.4 + 0.0013 * (i % 3)});
  }
  // Random directed edges with random (positive) lengths.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j && rng.Bernoulli(0.35)) {
        net.AddSegment(i, j, rng.Uniform(10.0, 500.0));
      }
    }
  }
  if (net.num_segments() == 0) {
    net.AddSegment(0, 1, 50.0);
  }
  net.Finalize();

  // Floyd-Warshall reference.
  std::vector<std::vector<double>> dist(
      n, std::vector<double>(n, kUnreachable));
  for (int i = 0; i < n; ++i) dist[i][i] = 0.0;
  for (SegmentId e = 0; e < net.num_segments(); ++e) {
    const Segment& seg = net.segment(e);
    dist[seg.from][seg.to] =
        std::min(dist[seg.from][seg.to], seg.length_m);
  }
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (dist[i][k] != kUnreachable && dist[k][j] != kUnreachable) {
          dist[i][j] = std::min(dist[i][j], dist[i][k] + dist[k][j]);
        }
      }
    }
  }

  DijkstraEngine engine(net);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (dist[i][j] == kUnreachable) {
        EXPECT_EQ(engine.Distance(i, j), kUnreachable);
      } else {
        EXPECT_NEAR(engine.Distance(i, j), dist[i][j], 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraVsBruteForce,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(TravelDistance, SameSegmentForward) {
  const RoadNetwork net = TriangleNetwork();
  EXPECT_NEAR(DirectedTravelDistance(net, {0, 0.2}, {0, 0.7}),
              0.5 * net.segment(0).length_m, 1e-6);
}

TEST(TravelDistance, SameSegmentBackwardLoops) {
  const RoadNetwork net = TriangleNetwork();
  // Going "backwards" on a one-way segment requires the full loop.
  const double d = DirectedTravelDistance(net, {0, 0.7}, {0, 0.2});
  const double loop = net.segment(0).length_m + net.segment(1).length_m +
                      net.segment(2).length_m;
  EXPECT_NEAR(d, loop - 0.5 * net.segment(0).length_m, 1.0);
}

TEST(TravelDistance, ConstrainedDistanceIsMinOfDirections) {
  const RoadNetwork net = TriangleNetwork();
  const PointPosition a{0, 0.2};
  const PointPosition b{0, 0.7};
  EXPECT_NEAR(ConstrainedDistance(net, a, b),
              std::min(DirectedTravelDistance(net, a, b),
                       DirectedTravelDistance(net, b, a)),
              1e-9);
}

TEST(TravelDistance, ZeroForIdenticalPositions) {
  const RoadNetwork net = TriangleNetwork();
  EXPECT_DOUBLE_EQ(ConstrainedDistance(net, {1, 0.4}, {1, 0.4}), 0.0);
}

TEST(Generators, CityGridStronglyConnected) {
  Rng rng(13);
  CityGridOptions options;
  options.rows = 7;
  options.cols = 7;
  options.missing_prob = 0.15;
  options.one_way_prob = 0.3;
  const RoadNetwork net = GenerateCityGrid(options, &rng);
  // The border ring guarantees reachability between all vertices.
  DijkstraEngine engine(net);
  for (VertexId v = 0; v < net.num_vertices(); ++v) {
    EXPECT_NE(engine.Distance(0, v), kUnreachable) << "vertex " << v;
  }
}

TEST(Generators, CityGridSizes) {
  Rng rng(14);
  CityGridOptions options;
  options.rows = 5;
  options.cols = 6;
  const RoadNetwork net = GenerateCityGrid(options, &rng);
  EXPECT_EQ(net.num_vertices(), 30);
  EXPECT_GT(net.num_segments(), 60);
}

TEST(Generators, Chain) {
  const RoadNetwork chain = GenerateChain(5, 100.0);
  EXPECT_EQ(chain.num_vertices(), 5);
  EXPECT_EQ(chain.num_segments(), 8);
  EXPECT_NEAR(VertexDistance(chain, 0, 4), 400.0, 2.0);
}

// Property: the spatial index returns exactly the segments a brute-force
// scan finds within the radius.
class SegmentIndexProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SegmentIndexProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  CityGridOptions options;
  options.rows = 5;
  options.cols = 5;
  const RoadNetwork net = GenerateCityGrid(options, &rng);
  const SegmentIndex index(net, /*cell_meters=*/150.0);

  const geo::GeoPoint lo = net.min_corner();
  const geo::GeoPoint hi = net.max_corner();
  Rng pick(GetParam() + 100);
  for (int trial = 0; trial < 20; ++trial) {
    const geo::GeoPoint p{pick.Uniform(lo.lat, hi.lat),
                          pick.Uniform(lo.lng, hi.lng)};
    const double radius = pick.Uniform(50.0, 400.0);
    const auto candidates = index.Nearby(p, radius);

    std::set<SegmentId> from_index;
    for (const auto& c : candidates) from_index.insert(c.segment);
    std::set<SegmentId> brute;
    for (SegmentId e = 0; e < net.num_segments(); ++e) {
      if (net.ProjectOntoSegment(e, p).distance_m <= radius) brute.insert(e);
    }
    EXPECT_EQ(from_index, brute);
    // Sorted nearest-first.
    for (size_t i = 1; i < candidates.size(); ++i) {
      EXPECT_LE(candidates[i - 1].projection.distance_m,
                candidates[i].projection.distance_m);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegmentIndexProperty,
                         ::testing::Values(21, 22, 23, 24));

// Two cities of different shape and size, for the differential tests.
std::vector<RoadNetwork> OracleCities() {
  std::vector<RoadNetwork> cities;
  Rng rng(5);
  CityGridOptions options;
  options.rows = 8;
  options.cols = 8;
  cities.push_back(GenerateCityGrid(options, &rng));
  options.rows = 6;
  options.cols = 11;
  options.spacing_m = 180.0;
  options.diagonal_prob = 0.3;
  cities.push_back(GenerateCityGrid(options, &rng));
  return cities;
}

// A random point in the network's bounding box grown by `margin_deg`.
geo::GeoPoint RandomPoint(const RoadNetwork& net, double margin_deg,
                          Rng* rng) {
  return {rng->Uniform(net.min_corner().lat - margin_deg,
                       net.max_corner().lat + margin_deg),
          rng->Uniform(net.min_corner().lng - margin_deg,
                       net.max_corner().lng + margin_deg)};
}

TEST(SegmentIndexOracle, ProjectionMatchesOracleBitwise) {
  Rng pick(61);
  for (const RoadNetwork& net : OracleCities()) {
    for (SegmentId e = 0; e < net.num_segments(); ++e) {
      const Segment& seg = net.segment(e);
      std::vector<geo::GeoPoint> points = {
          net.vertex(seg.from).position, net.vertex(seg.to).position,
          net.PositionToPoint({e, 0.5})};
      for (int i = 0; i < 40; ++i) {
        points.push_back(RandomPoint(net, 0.005, &pick));
      }
      for (const geo::GeoPoint& p : points) {
        test_util::ExpectSameProjection(net.ProjectOntoSegment(e, p),
                                        test_util::OracleProject(net, e, p));
      }
    }
  }
}

TEST(SegmentIndexOracle, NearbyMatchesOracleBitwise) {
  Rng pick(62);
  for (const RoadNetwork& net : OracleCities()) {
    for (const double cell : {200.0, 150.0}) {
      const SegmentIndex index(net, cell);
      const test_util::OracleIndex oracle(net, cell);
      for (int trial = 0; trial < 400; ++trial) {
        const geo::GeoPoint p = RandomPoint(net, 0.002, &pick);
        const double radius = pick.Uniform(50.0, 800.0);
        test_util::ExpectSameCandidates(index.Nearby(p, radius),
                                        oracle.Nearby(p, radius));
      }
      // The encoder's gap-scaled radii (up to 2 km), from points up to
      // ~3 km outside the grid, whose cells clamp to the border.
      for (int trial = 0; trial < 200; ++trial) {
        const geo::GeoPoint p = RandomPoint(net, 0.03, &pick);
        const double radius = pick.Uniform(500.0, 2000.0);
        test_util::ExpectSameCandidates(index.Nearby(p, radius),
                                        oracle.Nearby(p, radius));
      }
    }
  }
}

// Points where the order or the membership of hits is decided by a tie
// or by one ulp: on street midlines (both directed twins of a street at
// the same distance) and straight north/south/east/west of a segment's
// ends, queried at exactly their distance to that segment and one ulp
// either side (the `<=` test and the box bound's edge).
TEST(SegmentIndexOracle, NearbyMatchesOracleOnTiesAndRadiusEdges) {
  Rng pick(63);
  for (const RoadNetwork& net : OracleCities()) {
    const SegmentIndex index(net);
    const test_util::OracleIndex oracle(net);
    for (SegmentId e = 0; e < net.num_segments(); ++e) {
      const Segment& seg = net.segment(e);
      const geo::LocalProjection plane(net.vertex(seg.from).position);
      const auto b = plane.ToXy(net.vertex(seg.to).position);
      const double len = std::hypot(b.x, b.y);
      for (const double along : {0.25, 0.5, 0.75}) {
        for (const double offset : {0.0, 10.0, 37.5}) {
          const geo::GeoPoint p =
              plane.FromXy({along * b.x - offset * b.y / len,
                            along * b.y + offset * b.x / len});
          const double radius = pick.Uniform(50.0, 800.0);
          test_util::ExpectSameCandidates(index.Nearby(p, radius),
                                          oracle.Nearby(p, radius));
        }
      }
      for (const geo::GeoPoint& end :
           {net.vertex(seg.from).position, net.vertex(seg.to).position}) {
        const geo::LocalProjection local(end);
        const double d = pick.Uniform(20.0, 300.0);
        using Xy = geo::LocalProjection::Xy;
        for (const Xy step :
             {Xy{0.0, d}, Xy{0.0, -d}, Xy{d, 0.0}, Xy{-d, 0.0}}) {
          const geo::GeoPoint p = local.FromXy(step);
          const double exact = test_util::OracleProject(net, e, p).distance_m;
          const double up = std::numeric_limits<double>::infinity();
          for (const double radius : {exact, std::nextafter(exact, 0.0),
                                      std::nextafter(exact, up)}) {
            if (radius <= 0.0) continue;  // p lies on the segment
            test_util::ExpectSameCandidates(index.Nearby(p, radius),
                                            oracle.Nearby(p, radius));
          }
        }
      }
    }
  }
}

TEST(SegmentIndexOracle, HugeRadiusReturnsEverySegmentNearestFirst) {
  // The search window is clamped to the grid: a radius far beyond the
  // city, +inf included, neither overflows it nor walks empty cells.
  Rng rng(5);
  CityGridOptions options;
  options.rows = 8;
  options.cols = 8;
  const RoadNetwork net = GenerateCityGrid(options, &rng);
  const SegmentIndex index(net);
  const geo::GeoPoint p = net.PositionToPoint({0, 0.5});
  for (const double radius :
       {1e7, 1e12, std::numeric_limits<double>::infinity()}) {
    const auto candidates = index.Nearby(p, radius);
    ASSERT_EQ(candidates.size(), static_cast<size_t>(net.num_segments()))
        << radius;
    std::set<SegmentId> segments;
    for (const auto& c : candidates) segments.insert(c.segment);
    EXPECT_EQ(segments.size(), candidates.size()) << radius;
    EXPECT_TRUE(std::is_sorted(
        candidates.begin(), candidates.end(),
        [](const SegmentIndex::Candidate& a, const SegmentIndex::Candidate& b) {
          return a.projection.distance_m < b.projection.distance_m;
        }))
        << radius;
    EXPECT_NEAR(candidates.front().projection.distance_m, 0.0, 1e-6) << radius;
  }
}

// VertexRoute as it was before it shared DijkstraEngine's search: fresh
// arrays and a std::priority_queue on every call. The differential
// reference for the reused-array search.
Result<std::vector<SegmentId>> OracleVertexRoute(const RoadNetwork& network,
                                                 VertexId u, VertexId v) {
  if (u == v) return std::vector<SegmentId>{};
  std::vector<double> dist(network.num_vertices(), kUnreachable);
  std::vector<SegmentId> parent_segment(network.num_vertices(),
                                        kInvalidSegment);
  dist[u] = 0.0;
  using Entry = std::pair<double, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.push({0.0, u});
  while (!heap.empty()) {
    auto [d, x] = heap.top();
    heap.pop();
    if (x == v) break;
    if (d > dist[x]) continue;
    for (SegmentId e : network.OutSegments(x)) {
      const Segment& seg = network.segment(e);
      const double nd = d + seg.length_m;
      if (nd < dist[seg.to]) {
        dist[seg.to] = nd;
        parent_segment[seg.to] = e;
        heap.push({nd, seg.to});
      }
    }
  }
  if (dist[v] == kUnreachable) {
    return Status::NotFound("no directed route between vertices");
  }
  std::vector<SegmentId> route;
  for (VertexId x = v; x != u;) {
    const SegmentId e = parent_segment[x];
    route.push_back(e);
    x = network.segment(e).from;
  }
  std::reverse(route.begin(), route.end());
  return route;
}

// A lattice whose blocks are all exactly 100 m, with a few one-way and
// missing streets: equal-distance ties between vertices everywhere, so
// the settle order among ties decides which of several equal routes
// wins.
RoadNetwork TieLattice() {
  RoadNetwork net;
  const geo::LocalProjection plane({39.9, 116.4});
  const int32_t n = 7;
  for (int32_t r = 0; r < n; ++r) {
    for (int32_t c = 0; c < n; ++c) {
      net.AddVertex(plane.FromXy({100.0 * c, 100.0 * r}));
    }
  }
  for (int32_t r = 0; r < n; ++r) {
    for (int32_t c = 0; c < n; ++c) {
      const VertexId v = r * n + c;
      if (c + 1 < n && (r + c) % 5 != 3) {
        net.AddSegment(v, v + 1, 100.0);
        if ((r * c) % 7 != 4) net.AddSegment(v + 1, v, 100.0);
      }
      if (r + 1 < n) {
        net.AddSegment(v, v + n, 100.0);
        net.AddSegment(v + n, v, 100.0);
      }
    }
  }
  net.Finalize();
  return net;
}

void ExpectSameRoutes(const RoadNetwork& net, VertexId u, VertexId v) {
  const auto got = VertexRoute(net, u, v);
  const auto want = OracleVertexRoute(net, u, v);
  ASSERT_EQ(got.ok(), want.ok()) << u << " -> " << v;
  if (got.ok()) {
    EXPECT_EQ(got.value(), want.value()) << u << " -> " << v;
  }
}

TEST(RouteOracle, EveryVertexPairMatchesFreshArraySearch) {
  std::vector<RoadNetwork> cities = OracleCities();
  cities.push_back(TieLattice());
  for (const RoadNetwork& net : cities) {
    for (VertexId u = 0; u < net.num_vertices(); ++u) {
      for (VertexId v = 0; v < net.num_vertices(); ++v) {
        ExpectSameRoutes(net, u, v);
      }
    }
  }
}

TEST(RouteOracle, SearchesSurviveStampWrapAround) {
  // The reused labels carry 16-bit stamps, so any 65,535 consecutive
  // searches cross one wrap-around. A search that labels the whole
  // lattice from a corner is followed by 65,535 small ones; without the
  // reset on wrap-around its stale labels would be current again in the
  // search after them.
  const RoadNetwork net = TieLattice();
  const VertexId corner = 0;
  const VertexId far = net.num_vertices() - 1;
  const VertexId mid = net.num_vertices() / 2;
  DijkstraEngine engine(net);
  ASSERT_EQ(engine.Distance(corner, far), VertexDistance(net, corner, far));
  for (int32_t i = 0; i < 65535; ++i) (void)engine.Distance(mid, mid + 1);
  EXPECT_EQ(engine.Distance(far, corner), VertexDistance(net, far, corner));
  // The same for this thread's VertexRoute labels, from whatever stamp
  // earlier searches left them at.
  ExpectSameRoutes(net, corner, far);
  for (int32_t i = 0; i < 65535; ++i) {
    ASSERT_TRUE(VertexRoute(net, mid, mid + 1).ok());
  }
  ExpectSameRoutes(net, far, corner);
}

}  // namespace
}  // namespace lighttr::roadnet
