// Engineering microbenchmarks of the substrates: matrix kernels,
// autograd overhead, the frame/snapshot CRC-32, Dijkstra shortest
// paths, segment-index queries, trajectory encoding, and HMM map
// matching. Not a paper experiment; guards the performance assumptions
// the experiment harness relies on.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "mapmatch/hmm_map_matcher.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "roadnet/generators.h"
#include "roadnet/segment_index.h"
#include "roadnet/shortest_path.h"
#include "traj/downsample.h"
#include "traj/encoding.h"
#include "traj/generator.h"
#include "traj/workload.h"

namespace {

using namespace lighttr;

void BM_MatMul(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  const nn::Matrix a = nn::Matrix::RandomUniform(n, n, 1.0, &rng);
  const nn::Matrix b = nn::Matrix::RandomUniform(n, n, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::MatMulValues(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(16)->Arg(64)->Arg(128);

void BM_AutogradOverhead(benchmark::State& state) {
  // Chained small ops measure tape overhead relative to raw math.
  Rng rng(2);
  nn::Tensor w = nn::Tensor::Variable(nn::Matrix::RandomUniform(8, 8, 1.0, &rng));
  const nn::Matrix x = nn::Matrix::RandomUniform(1, 8, 1.0, &rng);
  for (auto _ : state) {
    nn::Tensor t = nn::Tensor::Constant(x);
    for (int i = 0; i < 8; ++i) t = nn::Tanh(nn::MatMul(t, w));
    nn::Tensor loss = nn::Mean(t);
    loss.Backward();
    w.ZeroGrad();
  }
}
BENCHMARK(BM_AutogradOverhead);

void BM_Crc32(benchmark::State& state) {
  std::string buffer(512 * 1024, '\0');
  Rng rng(5);
  for (char& c : buffer) c = static_cast<char>(rng.UniformInt(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buffer));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(buffer.size()));
}
BENCHMARK(BM_Crc32);

void BM_DijkstraPointToPoint(benchmark::State& state) {
  Rng rng(3);
  roadnet::CityGridOptions options;
  options.rows = static_cast<int32_t>(state.range(0));
  options.cols = static_cast<int32_t>(state.range(0));
  const roadnet::RoadNetwork network = roadnet::GenerateCityGrid(options, &rng);
  roadnet::DijkstraEngine engine(network);
  Rng pick(4);
  for (auto _ : state) {
    const auto u = static_cast<roadnet::VertexId>(
        pick.UniformInt(0, network.num_vertices() - 1));
    const auto v = static_cast<roadnet::VertexId>(
        pick.UniformInt(0, network.num_vertices() - 1));
    benchmark::DoNotOptimize(engine.Distance(u, v));
  }
}
BENCHMARK(BM_DijkstraPointToPoint)->Arg(9)->Arg(16)->Arg(24);

// Radius queries at random points of the default 12x12 city. 250 m is
// the encoder's floor radius; 675 m is its gap-scaled radius for a
// 1.5 km anchor gap (0.45 x gap), where most queries return over 32 hits.
void BM_SegmentIndexNearby(benchmark::State& state) {
  Rng rng(5);
  roadnet::CityGridOptions options;
  const roadnet::RoadNetwork network = roadnet::GenerateCityGrid(options, &rng);
  const roadnet::SegmentIndex index(network);
  const geo::GeoPoint lo = network.min_corner();
  const geo::GeoPoint hi = network.max_corner();
  const auto radius = static_cast<double>(state.range(0));
  Rng pick(6);
  for (auto _ : state) {
    const geo::GeoPoint p{pick.Uniform(lo.lat, hi.lat),
                          pick.Uniform(lo.lng, hi.lng)};
    benchmark::DoNotOptimize(index.Nearby(p, radius));
  }
}
BENCHMARK(BM_SegmentIndexNearby)->Arg(250)->Arg(675);

// The constraint mask layer's logit op (paper Eq. 10-11): one decoder
// state against 33 of the 8x8 city's 209 segment columns, at hidden 32
// and 48. Arg 1 adds the backward closure (the Backward of a sum).
void BM_CandidateLogits(benchmark::State& state) {
  const auto hidden = static_cast<size_t>(state.range(0));
  const bool backward = state.range(1) != 0;
  constexpr size_t kSegments = 209;
  Rng rng(9);
  const nn::Tensor h =
      nn::Tensor::Variable(nn::Matrix::RandomUniform(1, hidden, 1.0, &rng));
  const nn::Tensor w = nn::Tensor::Variable(
      nn::Matrix::RandomUniform(hidden, kSegments, 1.0, &rng));
  const nn::Tensor b =
      nn::Tensor::Variable(nn::Matrix::RandomUniform(1, kSegments, 1.0, &rng));
  std::vector<int> candidates;
  for (int k = 0; k < 33; ++k) {
    candidates.push_back(static_cast<int>(rng.UniformInt(0, kSegments - 1)));
  }
  for (auto _ : state) {
    nn::Tensor logits = nn::CandidateLogits(h, w, b, candidates);
    if (backward) nn::Sum(logits).Backward();
    benchmark::DoNotOptimize(logits.value().data());
  }
}
BENCHMARK(BM_CandidateLogits)
    ->Args({32, 0})
    ->Args({48, 0})
    ->Args({32, 1})
    ->Args({48, 1});

// One-pass encoding (inputs, targets, every missing step's candidates)
// of Geolife-like trajectories at keep ratio 12.5% on an 8x8 city; one
// iteration encodes one trajectory.
void BM_TrajectoryEncode(benchmark::State& state) {
  Rng rng(8);
  roadnet::CityGridOptions options;
  options.rows = 8;
  options.cols = 8;
  const roadnet::RoadNetwork network = roadnet::GenerateCityGrid(options, &rng);
  const roadnet::SegmentIndex index(network);
  const traj::TrajectoryEncoder encoder(network, index);
  const traj::TrajectoryGenerator generator(network);
  const traj::GeneratorOptions gen = traj::GeolifeLikeProfile().generator;
  std::vector<traj::IncompleteTrajectory> corpus;
  while (corpus.size() < 64) {
    auto matched = generator.Generate(gen, roadnet::kInvalidVertex, &rng);
    if (!matched.ok()) continue;
    corpus.push_back(
        traj::MakeIncomplete(std::move(matched).value(), 0.125, &rng));
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(corpus[next]));
    next = (next + 1) % corpus.size();
  }
}
BENCHMARK(BM_TrajectoryEncode);

void BM_HmmMapMatch(benchmark::State& state) {
  Rng rng(7);
  roadnet::CityGridOptions options;
  const roadnet::RoadNetwork network = roadnet::GenerateCityGrid(options, &rng);
  const roadnet::SegmentIndex index(network);
  const traj::TrajectoryGenerator generator(network);
  traj::GeneratorOptions gen;
  gen.min_points = 24;
  gen.max_points = 24;
  auto matched = generator.Generate(gen, roadnet::kInvalidVertex, &rng);
  const traj::RawTrajectory raw =
      traj::ToRawTrajectory(network, matched.value(), 20.0, &rng);
  const mapmatch::HmmMapMatcher matcher(index, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Match(raw));
  }
}
BENCHMARK(BM_HmmMapMatch);

}  // namespace

BENCHMARK_MAIN();
