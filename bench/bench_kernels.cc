// Microkernel benchmark: the acceptance gauge for the SIMD kernel
// layer, the fused GRU step, and the tensor arena.
//
// Sections (the kernel sections are swept over scalar/avx2):
//  1. Blocked GEMM GFLOP/s at 128/256/384, single thread.
//     Acceptance: AVX2 blocked GEMM >= 2.5x scalar.
//  2. The small NN/TA/TB GEMM kernels at a real training shape
//     ([4,43]x[43,32]).
//  3. GRU step — fused GruStep (one graph node, packed gates) vs the
//     composed ~12-op chain it replaced, forward+backward.
//  4. Arena — arena-vs-bypass timing of the fused GRU training step and
//     its steady-state heap allocations.
//  5. Adam — the optimizer's element update over a ~45k-scalar
//     parameter set, in ns per scalar (the two tables agree bitwise).
//
// Emits BENCH_kernels.json (kernel variant recorded per row) and
// bench_kernels.csv via the common --output-dir/LIGHTTR_BENCH_DIR
// policy. `--smoke` runs tiny sizes and asserts the invariants
// (SIMD >= scalar, scalar/AVX2 parity — bitwise for Adam — and zero
// steady-state heap allocations: no arena block, matrix or graph node,
// over GRU training steps and no-grad decode steps, and no global
// operator new at all over the decode steps) — registered as the
// bench_kernels_smoke ctest so every test run gates on them.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_output.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "nn/arena.h"
#include "nn/kernels/kernels.h"
#include "nn/matrix.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/parameter.h"
#include "nn/tensor.h"
#include "traj/encoding.h"

namespace {

// Every global operator new of the process, so the smoke gate can
// require that warmed-up decode steps make none.
std::atomic<int64_t> g_operator_news{0};

}  // namespace

// Counting replacements of the global allocation functions (array,
// nothrow and sized forms forward to these). noinline: inlined into a
// caller, GCC's -Wmismatched-new-delete pairs their malloc and free
// with the caller's new and delete and fails the sanitizer builds.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_operator_news.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new(std::size_t size,
                                     std::align_val_t alignment) {
  g_operator_news.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(alignment);
  // aligned_alloc takes a whole number of alignment units.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* block = std::aligned_alloc(align, rounded == 0 ? align : rounded)) {
    return block;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}

[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}

[[gnu::noinline]] void operator delete(void* block,
                                       std::align_val_t) noexcept {
  std::free(block);
}

[[gnu::noinline]] void operator delete(void* block, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(block);
}

namespace {

using namespace lighttr;

double BestOfRuns(int runs, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < runs; ++r) {
    Stopwatch watch;
    fn();
    const double elapsed = watch.ElapsedSeconds();
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

std::string JsonRow(const std::string& section, const char* kernel,
                    const std::string& shape, double seconds, double gflops,
                    double speedup_vs_scalar) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "  {\"section\": \"%s\", \"kernel\": \"%s\", \"shape\": "
                "\"%s\", \"seconds\": %.6f, \"gflops\": %.3f, "
                "\"speedup_vs_scalar\": %.3f}",
                section.c_str(), kernel, shape.c_str(), seconds, gflops,
                speedup_vs_scalar);
  return buffer;
}

std::vector<nn::Scalar> RandomVec(size_t n, Rng* rng) {
  std::vector<nn::Scalar> v(n);
  for (nn::Scalar& x : v) x = static_cast<nn::Scalar>(rng->Uniform(-1.0, 1.0));
  return v;
}

// One GRU training step (forward + backward) through the fused op.
void FusedGruStep(const nn::Tensor& x, const nn::Tensor& h,
                  const nn::Tensor& wr, const nn::Tensor& br,
                  const nn::Tensor& wz, const nn::Tensor& bz,
                  const nn::Tensor& wh, const nn::Tensor& bh) {
  nn::Tensor out = nn::GruStep(x, h, wr, br, wz, bz, wh, bh);
  nn::Tensor loss = nn::Mean(out);
  loss.Backward();
}

// The composed implementation GruStep replaced (nn/layers.cc pre-PR-9):
// concat, three matmuls over the concatenated input, separate
// activation nodes — ~12 graph nodes per step.
void ComposedGruStep(const nn::Tensor& x, const nn::Tensor& h,
                     const nn::Tensor& wr, const nn::Tensor& br,
                     const nn::Tensor& wz, const nn::Tensor& bz,
                     const nn::Tensor& wh, const nn::Tensor& bh) {
  const nn::Tensor hx = nn::ConcatCols(h, x);
  const nn::Tensor r =
      nn::Sigmoid(nn::AddRowBroadcast(nn::MatMul(hx, wr), br));
  const nn::Tensor z =
      nn::Sigmoid(nn::AddRowBroadcast(nn::MatMul(hx, wz), bz));
  const nn::Tensor gated = nn::ConcatCols(nn::Mul(r, h), x);
  const nn::Tensor ht =
      nn::Tanh(nn::AddRowBroadcast(nn::MatMul(gated, wh), bh));
  nn::Tensor out = nn::Add(h, nn::Mul(z, nn::Sub(ht, h)));
  nn::Tensor loss = nn::Mean(out);
  loss.Backward();
}

struct GruFixture {
  nn::Tensor x, h, wr, br, wz, bz, wh, bh;
};

GruFixture MakeGruFixture(size_t batch, size_t in_dim, size_t hidden,
                          Rng* rng) {
  GruFixture f;
  f.x = nn::Tensor::Constant(
      nn::Matrix::RandomUniform(batch, in_dim, 1.0, rng));
  f.h = nn::Tensor::Variable(
      nn::Matrix::RandomUniform(batch, hidden, 1.0, rng));
  f.wr = nn::Tensor::Variable(nn::Matrix::Xavier(hidden + in_dim, hidden, rng));
  f.br = nn::Tensor::Variable(nn::Matrix::Zeros(1, hidden));
  f.wz = nn::Tensor::Variable(nn::Matrix::Xavier(hidden + in_dim, hidden, rng));
  f.bz = nn::Tensor::Variable(nn::Matrix::Zeros(1, hidden));
  f.wh = nn::Tensor::Variable(nn::Matrix::Xavier(hidden + in_dim, hidden, rng));
  f.bh = nn::Tensor::Variable(nn::Matrix::Zeros(1, hidden));
  return f;
}

// LightTR's no-grad decode at its shapes: the encoder's GRU over
// kFeatureDim inputs, the ST-block's RNN cell over [h | segment
// embedding | ratio], and the fused head, hidden 32, embedding 16.
struct DecodeFixture {
  nn::ParameterSet params;
  std::unique_ptr<nn::GruCell> gru;
  std::unique_ptr<nn::RnnCell> st;
  nn::MtHeadWeights head;
  nn::Tensor inputs;  // [steps, kFeatureDim]
  std::vector<int> candidates;
  std::vector<nn::Scalar> log_mask;
};

DecodeFixture MakeDecodeFixture(Rng* rng) {
  constexpr size_t kFeature = traj::TrajectoryEncoder::kFeatureDim;
  constexpr size_t kHidden = 32;
  constexpr size_t kEmbed = 16;
  constexpr size_t kSegments = 64;
  DecodeFixture f;
  f.gru = std::make_unique<nn::GruCell>(kFeature, kHidden, "embed.gru",
                                        &f.params, rng);
  f.st = std::make_unique<nn::RnnCell>(kHidden + kEmbed + 1, kHidden,
                                       "st0.rnn", &f.params, rng);
  const auto variable = [rng](size_t rows, size_t cols) {
    return nn::Tensor::Variable(
        nn::Matrix::RandomUniform(rows, cols, 0.5, rng));
  };
  f.head.dense_w = variable(kHidden, kHidden);
  f.head.dense_b = variable(1, kHidden);
  f.head.seg_w = variable(kHidden, kSegments);
  f.head.seg_b = variable(1, kSegments);
  f.head.emb_table = variable(kSegments, kEmbed);
  f.head.proj_w = variable(kEmbed, kHidden);
  f.head.proj_b = variable(1, kHidden);
  f.head.ratio_w = variable(kHidden + kEmbed, 1);
  f.head.ratio_b = variable(1, 1);
  f.inputs = nn::Tensor::Constant(
      nn::Matrix::RandomUniform(4, kFeature, 1.0, rng));
  f.candidates = {5, 17, 40, 3, 22, 61, 9, 30, 12};
  for (size_t k = 0; k < f.candidates.size(); ++k) {
    f.log_mask.push_back(rng->Uniform(-3.0, 0.0));
  }
  return f;
}

// One missing step of Recover's decode: encoder step, ST-block step on
// the previous prediction, fused head. Returns the predicted segment.
int NoGradDecodeStep(const DecodeFixture& f, int prev_segment,
                     nn::Tensor* h, nn::Tensor* state) {
  *h = f.gru->Forward(nn::SliceRows(f.inputs, 1, 1), *h);
  const nn::Tensor prev_emb =
      nn::EmbeddingLookup(f.head.emb_table, {&prev_segment, 1});
  const nn::Tensor prev_ratio =
      nn::Tensor::Constant(nn::Matrix::Full(1, 1, 0.4));
  *state = f.st->Forward(
      nn::ConcatCols(nn::ConcatCols(*h, prev_emb), prev_ratio), *state);
  return nn::MtHeadStep(*state, f.head, f.candidates, f.log_mask,
                        /*target_index=*/-1, /*conditioning_segment=*/-1)
      .predicted_segment;
}

// A ParameterSet shaped like a GRU seq2seq model of about MTrajRec+FL's
// size (44,783 scalars), with gradients and Adam moments. Several
// tensor sizes are not multiples of 4, so the vector kernel's tails run.
struct AdamFixture {
  nn::ParameterSet params;
  std::vector<nn::Matrix> m, v;
};

AdamFixture MakeAdamFixture(uint64_t seed) {
  const size_t shapes[][2] = {{91, 96}, {91, 48}, {1, 96},  {1, 48},
                              {48, 257}, {1, 257}, {96, 96}, {96, 48},
                              {43, 48},  {1, 48},  {1, 3001}, {1, 5}};
  AdamFixture f;
  Rng rng(seed);
  for (const auto& shape : shapes) {
    nn::Tensor t = nn::Tensor::Variable(
        nn::Matrix::RandomUniform(shape[0], shape[1], 1.0, &rng));
    t.grad() = nn::Matrix::RandomUniform(shape[0], shape[1], 1.0, &rng);
    f.params.Register("p" + std::to_string(f.m.size()), t);
    f.m.push_back(nn::Matrix::Zeros(shape[0], shape[1]));
    f.v.push_back(nn::Matrix::Zeros(shape[0], shape[1]));
  }
  return f;
}

// One Adam step (t >= 1) over every tensor through the active table.
void AdamStep(AdamFixture* f, int t) {
  const nn::kernels::AdamCoefficients c = {
      0.9,  0.999, 1 - std::pow(0.9, t), 1 - std::pow(0.999, t),
      3e-3, 1e-8,  1e-4};
  for (size_t i = 0; i < f->params.size(); ++i) {
    const nn::Tensor& p = f->params.tensor(i);
    nn::kernels::AdamUpdate(p.mutable_value().data(), p.grad().data(),
                            f->m[i].data(), f->v[i].data(), p.value().size(),
                            c);
  }
}

bool SameBits(const nn::Matrix& a, const nn::Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(nn::Scalar)) == 0;
}

// Values and both moments of every tensor agree bit for bit.
bool AdamFixturesMatch(const AdamFixture& a, const AdamFixture& b) {
  for (size_t i = 0; i < a.params.size(); ++i) {
    if (!SameBits(a.params.tensor(i).value(), b.params.tensor(i).value()) ||
        !SameBits(a.m[i], b.m[i]) || !SameBits(a.v[i], b.v[i])) {
      return false;
    }
  }
  return true;
}

// Max combined abs/rel deviation between two buffers.
double MaxDeviation(const std::vector<nn::Scalar>& a,
                    const std::vector<nn::Scalar>& b) {
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({1.0, std::abs(a[i]), std::abs(b[i])});
    worst = std::max(worst, std::abs(a[i] - b[i]) / scale);
  }
  return worst;
}

int Fail(const char* what) {
  std::printf("SMOKE FAIL: %s\n", what);
  return 1;
}

// Tiny-size invariant gate for ctest: parity, SIMD-not-slower, arena
// zero-alloc. Sizes are small enough for sanitizer builds.
int RunSmoke() {
  const bool avx2 = nn::CpuHasAvx2Fma();
  std::printf("bench_kernels --smoke (avx2=%d)\n", avx2 ? 1 : 0);

  // Parity: scalar vs active-auto GEMM + activations on odd shapes.
  Rng rng(5);
  const size_t m = 7, k = 43, n = 33;
  const std::vector<nn::Scalar> a = RandomVec(m * k, &rng);
  const std::vector<nn::Scalar> b = RandomVec(k * n, &rng);
  std::vector<nn::Scalar> ref(m * n, nn::Scalar{0});
  std::vector<nn::Scalar> vec(m * n, nn::Scalar{0});
  nn::ActivateKernels(nn::KernelMode::kScalar);
  nn::kernels::GemmSmallNN(a.data(), b.data(), ref.data(), m, k, n, n);
  nn::ActivateKernels(nn::KernelMode::kAuto);
  nn::kernels::GemmSmallNN(a.data(), b.data(), vec.data(), m, k, n, n);
  if (MaxDeviation(ref, vec) > 1e-13) return Fail("GEMM parity");

  std::vector<nn::Scalar> act_ref = RandomVec(1001, &rng);
  std::vector<nn::Scalar> act_vec = act_ref;
  nn::ActivateKernels(nn::KernelMode::kScalar);
  nn::kernels::TanhInPlace(act_ref.data(), act_ref.size());
  nn::ActivateKernels(nn::KernelMode::kAuto);
  nn::kernels::TanhInPlace(act_vec.data(), act_vec.size());
  if (MaxDeviation(act_ref, act_vec) > 1e-12) return Fail("tanh parity");

  // SIMD >= scalar on a blocked GEMM big enough to time reliably.
  if (avx2) {
    const size_t dim = 192;
    Rng grng(7);
    const std::vector<nn::Scalar> ga = RandomVec(dim * dim, &grng);
    const std::vector<nn::Scalar> gb = RandomVec(dim * dim, &grng);
    std::vector<nn::Scalar> gc(dim * dim, nn::Scalar{0});
    nn::ActivateKernels(nn::KernelMode::kScalar);
    const double scalar_s = BestOfRuns(5, [&] {
      nn::kernels::GemmRowsBlocked(ga.data(), gb.data(), gc.data(), dim, dim,
                                   0, dim);
    });
    nn::ActivateKernels(nn::KernelMode::kAvx2);
    const double avx2_s = BestOfRuns(5, [&] {
      nn::kernels::GemmRowsBlocked(ga.data(), gb.data(), gc.data(), dim, dim,
                                   0, dim);
    });
    std::printf("blocked %zu^3: scalar %.4fs avx2 %.4fs (%.2fx)\n", dim,
                scalar_s, avx2_s, scalar_s / avx2_s);
    if (avx2_s > scalar_s) return Fail("AVX2 slower than scalar");
  }

  // Adam: the two tables agree bitwise after chained steps, and the
  // vector update is not slower.
  {
    AdamFixture adam_ref = MakeAdamFixture(13);
    AdamFixture adam_vec = MakeAdamFixture(13);
    nn::ActivateKernels(nn::KernelMode::kScalar);
    for (int t = 1; t <= 5; ++t) AdamStep(&adam_ref, t);
    nn::ActivateKernels(nn::KernelMode::kAuto);
    for (int t = 1; t <= 5; ++t) AdamStep(&adam_vec, t);
    if (!AdamFixturesMatch(adam_ref, adam_vec)) {
      return Fail("Adam bitwise parity");
    }
    if (avx2) {
      nn::ActivateKernels(nn::KernelMode::kScalar);
      const double scalar_s = BestOfRuns(5, [&] { AdamStep(&adam_ref, 6); });
      nn::ActivateKernels(nn::KernelMode::kAvx2);
      const double avx2_s = BestOfRuns(5, [&] { AdamStep(&adam_vec, 6); });
      const double scalars = static_cast<double>(adam_ref.params.NumScalars());
      std::printf("adam %.0f scalars: scalar %.2f ns/scalar, avx2 %.2f "
                  "ns/scalar (%.2fx)\n",
                  scalars, scalar_s * 1e9 / scalars, avx2_s * 1e9 / scalars,
                  scalar_s / avx2_s);
      if (avx2_s > scalar_s) return Fail("AVX2 Adam slower than scalar");
    }
  }

  // Arena: identically-shaped training steps allocate nothing after
  // the first.
  nn::ActivateKernels(nn::KernelMode::kAuto);
  {
    Rng frng(11);
    GruFixture f = MakeGruFixture(4, 11, 32, &frng);
    FusedGruStep(f.x, f.h, f.wr, f.br, f.wz, f.bz, f.wh, f.bh);
    const nn::ArenaStats warm = nn::ThreadArenaStats();
    for (int i = 0; i < 5; ++i) {
      FusedGruStep(f.x, f.h, f.wr, f.br, f.wz, f.bz, f.wh, f.bh);
    }
    const nn::ArenaStats after = nn::ThreadArenaStats();
    const int64_t heap = after.heap_allocations - warm.heap_allocations;
    std::printf("steady-state heap allocations over 5 GRU steps: %lld\n",
                static_cast<long long>(heap));
    if (heap != 0) return Fail("steady-state heap allocations");
  }
  // Inference: after a warm-up step, no-grad decode steps (SliceRows,
  // GruStep, EmbeddingLookup, ConcatCols, Dense, Tanh, the fused head)
  // take every matrix and every graph node from the thread's arena and
  // make no other heap allocation either.
  {
    Rng drng(12);
    const DecodeFixture f = MakeDecodeFixture(&drng);
    nn::NoGradScope no_grad;
    nn::Tensor h = f.gru->InitialState();
    nn::Tensor state = f.st->InitialState();
    int segment = NoGradDecodeStep(f, 0, &h, &state);
    const nn::ArenaStats warm = nn::ThreadArenaStats();
    const int64_t warm_news = g_operator_news.load();
    for (int i = 0; i < 5; ++i) {
      segment = NoGradDecodeStep(f, segment, &h, &state);
    }
    const int64_t news = g_operator_news.load() - warm_news;
    const nn::ArenaStats after = nn::ThreadArenaStats();
    const int64_t heap = after.heap_allocations - warm.heap_allocations;
    std::printf("steady-state heap allocations over 5 no-grad decode "
                "steps: %lld arena blocks (%lld drawn), %lld operator new\n",
                static_cast<long long>(heap),
                static_cast<long long>(after.acquires - warm.acquires),
                static_cast<long long>(news));
    if (heap != 0 || news != 0) {
      return Fail("steady-state heap allocations in no-grad decode");
    }
  }
  std::printf("SMOKE OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  if (args.error) return 2;
  if (args.smoke) return RunSmoke();

  const bool avx2 = nn::CpuHasAvx2Fma();
  std::printf("Kernel microbenchmarks (avx2+fma available: %d)\n",
              avx2 ? 1 : 0);
  TablePrinter table(
      {"Section", "Kernel", "Shape", "Seconds", "GFLOP/s", "vs scalar"});
  std::vector<std::string> json_rows;
  std::vector<nn::KernelMode> modes = {nn::KernelMode::kScalar};
  if (avx2) modes.push_back(nn::KernelMode::kAvx2);

  const int runs = 5;
  auto add_row = [&](const std::string& section, const char* kernel,
                     const std::string& shape, double seconds, double flops,
                     double scalar_seconds) {
    const double gflops = flops / seconds / 1e9;
    const double speedup = scalar_seconds / seconds;
    table.AddRow({section, kernel, shape, TablePrinter::Fmt(seconds, 5),
                  TablePrinter::Fmt(gflops, 2), TablePrinter::Fmt(speedup, 2)});
    json_rows.push_back(
        JsonRow(section, kernel, shape, seconds, gflops, speedup));
  };

  // ---- Section 1: blocked GEMM (single thread; the parallel split is
  // bench_parallel_scaling's subject).
  for (size_t dim : {128u, 256u, 384u}) {
    Rng rng(17 + dim);
    const std::vector<nn::Scalar> a = RandomVec(dim * dim, &rng);
    const std::vector<nn::Scalar> b = RandomVec(dim * dim, &rng);
    std::vector<nn::Scalar> c(dim * dim, nn::Scalar{0});
    const double flops = 2.0 * static_cast<double>(dim) *
                         static_cast<double>(dim) * static_cast<double>(dim);
    const std::string shape = std::to_string(dim) + "^3";
    double scalar_s = 0.0;
    for (nn::KernelMode mode : modes) {
      nn::ActivateKernels(mode);
      const double seconds = BestOfRuns(runs, [&] {
        nn::kernels::GemmRowsBlocked(a.data(), b.data(), c.data(), dim, dim,
                                     0, dim);
      });
      if (mode == nn::KernelMode::kScalar) scalar_s = seconds;
      add_row("gemm-blocked", nn::KernelModeName(mode), shape, seconds, flops,
              scalar_s);
    }
  }

  // ---- Section 2: the small-GEMM trio at a real training shape. One
  // timed call loops the kernel to get above timer resolution.
  {
    const size_t m = 4, k = 43, n = 32;
    const int reps = 2000;
    Rng rng(23);
    const std::vector<nn::Scalar> a = RandomVec(m * k, &rng);
    const std::vector<nn::Scalar> b = RandomVec(k * n, &rng);
    const std::vector<nn::Scalar> bt = RandomVec(n * k, &rng);
    std::vector<nn::Scalar> c(m * n, nn::Scalar{0});
    std::vector<nn::Scalar> cta(k * n, nn::Scalar{0});
    const double flops = 2.0 * m * k * n * reps;
    const char* shape = "4x43x32 x2000";
    struct SmallKernel {
      const char* name;
      std::function<void()> run;
    };
    const SmallKernel kernels_under_test[] = {
        {"small-nn",
         [&] {
           for (int i = 0; i < reps; ++i) {
             nn::kernels::GemmSmallNN(a.data(), b.data(), c.data(), m, k, n,
                                      n);
           }
         }},
        {"small-ta",
         [&] {
           // c [k,n] += a^T b with a [m,k] read as [k,m] operand shape.
           for (int i = 0; i < reps; ++i) {
             nn::kernels::GemmSmallTA(a.data(), b.data(), cta.data(), k,
                                      m, n);
           }
         }},
        {"small-tb",
         [&] {
           for (int i = 0; i < reps; ++i) {
             nn::kernels::GemmSmallTB(a.data(), bt.data(), c.data(), m, k,
                                      n);
           }
         }},
    };
    for (const SmallKernel& kernel : kernels_under_test) {
      double scalar_s = 0.0;
      for (nn::KernelMode mode : modes) {
        nn::ActivateKernels(mode);
        const double seconds = BestOfRuns(runs, kernel.run);
        if (mode == nn::KernelMode::kScalar) scalar_s = seconds;
        add_row(kernel.name, nn::KernelModeName(mode), shape, seconds, flops,
                scalar_s);
      }
    }
  }

  // ---- Section 3: fused vs composed GRU step, forward+backward.
  {
    const size_t batch = 4, in_dim = 43, hidden = 32;
    const int reps = 200;
    const double flops_per_step =
        6.0 * batch * (hidden + in_dim) * hidden * 3.0;  // fwd+bwd approx
    const std::string shape = "b4 i43 h32 x200";
    for (nn::KernelMode mode : modes) {
      nn::ActivateKernels(mode);
      Rng rng(29);
      GruFixture f = MakeGruFixture(batch, in_dim, hidden, &rng);
      const double composed_s = BestOfRuns(runs, [&] {
        for (int i = 0; i < reps; ++i) {
          ComposedGruStep(f.x, f.h, f.wr, f.br, f.wz, f.bz, f.wh, f.bh);
        }
      });
      const double fused_s = BestOfRuns(runs, [&] {
        for (int i = 0; i < reps; ++i) {
          FusedGruStep(f.x, f.h, f.wr, f.br, f.wz, f.bz, f.wh, f.bh);
        }
      });
      add_row("gru-composed", nn::KernelModeName(mode), shape, composed_s,
              flops_per_step * reps, composed_s);
      add_row("gru-fused", nn::KernelModeName(mode), shape, fused_s,
              flops_per_step * reps, composed_s);
    }
  }

  // ---- Section 4: arena vs bypass on the fused GRU training step,
  // plus the steady-state allocation count.
  {
    const size_t batch = 4, in_dim = 43, hidden = 32;
    const int reps = 200;
    nn::ActivateKernels(avx2 ? nn::KernelMode::kAvx2
                             : nn::KernelMode::kScalar);
    Rng rng(31);
    GruFixture f = MakeGruFixture(batch, in_dim, hidden, &rng);
    auto step_loop = [&] {
      for (int i = 0; i < reps; ++i) {
        FusedGruStep(f.x, f.h, f.wr, f.br, f.wz, f.bz, f.wh, f.bh);
      }
    };
    step_loop();  // warm the freelists
    const nn::ArenaStats warm = nn::ThreadArenaStats();
    const double arena_s = BestOfRuns(runs, step_loop);
    const nn::ArenaStats after = nn::ThreadArenaStats();
    const bool bypass_saved = nn::SetArenaBypass(true);
    const double bypass_s = BestOfRuns(runs, step_loop);
    nn::SetArenaBypass(bypass_saved);
    const long long steady_heap_allocs = static_cast<long long>(
        after.heap_allocations - warm.heap_allocations);
    add_row("arena-on", "-", "gru-step x200", arena_s, 0.0, bypass_s);
    add_row("arena-bypass", "-", "gru-step x200", bypass_s, 0.0, bypass_s);
    std::printf("steady-state heap allocations across %d timed GRU "
                "steps: %lld (pool hits +%lld)\n",
                runs * reps, steady_heap_allocs,
                static_cast<long long>(after.pool_hits - warm.pool_hits));
  }

  // ---- Section 5: the Adam update over a ~45k-scalar parameter set.
  {
    const int reps = 20;
    double scalar_s = 0.0;
    for (nn::KernelMode mode : modes) {
      nn::ActivateKernels(mode);
      AdamFixture f = MakeAdamFixture(37);
      const double scalars = static_cast<double>(f.params.NumScalars());
      const std::string shape = TablePrinter::Fmt(scalars, 0) + " scalars x" +
                                std::to_string(reps);
      const double seconds = BestOfRuns(runs, [&] {
        for (int t = 1; t <= reps; ++t) AdamStep(&f, t);
      });
      if (mode == nn::KernelMode::kScalar) scalar_s = seconds;
      add_row("adam", nn::KernelModeName(mode), shape, seconds, 0.0,
              scalar_s);
      std::printf("adam (%s): %.2f ns/scalar\n", nn::KernelModeName(mode),
                  seconds * 1e9 / (scalars * reps));
    }
  }

  std::printf("%s", table.ToString().c_str());
  const std::string json = std::string("{\"avx2_available\": ") +
                           (avx2 ? "true" : "false") + ", \"rows\": " +
                           bench::JsonArray(json_rows) + "}\n";
  if (!bench::WriteArtifact(args, "BENCH_kernels.json", json) ||
      !bench::WriteArtifact(args, "bench_kernels.csv", table.ToCsv())) {
    return 1;
  }
  return 0;
}
