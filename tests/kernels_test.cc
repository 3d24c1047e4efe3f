// Kernel-layer tests: mode resolution, scalar-vs-AVX2 numeric parity
// (the scalar reference bounds the vector kernels' rounding drift, and
// the Adam update must match it bitwise), and the tensor arena's
// alignment/reuse/bypass/bound contracts.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/arena.h"
#include "nn/kernels/kernels.h"
#include "nn/matrix.h"

namespace lighttr::nn {
namespace {

// Restores the kernel mode active at construction — parity tests flip
// the process-global table and must not leak that into other tests.
class ScopedKernelMode {
 public:
  explicit ScopedKernelMode(KernelMode mode) : saved_(ActiveKernelMode()) {
    ActivateKernels(mode);
  }
  ~ScopedKernelMode() { ActivateKernels(saved_); }

 private:
  KernelMode saved_;
};

std::vector<Scalar> RandomVec(size_t n, Rng* rng) {
  std::vector<Scalar> v(n);
  for (Scalar& x : v) x = static_cast<Scalar>(rng->Uniform(-2.0, 2.0));
  return v;
}

// Combined absolute+relative bound: FMA contraction and the vector
// exp's different rounding give tiny drift; tanh near 0 additionally
// loses absolute precision to cancellation in (e^2x-1)/(e^2x+1).
void ExpectClose(const std::vector<Scalar>& a, const std::vector<Scalar>& b,
                 double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = std::abs(a[i] - b[i]);
    const double scale = std::max({1.0, std::abs(a[i]), std::abs(b[i])});
    EXPECT_LE(diff, tol * scale) << "index " << i << ": " << a[i] << " vs "
                                 << b[i];
  }
}

TEST(KernelMode, ResolutionRule) {
  // kScalar always wins; kAuto/kAvx2 need hardware support.
  EXPECT_EQ(ResolveKernelMode(KernelMode::kScalar, true), KernelMode::kScalar);
  EXPECT_EQ(ResolveKernelMode(KernelMode::kScalar, false),
            KernelMode::kScalar);
  EXPECT_EQ(ResolveKernelMode(KernelMode::kAuto, true), KernelMode::kAvx2);
  EXPECT_EQ(ResolveKernelMode(KernelMode::kAuto, false), KernelMode::kScalar);
  EXPECT_EQ(ResolveKernelMode(KernelMode::kAvx2, true), KernelMode::kAvx2);
  // Requesting an ISA the CPU lacks falls back instead of crashing.
  EXPECT_EQ(ResolveKernelMode(KernelMode::kAvx2, false), KernelMode::kScalar);
}

TEST(KernelMode, ActiveModeIsNeverAuto) {
  EXPECT_NE(ActiveKernelMode(), KernelMode::kAuto);
  ScopedKernelMode guard(KernelMode::kAuto);
  EXPECT_NE(ActiveKernelMode(), KernelMode::kAuto);
}

TEST(KernelMode, Names) {
  EXPECT_STREQ(KernelModeName(KernelMode::kAuto), "auto");
  EXPECT_STREQ(KernelModeName(KernelMode::kScalar), "scalar");
  EXPECT_STREQ(KernelModeName(KernelMode::kAvx2), "avx2");
  KernelMode mode;
  EXPECT_TRUE(ParseKernelMode("scalar", &mode));
  EXPECT_EQ(mode, KernelMode::kScalar);
  EXPECT_TRUE(ParseKernelMode("avx2", &mode));
  EXPECT_EQ(mode, KernelMode::kAvx2);
  EXPECT_TRUE(ParseKernelMode("auto", &mode));
  EXPECT_EQ(mode, KernelMode::kAuto);
  EXPECT_FALSE(ParseKernelMode("sse9", &mode));
  EXPECT_FALSE(ParseKernelMode("", &mode));
}

TEST(KernelMode, ActivationIsDeterministicPerMode) {
  // Re-activating the same mode must reproduce bitwise-equal results.
  Rng rng(11);
  const std::vector<Scalar> a = RandomVec(7 * 13, &rng);
  const std::vector<Scalar> b = RandomVec(13 * 9, &rng);
  std::vector<Scalar> c1(7 * 9, Scalar{0});
  std::vector<Scalar> c2(7 * 9, Scalar{0});
  {
    ScopedKernelMode guard(KernelMode::kAuto);
    kernels::GemmSmallNN(a.data(), b.data(), c1.data(), 7, 13, 9, 9);
  }
  {
    ScopedKernelMode guard(KernelMode::kAuto);
    kernels::GemmSmallNN(a.data(), b.data(), c2.data(), 7, 13, 9, 9);
  }
  for (size_t i = 0; i < c1.size(); ++i) EXPECT_EQ(c1[i], c2[i]);
}

// ---------------------------------------------------------------------
// Scalar vs AVX2 parity. Shapes deliberately cover every tail path:
// n % 8, n % 4, k % 4 all nonzero somewhere, plus k < 4 and n < 4.
// ---------------------------------------------------------------------

struct GemmShape {
  size_t m, k, n;
};

const GemmShape kShapes[] = {
    {1, 1, 1},   {1, 43, 32},  {2, 3, 5},    {7, 13, 9},
    {8, 16, 24}, {5, 17, 31},  {3, 2, 70},   {16, 64, 33},
    {9, 65, 12}, {33, 70, 65},
};

TEST(KernelParity, GemmSmallNN) {
  if (!CpuHasAvx2Fma()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  Rng rng(42);
  for (const GemmShape& s : kShapes) {
    const std::vector<Scalar> a = RandomVec(s.m * s.k, &rng);
    const std::vector<Scalar> b = RandomVec(s.k * s.n, &rng);
    std::vector<Scalar> ref(s.m * s.n, Scalar{0});
    std::vector<Scalar> vec(s.m * s.n, Scalar{0});
    {
      ScopedKernelMode guard(KernelMode::kScalar);
      kernels::GemmSmallNN(a.data(), b.data(), ref.data(), s.m, s.k, s.n,
                           s.n);
    }
    {
      ScopedKernelMode guard(KernelMode::kAvx2);
      kernels::GemmSmallNN(a.data(), b.data(), vec.data(), s.m, s.k, s.n,
                           s.n);
    }
    ExpectClose(ref, vec, 1e-13);
  }
}

TEST(KernelParity, GemmSmallNNStridedOutput) {
  if (!CpuHasAvx2Fma()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  // The fused GRU packs two gates into one [m, 2n] buffer via ldc.
  Rng rng(43);
  const size_t m = 5, k = 17, n = 13, ldc = 2 * n;
  const std::vector<Scalar> a = RandomVec(m * k, &rng);
  const std::vector<Scalar> b = RandomVec(k * n, &rng);
  std::vector<Scalar> ref(m * ldc, Scalar{0.5});
  std::vector<Scalar> vec(m * ldc, Scalar{0.5});
  {
    ScopedKernelMode guard(KernelMode::kScalar);
    kernels::GemmSmallNN(a.data(), b.data(), ref.data() + n, m, k, n, ldc);
  }
  {
    ScopedKernelMode guard(KernelMode::kAvx2);
    kernels::GemmSmallNN(a.data(), b.data(), vec.data() + n, m, k, n, ldc);
  }
  ExpectClose(ref, vec, 1e-13);
  // Columns outside the written band stay untouched.
  for (size_t r = 0; r < m; ++r) {
    for (size_t c = 0; c < n; ++c) {
      EXPECT_EQ(vec[r * ldc + c], Scalar{0.5});
    }
  }
}

TEST(KernelParity, GemmSmallTA) {
  if (!CpuHasAvx2Fma()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  Rng rng(44);
  for (const GemmShape& s : kShapes) {
    // c [m,n] += a^T b with a [k,m].
    const std::vector<Scalar> a = RandomVec(s.k * s.m, &rng);
    const std::vector<Scalar> b = RandomVec(s.k * s.n, &rng);
    std::vector<Scalar> ref(s.m * s.n, Scalar{0});
    std::vector<Scalar> vec(s.m * s.n, Scalar{0});
    {
      ScopedKernelMode guard(KernelMode::kScalar);
      kernels::GemmSmallTA(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    }
    {
      ScopedKernelMode guard(KernelMode::kAvx2);
      kernels::GemmSmallTA(a.data(), b.data(), vec.data(), s.m, s.k, s.n);
    }
    ExpectClose(ref, vec, 1e-13);
  }
}

TEST(KernelParity, GemmSmallTB) {
  if (!CpuHasAvx2Fma()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  Rng rng(45);
  for (const GemmShape& s : kShapes) {
    // c [m,n] += a b^T with b [n,k].
    const std::vector<Scalar> a = RandomVec(s.m * s.k, &rng);
    const std::vector<Scalar> b = RandomVec(s.n * s.k, &rng);
    std::vector<Scalar> ref(s.m * s.n, Scalar{0});
    std::vector<Scalar> vec(s.m * s.n, Scalar{0});
    {
      ScopedKernelMode guard(KernelMode::kScalar);
      kernels::GemmSmallTB(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
    }
    {
      ScopedKernelMode guard(KernelMode::kAvx2);
      kernels::GemmSmallTB(a.data(), b.data(), vec.data(), s.m, s.k, s.n);
    }
    ExpectClose(ref, vec, 1e-13);
  }
}

TEST(KernelParity, GemmRowsBlocked) {
  if (!CpuHasAvx2Fma()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  Rng rng(46);
  // Sizes straddle the k-unroll (k % 4) and vector-width (n % 8) tails
  // and exceed one kBlockK x kBlockN panel.
  const GemmShape big[] = {{4, 70, 300}, {6, 64, 256}, {3, 129, 77}};
  for (const GemmShape& s : big) {
    const std::vector<Scalar> a = RandomVec(s.m * s.k, &rng);
    const std::vector<Scalar> b = RandomVec(s.k * s.n, &rng);
    std::vector<Scalar> ref(s.m * s.n, Scalar{0});
    std::vector<Scalar> vec(s.m * s.n, Scalar{0});
    {
      ScopedKernelMode guard(KernelMode::kScalar);
      kernels::GemmRowsBlocked(a.data(), b.data(), ref.data(), s.k, s.n, 0,
                               s.m);
    }
    {
      ScopedKernelMode guard(KernelMode::kAvx2);
      kernels::GemmRowsBlocked(a.data(), b.data(), vec.data(), s.k, s.n, 0,
                               s.m);
    }
    ExpectClose(ref, vec, 1e-12);
  }
}

TEST(KernelParity, RowSplitIsBitwiseStable) {
  if (!CpuHasAvx2Fma()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  // The parallel GEMM path splits C rows across threads; per fixed
  // kernel the split must be bitwise invisible. Emulate splits directly.
  Rng rng(47);
  const size_t m = 12, k = 70, n = 96;
  const std::vector<Scalar> a = RandomVec(m * k, &rng);
  const std::vector<Scalar> b = RandomVec(k * n, &rng);
  for (KernelMode mode : {KernelMode::kScalar, KernelMode::kAvx2}) {
    ScopedKernelMode guard(mode);
    std::vector<Scalar> whole(m * n, Scalar{0});
    kernels::GemmRowsBlocked(a.data(), b.data(), whole.data(), k, n, 0, m);
    for (size_t chunks : {2u, 3u, 8u}) {
      std::vector<Scalar> split(m * n, Scalar{0});
      const size_t per = (m + chunks - 1) / chunks;
      for (size_t begin = 0; begin < m; begin += per) {
        kernels::GemmRowsBlocked(a.data(), b.data(), split.data(), k, n,
                                 begin, std::min(begin + per, m));
      }
      for (size_t i = 0; i < whole.size(); ++i) {
        ASSERT_EQ(whole[i], split[i]) << "chunks=" << chunks;
      }
    }
  }
}

TEST(KernelParity, Activations) {
  if (!CpuHasAvx2Fma()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  Rng rng(48);
  // Cover saturation, the near-zero cancellation band, and vector tails
  // (sizes not multiples of 4).
  for (size_t n : {1u, 3u, 4u, 7u, 64u, 1001u}) {
    std::vector<Scalar> base = RandomVec(n, &rng);
    for (Scalar& x : base) x *= Scalar{10};
    if (n >= 4) {
      base[0] = Scalar{0};
      base[1] = Scalar{1e-8};
      base[2] = Scalar{-745};  // exp underflow region
      base[3] = Scalar{745};
    }
    std::vector<Scalar> sig_ref = base;
    std::vector<Scalar> sig_vec = base;
    std::vector<Scalar> tanh_ref = base;
    std::vector<Scalar> tanh_vec = base;
    {
      ScopedKernelMode guard(KernelMode::kScalar);
      kernels::SigmoidInPlace(sig_ref.data(), n);
      kernels::TanhInPlace(tanh_ref.data(), n);
    }
    {
      ScopedKernelMode guard(KernelMode::kAvx2);
      kernels::SigmoidInPlace(sig_vec.data(), n);
      kernels::TanhInPlace(tanh_vec.data(), n);
    }
    ExpectClose(sig_ref, sig_vec, 1e-12);
    ExpectClose(tanh_ref, tanh_vec, 1e-12);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(std::isfinite(sig_vec[i]));
      EXPECT_TRUE(std::isfinite(tanh_vec[i]));
      EXPECT_GE(sig_vec[i], Scalar{0});
      EXPECT_LE(sig_vec[i], Scalar{1});
      EXPECT_GE(tanh_vec[i], Scalar{-1});
      EXPECT_LE(tanh_vec[i], Scalar{1});
    }
  }
}

// Adam is the one kernel with no drift budget: the AVX2 entry must
// reproduce the scalar loop bit for bit (same association order, no
// FMA contraction), across vector bodies, n % 4 tails and 50 chained
// steps whose moments feed the next step.
TEST(KernelParity, AdamUpdateIsBitwiseEqualAcrossModes) {
  if (!CpuHasAvx2Fma()) GTEST_SKIP() << "no AVX2+FMA on this machine";
  constexpr int kSteps = 50;
  struct AdamState {
    std::vector<Scalar> value, m, v;
  };
  auto bitwise_equal = [](const std::vector<Scalar>& a,
                          const std::vector<Scalar>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(Scalar)) == 0);
  };
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 33u, 1001u}) {
    for (Scalar weight_decay : {Scalar{0}, Scalar{1e-4}}) {
      Rng rng(49 + n);
      const std::vector<Scalar> init = RandomVec(n, &rng);
      // Magnitudes log-uniform over [1e-6, 1e6], random signs, and
      // every 7th gradient exactly zero.
      std::vector<std::vector<Scalar>> grads(kSteps, std::vector<Scalar>(n));
      for (std::vector<Scalar>& g : grads) {
        for (size_t i = 0; i < n; ++i) {
          g[i] = std::pow(Scalar{10}, rng.Uniform(-6.0, 6.0));
          if (rng.Uniform(0.0, 1.0) < 0.5) g[i] = -g[i];
          if (i % 7 == 3) g[i] = Scalar{0};
        }
      }
      auto run = [&](KernelMode mode) {
        ScopedKernelMode guard(mode);
        AdamState s{init, std::vector<Scalar>(n, Scalar{0}),
                    std::vector<Scalar>(n, Scalar{0})};
        for (int t = 1; t <= kSteps; ++t) {
          const kernels::AdamCoefficients c = {
              0.9,  0.999, 1 - std::pow(0.9, t), 1 - std::pow(0.999, t),
              3e-3, 1e-8,  weight_decay};
          kernels::AdamUpdate(s.value.data(), grads[t - 1].data(),
                              s.m.data(), s.v.data(), n, c);
        }
        return s;
      };
      const AdamState ref = run(KernelMode::kScalar);
      const AdamState vec = run(KernelMode::kAvx2);
      EXPECT_TRUE(bitwise_equal(ref.value, vec.value))
          << "value, n=" << n << " wd=" << weight_decay;
      EXPECT_TRUE(bitwise_equal(ref.m, vec.m))
          << "m, n=" << n << " wd=" << weight_decay;
      EXPECT_TRUE(bitwise_equal(ref.v, vec.v))
          << "v, n=" << n << " wd=" << weight_decay;
    }
  }
}

// ---------------------------------------------------------------------
// Arena.
// ---------------------------------------------------------------------

TEST(Arena, BlocksAre32ByteAligned) {
  for (size_t elements : {1u, 3u, 8u, 100u, 4097u}) {
    Scalar* block = AcquireArenaBlock(elements);
    ASSERT_NE(block, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(block) % 32, 0u) << elements;
    block[0] = Scalar{1};  // touch to keep sanitizers honest
    block[elements - 1] = Scalar{2};
    ReleaseArenaBlock(block, elements);
  }
}

TEST(Arena, ReleasedBlocksAreReused) {
  TrimThreadArena();
  const ArenaStats before = ThreadArenaStats();
  Scalar* first = AcquireArenaBlock(64);
  ReleaseArenaBlock(first, 64);
  // Same size class (LIFO) — must come straight off the freelist.
  Scalar* second = AcquireArenaBlock(64);
  EXPECT_EQ(second, first);
  // Any size rounding to the same power-of-two class also hits.
  ReleaseArenaBlock(second, 64);
  Scalar* third = AcquireArenaBlock(50);
  EXPECT_EQ(third, first);
  ReleaseArenaBlock(third, 50);
  const ArenaStats after = ThreadArenaStats();
  EXPECT_EQ(after.acquires - before.acquires, 3);
  EXPECT_EQ(after.pool_hits - before.pool_hits, 2);
  EXPECT_EQ(after.heap_allocations - before.heap_allocations, 1);
  EXPECT_EQ(after.releases - before.releases, 3);
  TrimThreadArena();
  EXPECT_EQ(ThreadArenaStats().cached_blocks, 0);
  EXPECT_EQ(ThreadArenaStats().cached_bytes, 0);

  // Class boundaries: a block released at one size comes back for
  // another exactly when both round up to the same power of two (never
  // below 4 elements).
  struct Sizes {
    size_t released, acquired;
    bool same_class;
  };
  for (const Sizes& s :
       {Sizes{1, 4, true}, Sizes{5, 8, true}, Sizes{8, 9, false}}) {
    Scalar* released = AcquireArenaBlock(s.released);
    ReleaseArenaBlock(released, s.released);
    Scalar* acquired = AcquireArenaBlock(s.acquired);
    EXPECT_EQ(acquired == released, s.same_class)
        << s.released << " then " << s.acquired;
    ReleaseArenaBlock(acquired, s.acquired);
    TrimThreadArena();
  }
  // The largest cached class holds 2^21 elements; a larger block goes
  // back to the heap.
  constexpr size_t kLargest = size_t{1} << 21;
  for (size_t elements : {kLargest, kLargest + 1}) {
    Scalar* block = AcquireArenaBlock(elements);
    ReleaseArenaBlock(block, elements);
    EXPECT_EQ(ThreadArenaStats().cached_blocks, elements == kLargest ? 1 : 0)
        << elements;
    TrimThreadArena();
  }
}

// A thread that frees what another thread allocated, as a coordinator
// frees the client state its pool workers built, caches at most
// kMaxCachedBytes; past that, released blocks go back to the heap.
TEST(Arena, CrossThreadReleasesStayUnderTheBound) {
  TrimThreadArena();
  constexpr size_t kElements = size_t{1} << 14;  // 128 KiB blocks
  constexpr int64_t kBlockBytes = kElements * sizeof(Scalar);
  const size_t count = static_cast<size_t>(kMaxCachedBytes / kBlockBytes) + 8;
  std::vector<Scalar*> blocks;
  {
    ThreadPool pool(2);
    std::atomic<bool> worker_ran{false};
    // One index runs on the worker; the caller waits for it.
    pool.ParallelFor(2, [&](size_t) {  // lint: shared-state(blocks)
      if (!ThreadPool::OnWorkerThread()) {
        while (!worker_ran.load()) std::this_thread::yield();
        return;
      }
      for (size_t i = 0; i < count; ++i) {
        blocks.push_back(AcquireArenaBlock(kElements));
      }
      worker_ran.store(true);
    });
  }
  for (Scalar* block : blocks) ReleaseArenaBlock(block, kElements);
  const ArenaStats stats = ThreadArenaStats();
  EXPECT_LE(stats.cached_bytes, kMaxCachedBytes);
  EXPECT_EQ(stats.cached_blocks, kMaxCachedBytes / kBlockBytes);
  TrimThreadArena();
}

TEST(Arena, BypassSkipsFreelists) {
  TrimThreadArena();
  const bool saved = SetArenaBypass(true);
  const ArenaStats before = ThreadArenaStats();
  Scalar* block = AcquireArenaBlock(64);
  ReleaseArenaBlock(block, 64);
  const ArenaStats after = ThreadArenaStats();
  SetArenaBypass(saved);
  EXPECT_EQ(after.heap_allocations - before.heap_allocations, 1);
  EXPECT_EQ(after.pool_hits - before.pool_hits, 0);
  EXPECT_EQ(after.cached_blocks, before.cached_blocks);
}

TEST(Arena, MatrixSteadyStateAllocatesNothing) {
  TrimThreadArena();
  // Warm-up round allocates; every later identically-shaped round must
  // be served entirely from freelists.
  auto round = [] {
    Matrix a(4, 43);
    Matrix b(43, 32);
    a.Fill(Scalar{0.5});
    b.Fill(Scalar{0.25});
    Matrix c = MatMulValues(a, b);
    Matrix grad(c.rows(), c.cols());
    grad.Fill(Scalar{1});
    MatMulTransBAccumulate(grad, b, &a);
    MatMulTransAAccumulate(a, grad, &b);
  };
  round();
  const ArenaStats warm = ThreadArenaStats();
  for (int i = 0; i < 10; ++i) round();
  const ArenaStats after = ThreadArenaStats();
  EXPECT_EQ(after.heap_allocations, warm.heap_allocations);
  EXPECT_GT(after.pool_hits, warm.pool_hits);
}

TEST(ArenaBuffer, ZeroFillsAndCopies) {
  ArenaBuffer a(17);
  EXPECT_EQ(a.size(), 17u);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], Scalar{0});
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<Scalar>(i);

  ArenaBuffer copy(a);  // deep
  ASSERT_EQ(copy.size(), a.size());
  EXPECT_NE(copy.data(), a.data());
  copy[3] = Scalar{-1};
  EXPECT_EQ(a[3], Scalar{3});

  ArenaBuffer moved(std::move(copy));  // steals
  EXPECT_EQ(moved.size(), 17u);
  EXPECT_EQ(moved[3], Scalar{-1});

  ArenaBuffer assigned;
  assigned = a;
  ASSERT_EQ(assigned.size(), 17u);
  EXPECT_EQ(assigned[16], Scalar{16});
  // Same-size copy-assign reuses storage in place.
  const Scalar* before = assigned.data();
  assigned = moved;
  EXPECT_EQ(assigned.data(), before);
  EXPECT_EQ(assigned[3], Scalar{-1});

  ArenaBuffer move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.size(), 17u);
  ArenaBuffer empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
}

}  // namespace
}  // namespace lighttr::nn
