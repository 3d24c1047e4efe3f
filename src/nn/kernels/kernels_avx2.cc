// AVX2+FMA kernel table. The ONLY translation unit in the tree compiled
// with -mavx2 -mfma and the only one allowed to include <immintrin.h>
// (the no-raw-intrinsics lint rule enforces this); every other TU stays
// portable and reaches these kernels through the dispatch table.
//
// Determinism: each output element's reduction order is fixed by the
// loop structure alone — vector lanes always cover the same index
// ranges for a given shape, tails always run the same scalar code at
// the same positions — so results are bitwise stable across runs and
// thread splits. They differ from the scalar table by bounded rounding
// (FMA keeps the product unrounded; the vector exp is a polynomial,
// not libm) — kernels_test bounds that drift against the scalar
// reference. The Adam update is the exception: it is bitwise equal to
// the scalar table, which is why FMA contraction is switched off for
// that one function (and only there: the kernels above rely on it).
#include "nn/kernels/kernel_table.h"

// The build system compiles this TU with -mavx2 -mfma when the compiler
// supports them; anywhere that didn't happen (non-x86 target, ancient
// toolchain) the table is simply absent and dispatch stays scalar.
#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace lighttr::nn::kernels {

namespace {

// Same blocking geometry as the scalar table (see kernels.cc): B panel
// sized for L2, C row segment L1-resident across the k loop.
constexpr size_t kBlockK = 64;
constexpr size_t kBlockN = 256;

// ---------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------

// One k-quad of row updates over columns [jj, j_end): crow[j] +=
// a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j], 8 columns per iteration
// (two 4-wide FMA chains amortize the loop overhead).
inline void RowQuadUpdate(Scalar* crow, const Scalar* b0, const Scalar* b1,
                          const Scalar* b2, const Scalar* b3, __m256d a0,
                          __m256d a1, __m256d a2, __m256d a3, Scalar s0,
                          Scalar s1, Scalar s2, Scalar s3, size_t jj,
                          size_t j_end) {
  size_t j = jj;
  for (; j + 8 <= j_end; j += 8) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    __m256d c1 = _mm256_loadu_pd(crow + j + 4);
    c0 = _mm256_fmadd_pd(a0, _mm256_loadu_pd(b0 + j), c0);
    c1 = _mm256_fmadd_pd(a0, _mm256_loadu_pd(b0 + j + 4), c1);
    c0 = _mm256_fmadd_pd(a1, _mm256_loadu_pd(b1 + j), c0);
    c1 = _mm256_fmadd_pd(a1, _mm256_loadu_pd(b1 + j + 4), c1);
    c0 = _mm256_fmadd_pd(a2, _mm256_loadu_pd(b2 + j), c0);
    c1 = _mm256_fmadd_pd(a2, _mm256_loadu_pd(b2 + j + 4), c1);
    c0 = _mm256_fmadd_pd(a3, _mm256_loadu_pd(b3 + j), c0);
    c1 = _mm256_fmadd_pd(a3, _mm256_loadu_pd(b3 + j + 4), c1);
    _mm256_storeu_pd(crow + j, c0);
    _mm256_storeu_pd(crow + j + 4, c1);
  }
  for (; j + 4 <= j_end; j += 4) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    c0 = _mm256_fmadd_pd(a0, _mm256_loadu_pd(b0 + j), c0);
    c0 = _mm256_fmadd_pd(a1, _mm256_loadu_pd(b1 + j), c0);
    c0 = _mm256_fmadd_pd(a2, _mm256_loadu_pd(b2 + j), c0);
    c0 = _mm256_fmadd_pd(a3, _mm256_loadu_pd(b3 + j), c0);
    _mm256_storeu_pd(crow + j, c0);
  }
  for (; j < j_end; ++j) {
    crow[j] += s0 * b0[j] + s1 * b1[j] + s2 * b2[j] + s3 * b3[j];
  }
}

// Single-k row update: crow[j] += av * brow[j] over [jj, j_end).
inline void RowUpdate(Scalar* crow, const Scalar* brow, Scalar av, size_t jj,
                      size_t j_end) {
  const __m256d avv = _mm256_set1_pd(av);
  size_t j = jj;
  for (; j + 4 <= j_end; j += 4) {
    const __m256d c0 = _mm256_fmadd_pd(avv, _mm256_loadu_pd(brow + j),
                                       _mm256_loadu_pd(crow + j));
    _mm256_storeu_pd(crow + j, c0);
  }
  for (; j < j_end; ++j) crow[j] += av * brow[j];
}

// Scalar column tail (n % 4 columns). std::fma, not a*b+c: the vector
// paths keep the product unrounded, and leaving the scalar tail to the
// compiler's contraction whims could make the same element round
// differently depending on which row path handled it.
inline void ScalarColumnTail(Scalar* crow, const Scalar* arow, const Scalar* b,
                             size_t n, size_t pp, size_t p_end, size_t j,
                             size_t j_end) {
  for (; j < j_end; ++j) {
    Scalar acc = crow[j];
    for (size_t p = pp; p < p_end; ++p) acc = std::fma(arow[p], b[p * n + j], acc);
    crow[j] = acc;
  }
}

// One row of the blocked kernel over columns [jj, j_end), k-range
// [pp, p_end): accumulators live in registers across the whole k-range
// (one C load + store per column group instead of one per k step).
inline void RowBlockUpdate(Scalar* crow, const Scalar* arow, const Scalar* b,
                           size_t n, size_t pp, size_t p_end, size_t jj,
                           size_t j_end) {
  size_t j = jj;
  for (; j + 8 <= j_end; j += 8) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    __m256d c1 = _mm256_loadu_pd(crow + j + 4);
    for (size_t p = pp; p < p_end; ++p) {
      const __m256d av = _mm256_set1_pd(arow[p]);
      const Scalar* brow = b + p * n;
      c0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + j), c0);
      c1 = _mm256_fmadd_pd(av, _mm256_loadu_pd(brow + j + 4), c1);
    }
    _mm256_storeu_pd(crow + j, c0);
    _mm256_storeu_pd(crow + j + 4, c1);
  }
  for (; j + 4 <= j_end; j += 4) {
    __m256d c0 = _mm256_loadu_pd(crow + j);
    for (size_t p = pp; p < p_end; ++p) {
      c0 = _mm256_fmadd_pd(_mm256_set1_pd(arow[p]),
                           _mm256_loadu_pd(b + p * n + j), c0);
    }
    _mm256_storeu_pd(crow + j, c0);
  }
  ScalarColumnTail(crow, arow, b, n, pp, p_end, j, j_end);
}

// Register-tiled blocked GEMM: 4 rows x 8 columns of C held in eight
// ymm accumulators across the k-block, so each k step costs two B loads
// plus four broadcasts for eight FMAs — FMA-bound instead of load-bound.
//
// Determinism across row splits: every path (4-row tile, 1-row tail,
// 4-wide and scalar column tails) applies exactly one fused
// multiply-add per k step to each C element, in the same pp-block
// order, so an element's reduction sequence does not depend on which
// tile or split boundary covered its row.
void Avx2GemmRowsBlocked(const Scalar* a, const Scalar* b, Scalar* c, size_t k,
                         size_t n, size_t row_begin, size_t row_end) {
  for (size_t jj = 0; jj < n; jj += kBlockN) {
    const size_t j_end = std::min(jj + kBlockN, n);
    for (size_t pp = 0; pp < k; pp += kBlockK) {
      const size_t p_end = std::min(pp + kBlockK, k);
      size_t i = row_begin;
      for (; i + 4 <= row_end; i += 4) {
        const Scalar* a0 = a + i * k;
        const Scalar* a1 = a0 + k;
        const Scalar* a2 = a1 + k;
        const Scalar* a3 = a2 + k;
        Scalar* c0 = c + i * n;
        Scalar* c1 = c0 + n;
        Scalar* c2 = c1 + n;
        Scalar* c3 = c2 + n;
        size_t j = jj;
        for (; j + 8 <= j_end; j += 8) {
          __m256d acc00 = _mm256_loadu_pd(c0 + j);
          __m256d acc01 = _mm256_loadu_pd(c0 + j + 4);
          __m256d acc10 = _mm256_loadu_pd(c1 + j);
          __m256d acc11 = _mm256_loadu_pd(c1 + j + 4);
          __m256d acc20 = _mm256_loadu_pd(c2 + j);
          __m256d acc21 = _mm256_loadu_pd(c2 + j + 4);
          __m256d acc30 = _mm256_loadu_pd(c3 + j);
          __m256d acc31 = _mm256_loadu_pd(c3 + j + 4);
          for (size_t p = pp; p < p_end; ++p) {
            const Scalar* brow = b + p * n;
            const __m256d bv0 = _mm256_loadu_pd(brow + j);
            const __m256d bv1 = _mm256_loadu_pd(brow + j + 4);
            const __m256d av0 = _mm256_set1_pd(a0[p]);
            acc00 = _mm256_fmadd_pd(av0, bv0, acc00);
            acc01 = _mm256_fmadd_pd(av0, bv1, acc01);
            const __m256d av1 = _mm256_set1_pd(a1[p]);
            acc10 = _mm256_fmadd_pd(av1, bv0, acc10);
            acc11 = _mm256_fmadd_pd(av1, bv1, acc11);
            const __m256d av2 = _mm256_set1_pd(a2[p]);
            acc20 = _mm256_fmadd_pd(av2, bv0, acc20);
            acc21 = _mm256_fmadd_pd(av2, bv1, acc21);
            const __m256d av3 = _mm256_set1_pd(a3[p]);
            acc30 = _mm256_fmadd_pd(av3, bv0, acc30);
            acc31 = _mm256_fmadd_pd(av3, bv1, acc31);
          }
          _mm256_storeu_pd(c0 + j, acc00);
          _mm256_storeu_pd(c0 + j + 4, acc01);
          _mm256_storeu_pd(c1 + j, acc10);
          _mm256_storeu_pd(c1 + j + 4, acc11);
          _mm256_storeu_pd(c2 + j, acc20);
          _mm256_storeu_pd(c2 + j + 4, acc21);
          _mm256_storeu_pd(c3 + j, acc30);
          _mm256_storeu_pd(c3 + j + 4, acc31);
        }
        for (; j + 4 <= j_end; j += 4) {
          __m256d acc0 = _mm256_loadu_pd(c0 + j);
          __m256d acc1 = _mm256_loadu_pd(c1 + j);
          __m256d acc2 = _mm256_loadu_pd(c2 + j);
          __m256d acc3 = _mm256_loadu_pd(c3 + j);
          for (size_t p = pp; p < p_end; ++p) {
            const __m256d bv = _mm256_loadu_pd(b + p * n + j);
            acc0 = _mm256_fmadd_pd(_mm256_set1_pd(a0[p]), bv, acc0);
            acc1 = _mm256_fmadd_pd(_mm256_set1_pd(a1[p]), bv, acc1);
            acc2 = _mm256_fmadd_pd(_mm256_set1_pd(a2[p]), bv, acc2);
            acc3 = _mm256_fmadd_pd(_mm256_set1_pd(a3[p]), bv, acc3);
          }
          _mm256_storeu_pd(c0 + j, acc0);
          _mm256_storeu_pd(c1 + j, acc1);
          _mm256_storeu_pd(c2 + j, acc2);
          _mm256_storeu_pd(c3 + j, acc3);
        }
        if (j < j_end) {
          ScalarColumnTail(c0, a0, b, n, pp, p_end, j, j_end);
          ScalarColumnTail(c1, a1, b, n, pp, p_end, j, j_end);
          ScalarColumnTail(c2, a2, b, n, pp, p_end, j, j_end);
          ScalarColumnTail(c3, a3, b, n, pp, p_end, j, j_end);
        }
      }
      for (; i < row_end; ++i) {
        RowBlockUpdate(c + i * n, a + i * k, b, n, pp, p_end, jj, j_end);
      }
    }
  }
}

void Avx2GemmSmallNN(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                     size_t k, size_t n, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    Scalar* crow = c + i * ldc;
    const Scalar* arow = a + i * k;
    size_t p = 0;
    for (; p + 4 <= k; p += 4) {
      const Scalar* b0 = b + p * n;
      RowQuadUpdate(crow, b0, b0 + n, b0 + 2 * n, b0 + 3 * n,
                    _mm256_set1_pd(arow[p]), _mm256_set1_pd(arow[p + 1]),
                    _mm256_set1_pd(arow[p + 2]), _mm256_set1_pd(arow[p + 3]),
                    arow[p], arow[p + 1], arow[p + 2], arow[p + 3], 0, n);
    }
    for (; p < k; ++p) RowUpdate(crow, b + p * n, arow[p], 0, n);
  }
}

void Avx2GemmSmallTA(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                     size_t k, size_t n) {
  for (size_t p = 0; p < k; ++p) {
    const Scalar* arow = a + p * m;
    const Scalar* brow = b + p * n;
    for (size_t i = 0; i < m; ++i) {
      RowUpdate(c + i * n, brow, arow[i], 0, n);
    }
  }
}

void Avx2GemmSmallTB(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                     size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const Scalar* arow = a + i * k;
    Scalar* crow = c + i * n;
    for (size_t j = 0; j < n; ++j) {
      const Scalar* brow = b + j * k;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      size_t p = 0;
      for (; p + 8 <= k; p += 8) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + p),
                               _mm256_loadu_pd(brow + p), acc0);
        acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + p + 4),
                               _mm256_loadu_pd(brow + p + 4), acc1);
      }
      for (; p + 4 <= k; p += 4) {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(arow + p),
                               _mm256_loadu_pd(brow + p), acc0);
      }
      const __m256d sum = _mm256_add_pd(acc0, acc1);
      const __m128d lo = _mm256_castpd256_pd128(sum);
      const __m128d hi = _mm256_extractf128_pd(sum, 1);
      const __m128d pair = _mm_add_pd(lo, hi);
      Scalar acc =
          _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
      for (; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

// ---------------------------------------------------------------------
// Activations
// ---------------------------------------------------------------------

// Vector exp(x), Cephes-style: Cody-Waite range reduction against ln 2,
// a rational polynomial on the reduced argument, and 2^n reassembled by
// writing the biased exponent field directly. Inputs are clamped to
// [-708, 709] so the result is always finite and normal (the clamp only
// engages where sigmoid/tanh have long saturated).
inline __m256d ExpPd(__m256d x) {
  const __m256d kMax = _mm256_set1_pd(709.0);
  const __m256d kMin = _mm256_set1_pd(-708.0);
  x = _mm256_min_pd(_mm256_max_pd(x, kMin), kMax);
  // n = round(x / ln 2)
  const __m256d kLog2e = _mm256_set1_pd(1.4426950408889634073599);
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, kLog2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  // r = x - n * ln 2, in two pieces to keep the residual exact.
  const __m256d kC1 = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d kC2 = _mm256_set1_pd(1.42860682030941723212e-6);
  __m256d r = _mm256_fnmadd_pd(n, kC1, x);
  r = _mm256_fnmadd_pd(n, kC2, r);
  const __m256d r2 = _mm256_mul_pd(r, r);
  // exp(r) = 1 + 2 r P(r^2) / (Q(r^2) - r P(r^2))  (Cephes exp.c)
  __m256d p = _mm256_set1_pd(1.26177193074810590878e-4);
  p = _mm256_fmadd_pd(p, r2, _mm256_set1_pd(3.02994407707441961300e-2));
  p = _mm256_fmadd_pd(p, r2, _mm256_set1_pd(9.99999999999999999910e-1));
  p = _mm256_mul_pd(p, r);
  __m256d q = _mm256_set1_pd(3.00198505138664455042e-6);
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(2.52448340349684104192e-3));
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(2.27265548208155028766e-1));
  q = _mm256_fmadd_pd(q, r2, _mm256_set1_pd(2.0));
  const __m256d e = _mm256_div_pd(p, _mm256_sub_pd(q, p));
  const __m256d expr =
      _mm256_fmadd_pd(_mm256_set1_pd(2.0), e, _mm256_set1_pd(1.0));
  // expr * 2^n: n is in [-1022, 1023] after the clamp, so the biased
  // exponent stays normal.
  const __m128i n32 = _mm256_cvtpd_epi32(n);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i pow2 = _mm256_slli_epi64(
      _mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(expr, _mm256_castsi256_pd(pow2));
}

void Avx2SigmoidInPlace(Scalar* x, size_t n) {
  const __m256d kOne = _mm256_set1_pd(1.0);
  const __m256d kZero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d ez = ExpPd(_mm256_sub_pd(kZero, v));
    _mm256_storeu_pd(x + i, _mm256_div_pd(kOne, _mm256_add_pd(kOne, ez)));
  }
  for (; i < n; ++i) x[i] = Scalar{1} / (Scalar{1} + std::exp(-x[i]));
}

void Avx2TanhInPlace(Scalar* x, size_t n) {
  // tanh(x) = (e^{2x} - 1) / (e^{2x} + 1). ExpPd's clamp keeps e^{2x}
  // finite and nonzero, so the quotient saturates cleanly to +/-1. Near
  // zero the subtraction cancels — absolute error stays ~1e-16 (the
  // parity test uses a combined abs+rel bound for exactly this).
  const __m256d kOne = _mm256_set1_pd(1.0);
  const __m256d kTwo = _mm256_set1_pd(2.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d e2 = ExpPd(_mm256_mul_pd(kTwo, v));
    _mm256_storeu_pd(x + i, _mm256_div_pd(_mm256_sub_pd(e2, kOne),
                                          _mm256_add_pd(e2, kOne)));
  }
  for (; i < n; ++i) x[i] = std::tanh(x[i]);
}

// ---------------------------------------------------------------------
// Adam
// ---------------------------------------------------------------------

// Four elements per iteration of exactly the scalar table's operations
// in its association order: ((1-b2)*g)*g, (lr*m_hat)/(sqrt(v_hat)+eps),
// then the decay (lr*wd)*p on the already-stepped p. vdivpd and vsqrtpd
// round exactly like their scalar forms, so the result is bitwise equal
// to ScalarAdamUpdate — provided no multiply-add is fused. This TU is
// compiled with -mfma and GCC contracts intrinsic mul+add by default,
// hence the function-scoped fp-contract=off.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
void Avx2AdamUpdate(Scalar* value, const Scalar* grad, Scalar* m, Scalar* v,
                    size_t n, const AdamCoefficients& c) {
  const bool decay = c.weight_decay > Scalar{0};
  const __m256d beta1 = _mm256_set1_pd(c.beta1);
  const __m256d beta2 = _mm256_set1_pd(c.beta2);
  const __m256d omb1 = _mm256_set1_pd(Scalar{1} - c.beta1);
  const __m256d omb2 = _mm256_set1_pd(Scalar{1} - c.beta2);
  const __m256d bc1 = _mm256_set1_pd(c.bias_correction1);
  const __m256d bc2 = _mm256_set1_pd(c.bias_correction2);
  const __m256d lr = _mm256_set1_pd(c.learning_rate);
  const __m256d eps = _mm256_set1_pd(c.epsilon);
  const __m256d lrwd = _mm256_set1_pd(c.learning_rate * c.weight_decay);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d g = _mm256_loadu_pd(grad + j);
    const __m256d mj = _mm256_add_pd(
        _mm256_mul_pd(beta1, _mm256_loadu_pd(m + j)), _mm256_mul_pd(omb1, g));
    const __m256d vj =
        _mm256_add_pd(_mm256_mul_pd(beta2, _mm256_loadu_pd(v + j)),
                      _mm256_mul_pd(_mm256_mul_pd(omb2, g), g));
    _mm256_storeu_pd(m + j, mj);
    _mm256_storeu_pd(v + j, vj);
    const __m256d m_hat = _mm256_div_pd(mj, bc1);
    const __m256d v_hat = _mm256_div_pd(vj, bc2);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(lr, m_hat),
                      _mm256_add_pd(_mm256_sqrt_pd(v_hat), eps));
    __m256d p = _mm256_sub_pd(_mm256_loadu_pd(value + j), step);
    if (decay) p = _mm256_sub_pd(p, _mm256_mul_pd(lrwd, p));
    _mm256_storeu_pd(value + j, p);
  }
  // The n % 4 tail runs the scalar table's own loop.
  ScalarKernelTable().adam_update(value + j, grad + j, m + j, v + j, n - j, c);
}
#pragma GCC pop_options

}  // namespace

const KernelTable* Avx2KernelTable() {
  static constexpr KernelTable kTable = {
      &Avx2GemmRowsBlocked, &Avx2GemmSmallNN,    &Avx2GemmSmallTA,
      &Avx2GemmSmallTB,     &Avx2SigmoidInPlace, &Avx2TanhInPlace,
      &Avx2AdamUpdate,
  };
  return &kTable;
}

}  // namespace lighttr::nn::kernels

#else  // !(__AVX2__ && __FMA__)

namespace lighttr::nn::kernels {

const KernelTable* Avx2KernelTable() { return nullptr; }

}  // namespace lighttr::nn::kernels

#endif
