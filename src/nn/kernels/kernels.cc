// Kernel dispatch + the portable scalar reference table.
//
// The scalar kernels are the pre-kernel-layer implementations moved
// here verbatim (simple loops from nn/matrix.cc, the activation loops
// from nn/ops.cc and the Adam element loop from nn/optimizer.cc), so
// `--kernel=scalar` reproduces the historic numerics bit-for-bit.
#include "nn/kernels/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "nn/kernels/kernel_table.h"

namespace lighttr::nn {

namespace {

using kernels::KernelTable;

// ---------------------------------------------------------------------
// Scalar reference kernels.
// ---------------------------------------------------------------------

// Block sizes: the active B panel is kBlockK x kBlockN Scalars (128 KiB)
// — sized for L2 — and each i iteration streams kBlockK a-values and a
// kBlockN-wide C row segment (2 KiB, L1-resident across the k loop).
constexpr size_t kBlockK = 64;
constexpr size_t kBlockN = 256;

// c rows [row_begin, row_end) += a * b with a [m,k], b [k,n], both
// row-major. The i-k-j loop order streams b and c rows contiguously;
// the 4-wide k unroll performs 4 fused row updates per pass over the
// C row segment. The summation tree per C element is fixed by the
// blocking, independent of how rows are distributed over threads.
void ScalarGemmRowsBlocked(const Scalar* a, const Scalar* b, Scalar* c,
                           size_t k, size_t n, size_t row_begin,
                           size_t row_end) {
  for (size_t jj = 0; jj < n; jj += kBlockN) {
    const size_t j_end = std::min(jj + kBlockN, n);
    for (size_t pp = 0; pp < k; pp += kBlockK) {
      const size_t p_end = std::min(pp + kBlockK, k);
      for (size_t i = row_begin; i < row_end; ++i) {
        const Scalar* arow = a + i * k;
        Scalar* crow = c + i * n;
        size_t p = pp;
        for (; p + 4 <= p_end; p += 4) {
          const Scalar a0 = arow[p];
          const Scalar a1 = arow[p + 1];
          const Scalar a2 = arow[p + 2];
          const Scalar a3 = arow[p + 3];
          const Scalar* b0 = b + p * n;
          const Scalar* b1 = b0 + n;
          const Scalar* b2 = b1 + n;
          const Scalar* b3 = b2 + n;
          for (size_t j = jj; j < j_end; ++j) {
            crow[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
          }
        }
        for (; p < p_end; ++p) {
          const Scalar av = arow[p];
          const Scalar* brow = b + p * n;
          for (size_t j = jj; j < j_end; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

// The seed's simple i-k-j loop with the zero-skip (skipping av == 0 is
// an exact no-op on the accumulator, so the skip cannot change values).
void ScalarGemmSmallNN(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                       size_t k, size_t n, size_t ldc) {
  for (size_t i = 0; i < m; ++i) {
    Scalar* crow = c + i * ldc;
    const Scalar* arow = a + i * k;
    for (size_t p = 0; p < k; ++p) {
      const Scalar av = arow[p];
      if (av == Scalar{0}) continue;
      const Scalar* brow = b + p * n;
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void ScalarGemmSmallTA(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                       size_t k, size_t n) {
  for (size_t p = 0; p < k; ++p) {
    const Scalar* arow = a + p * m;
    const Scalar* brow = b + p * n;
    for (size_t i = 0; i < m; ++i) {
      const Scalar av = arow[i];
      if (av == Scalar{0}) continue;
      Scalar* crow = c + i * n;
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void ScalarGemmSmallTB(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                       size_t k, size_t n) {
  for (size_t i = 0; i < m; ++i) {
    const Scalar* arow = a + i * k;
    Scalar* crow = c + i * n;
    for (size_t j = 0; j < n; ++j) {
      const Scalar* brow = b + j * k;
      Scalar acc{0};
      for (size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] += acc;
    }
  }
}

void ScalarSigmoidInPlace(Scalar* x, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    x[i] = Scalar{1} / (Scalar{1} + std::exp(-x[i]));
  }
}

void ScalarTanhInPlace(Scalar* x, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
}

// The association order here is the contract the AVX2 entry reproduces
// operation for operation: ((1-b2)*g)*g, (lr*m_hat)/(sqrt(v_hat)+eps),
// and the decay (lr*wd)*p applied to the already-stepped p.
void ScalarAdamUpdate(Scalar* value, const Scalar* grad, Scalar* m, Scalar* v,
                      size_t n, const kernels::AdamCoefficients& c) {
  for (size_t j = 0; j < n; ++j) {
    const Scalar g = grad[j];
    m[j] = c.beta1 * m[j] + (Scalar{1} - c.beta1) * g;
    v[j] = c.beta2 * v[j] + (Scalar{1} - c.beta2) * g * g;
    const Scalar m_hat = m[j] / c.bias_correction1;
    const Scalar v_hat = v[j] / c.bias_correction2;
    value[j] -= c.learning_rate * m_hat / (std::sqrt(v_hat) + c.epsilon);
    if (c.weight_decay > Scalar{0}) {
      value[j] -= c.learning_rate * c.weight_decay * value[j];
    }
  }
}

// ---------------------------------------------------------------------
// Dispatch state. A single atomic table pointer: activation is a store,
// the hot path is one relaxed-acquire load (TSan-clean, no locks).
// ---------------------------------------------------------------------

std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_mode{static_cast<int>(KernelMode::kScalar)};

const KernelTable& ActiveTable() {
  const KernelTable* table = g_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    // First use without an explicit ActivateKernels: resolve kAuto.
    // A racing second thread stores the same pointer — benign.
    ActivateKernels(KernelMode::kAuto);
    table = g_table.load(std::memory_order_acquire);
  }
  return *table;
}

}  // namespace

namespace kernels {

const KernelTable& ScalarKernelTable() {
  static constexpr KernelTable kTable = {
      &ScalarGemmRowsBlocked, &ScalarGemmSmallNN,    &ScalarGemmSmallTA,
      &ScalarGemmSmallTB,     &ScalarSigmoidInPlace, &ScalarTanhInPlace,
      &ScalarAdamUpdate,
  };
  return kTable;
}

}  // namespace kernels

bool CpuHasAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  if (kernels::Avx2KernelTable() == nullptr) return false;
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

KernelMode ResolveKernelMode(KernelMode requested, bool has_avx2_fma) {
  if (requested == KernelMode::kScalar) return KernelMode::kScalar;
  return has_avx2_fma ? KernelMode::kAvx2 : KernelMode::kScalar;
}

void ActivateKernels(KernelMode mode) {
  const KernelMode resolved = ResolveKernelMode(mode, CpuHasAvx2Fma());
  const KernelTable* table = resolved == KernelMode::kAvx2
                                 ? kernels::Avx2KernelTable()
                                 : &kernels::ScalarKernelTable();
  g_mode.store(static_cast<int>(resolved), std::memory_order_relaxed);
  g_table.store(table, std::memory_order_release);
}

KernelMode ActiveKernelMode() {
  if (g_table.load(std::memory_order_acquire) == nullptr) {
    ActivateKernels(KernelMode::kAuto);
  }
  return static_cast<KernelMode>(g_mode.load(std::memory_order_relaxed));
}

const char* KernelModeName(KernelMode mode) {
  switch (mode) {
    case KernelMode::kAuto:
      return "auto";
    case KernelMode::kScalar:
      return "scalar";
    case KernelMode::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ParseKernelMode(const std::string& text, KernelMode* mode) {
  if (text == "auto") {
    *mode = KernelMode::kAuto;
  } else if (text == "scalar") {
    *mode = KernelMode::kScalar;
  } else if (text == "avx2") {
    *mode = KernelMode::kAvx2;
  } else {
    return false;
  }
  return true;
}

namespace kernels {

void GemmRowsBlocked(const Scalar* a, const Scalar* b, Scalar* c, size_t k,
                     size_t n, size_t row_begin, size_t row_end) {
  ActiveTable().gemm_rows_blocked(a, b, c, k, n, row_begin, row_end);
}

void GemmSmallNN(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                 size_t k, size_t n, size_t ldc) {
  ActiveTable().gemm_small_nn(a, b, c, m, k, n, ldc);
}

void GemmSmallTA(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                 size_t k, size_t n) {
  ActiveTable().gemm_small_ta(a, b, c, m, k, n);
}

void GemmSmallTB(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                 size_t k, size_t n) {
  ActiveTable().gemm_small_tb(a, b, c, m, k, n);
}

void SigmoidInPlace(Scalar* x, size_t n) { ActiveTable().sigmoid_inplace(x, n); }

void TanhInPlace(Scalar* x, size_t n) { ActiveTable().tanh_inplace(x, n); }

void AdamUpdate(Scalar* value, const Scalar* grad, Scalar* m, Scalar* v,
                size_t n, const AdamCoefficients& coefficients) {
  ActiveTable().adam_update(value, grad, m, v, n, coefficients);
}

}  // namespace kernels

}  // namespace lighttr::nn
