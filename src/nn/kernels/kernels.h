// Runtime-dispatched CPU microkernels for the nn hot path.
//
// One process-global kernel mode — selected explicitly by an entry point
// (`run_experiment --kernel=`, `lighttr-chaos --kernel=`) or resolved
// lazily from CPUID on first use — routes the GEMM trio, the
// sigmoid/tanh activation sweeps and the Adam update through either the
// portable scalar reference or the AVX2+FMA variant (DESIGN.md §14).
//
// Determinism contract: for a FIXED mode, every kernel fixes each
// output element's floating-point reduction order by problem shape
// alone, so results are bitwise identical across thread counts and
// crash/resume. Across modes the GEMM and activation kernels may differ
// by bounded rounding (FMA contracts the multiply-add; kernels_test
// bounds the drift) — which is why mode selection is explicit and never
// silently changes mid-run: only entry points call ActivateKernels,
// before any model math; no library code does. The Adam update is the
// exception: both tables compute it bitwise-identically.
#ifndef LIGHTTR_NN_KERNELS_KERNELS_H_
#define LIGHTTR_NN_KERNELS_KERNELS_H_

#include <cstddef>
#include <string>

#include "nn/arena.h"

namespace lighttr::nn {

/// Which kernel table serves nn math. kAuto resolves to the best table
/// the CPU supports (kAvx2 on AVX2+FMA hardware, else kScalar).
enum class KernelMode {
  kAuto = 0,
  kScalar = 1,
  kAvx2 = 2,
};

/// True when this binary AND this CPU can run the AVX2+FMA table.
bool CpuHasAvx2Fma();

/// Pure resolution rule (testable without touching global state):
///   kAuto   -> kAvx2 when has_avx2_fma, else kScalar
///   kAvx2   -> kAvx2 when has_avx2_fma, else kScalar (documented
///              fallback: requesting an ISA the CPU lacks degrades to
///              the reference kernels instead of crashing)
///   kScalar -> kScalar
KernelMode ResolveKernelMode(KernelMode requested, bool has_avx2_fma);

/// Selects the process-global kernel table. Call once at startup, from
/// the program's entry point, before any model math; switching modes
/// mid-run is safe memory-wise but breaks bitwise reproducibility
/// against earlier results.
void ActivateKernels(KernelMode mode);

/// The resolved mode currently in force (never kAuto: lazy resolution
/// happens on first query/use).
KernelMode ActiveKernelMode();

/// Canonical names: "auto", "scalar", "avx2".
const char* KernelModeName(KernelMode mode);

/// Parses a --kernel= value; returns false on unknown text.
bool ParseKernelMode(const std::string& text, KernelMode* mode);

namespace kernels {

// Raw dispatch entry points (Matrix/ops call these; most code should
// stay on the nn/matrix.h API). Contracts in kernel_table.h.

void GemmRowsBlocked(const Scalar* a, const Scalar* b, Scalar* c, size_t k,
                     size_t n, size_t row_begin, size_t row_end);
void GemmSmallNN(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                 size_t k, size_t n, size_t ldc);
void GemmSmallTA(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                 size_t k, size_t n);
void GemmSmallTB(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                 size_t k, size_t n);
void SigmoidInPlace(Scalar* x, size_t n);
void TanhInPlace(Scalar* x, size_t n);

/// The per-step constants of one Adam update: the moment decay rates,
/// the bias corrections 1 - beta^t, the learning rate, the denominator
/// epsilon, and the decoupled weight decay (<= 0 disables it).
struct AdamCoefficients {
  Scalar beta1;
  Scalar beta2;
  Scalar bias_correction1;
  Scalar bias_correction2;
  Scalar learning_rate;
  Scalar epsilon;
  Scalar weight_decay;
};

/// Adam (AdamW-style decay) over n elements: updates the moments m, v
/// from grad, then steps value. Bitwise-identical in every mode.
void AdamUpdate(Scalar* value, const Scalar* grad, Scalar* m, Scalar* v,
                size_t n, const AdamCoefficients& coefficients);

}  // namespace kernels

}  // namespace lighttr::nn

#endif  // LIGHTTR_NN_KERNELS_KERNELS_H_
