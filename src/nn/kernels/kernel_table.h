// Internal dispatch table of the kernel layer (see kernels.h for the
// public API). Each ISA variant fills one static KernelTable; dispatch
// is a single atomic pointer swap at activation time, so the hot path
// pays one relaxed load per call and never branches on CPUID.
//
// Internal header: only kernels.cc and kernels_<isa>.cc may include it.
#ifndef LIGHTTR_NN_KERNELS_KERNEL_TABLE_H_
#define LIGHTTR_NN_KERNELS_KERNEL_TABLE_H_

#include <cstddef>

#include "nn/arena.h"
#include "nn/kernels/kernels.h"

namespace lighttr::nn::kernels {

/// Function-pointer bundle for one ISA variant. Contract shared by all
/// entries: accumulation (`c +=`), row-major operands, and a per-output
/// floating-point reduction order fixed by the implementation alone —
/// never by thread count or data values (data-dependent skips are
/// allowed only where they cannot change emitted values, e.g. the
/// scalar zero-skip: adding av * b[j] with av == 0 is an exact no-op
/// for finite b).
struct KernelTable {
  /// Blocked GEMM core over C rows [row_begin, row_end):
  /// c += a * b with a [m,k], b [k,n]. Handles its own cache blocking;
  /// the caller may split rows across threads freely (per-row order is
  /// invariant to the split).
  void (*gemm_rows_blocked)(const Scalar* a, const Scalar* b, Scalar* c,
                            size_t k, size_t n, size_t row_begin,
                            size_t row_end);
  /// Small-product trio (below the blocked-path FLOP threshold).
  /// ldc is the row stride of c (>= n), letting the fused GRU step
  /// write gate columns into one packed pre-activation buffer.
  void (*gemm_small_nn)(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                        size_t k, size_t n, size_t ldc);
  /// c += a^T * b with a [k,m], b [k,n], c [m,n].
  void (*gemm_small_ta)(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                        size_t k, size_t n);
  /// c += a * b^T with a [m,k], b [n,k], c [m,n].
  void (*gemm_small_tb)(const Scalar* a, const Scalar* b, Scalar* c, size_t m,
                        size_t k, size_t n);
  /// x[i] = 1 / (1 + exp(-x[i])).
  void (*sigmoid_inplace)(Scalar* x, size_t n);
  /// x[i] = tanh(x[i]).
  void (*tanh_inplace)(Scalar* x, size_t n);
  /// One Adam step over n elements (see kernels::AdamUpdate). Unlike
  /// the entries above, every table must match the scalar one bitwise:
  /// same operations, same association order, no FMA contraction.
  void (*adam_update)(Scalar* value, const Scalar* grad, Scalar* m,
                      Scalar* v, size_t n,
                      const AdamCoefficients& coefficients);
};

/// The portable reference table (always available; bit-identical to the
/// pre-kernel-layer code paths).
const KernelTable& ScalarKernelTable();

/// The AVX2+FMA table, or nullptr when this binary/CPU cannot run it.
/// Defined in kernels_avx2.cc — the single TU compiled with -mavx2
/// -mfma and the only file allowed to include <immintrin.h> (enforced
/// by the no-raw-intrinsics lint rule).
const KernelTable* Avx2KernelTable();

}  // namespace lighttr::nn::kernels

#endif  // LIGHTTR_NN_KERNELS_KERNEL_TABLE_H_
