// Shared finite-scan helpers: the one sanctioned home of NaN/Inf
// classification outside src/fl/health.
//
// Numerical hygiene decisions (reject an upload, flag a diverged model,
// refuse a snapshot) must agree everywhere, so ad-hoc std::isnan /
// std::isinf sprinkling is banned by the `no-raw-nonfinite` lint rule;
// call these helpers instead. std::isfinite on a single freshly computed
// value is tolerated, but vector scans should go through ScanFinite /
// AllFinite so telemetry (NaN vs Inf counts, first bad index) is uniform.
#ifndef LIGHTTR_COMMON_FINITE_H_
#define LIGHTTR_COMMON_FINITE_H_

#include <cmath>
#include <cstddef>
#include <vector>

namespace lighttr {

/// True when `x` is neither NaN nor an infinity.
inline bool IsFinite(double x) { return std::isfinite(x); }

/// True when `x` is NaN.
inline bool IsNan(double x) { return std::isnan(x); }

/// True when `x` is +Inf or -Inf.
inline bool IsInf(double x) { return std::isinf(x); }

/// Outcome of scanning a vector for non-finite values.
struct FiniteScan {
  size_t nan_count = 0;
  size_t inf_count = 0;
  /// Index of the first non-finite element; meaningful when !all_finite().
  size_t first_bad = 0;

  size_t bad_count() const { return nan_count + inf_count; }
  bool all_finite() const { return bad_count() == 0; }
};

/// Counts NaN and Inf entries of `values` and records the first offender.
template <typename T>
FiniteScan ScanFinite(const std::vector<T>& values) {
  FiniteScan scan;
  for (size_t i = 0; i < values.size(); ++i) {
    const double x = static_cast<double>(values[i]);
    if (IsNan(x)) {
      if (scan.bad_count() == 0) scan.first_bad = i;
      ++scan.nan_count;
    } else if (IsInf(x)) {
      if (scan.bad_count() == 0) scan.first_bad = i;
      ++scan.inf_count;
    }
  }
  return scan;
}

/// True when every entry of `values` is finite. Early-exits on the first
/// offender, so prefer this over ScanFinite when counts are not needed.
template <typename T>
bool AllFinite(const std::vector<T>& values) {
  for (const T& value : values) {
    if (!IsFinite(static_cast<double>(value))) return false;
  }
  return true;
}

}  // namespace lighttr

#endif  // LIGHTTR_COMMON_FINITE_H_
