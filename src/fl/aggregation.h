// Server-side upload screening and robust aggregation.
//
// The bare FedAvg mean (Algorithm 3 line 11) is a single point of
// failure: one NaN scalar poisons every weight of the global model, and
// one scaled upload drags the mean arbitrarily far. This module screens
// uploads before they enter aggregation (finite check + delta-norm
// clip/reject) and offers robust alternatives to the mean (coordinate-
// wise median, trimmed mean) that tolerate a minority of damaged
// uploads that pass screening.
#ifndef LIGHTTR_FL_AGGREGATION_H_
#define LIGHTTR_FL_AGGREGATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/arena.h"

namespace lighttr::fl {

/// What to do with an upload whose delta norm exceeds the bound.
enum class ScreenPolicy {
  kClip = 0,  // scale the delta back to the bound, keep the upload
  kReject,    // discard the upload entirely
};

/// Server-side upload validation. Non-finite uploads are always
/// rejected when screening is enabled; the norm bound is optional.
struct UploadScreenConfig {
  bool enabled = true;
  /// Maximum L2 norm of (upload - reference); <= 0 disables the bound.
  double max_delta_norm = 0.0;
  ScreenPolicy norm_policy = ScreenPolicy::kClip;
};

/// Validates (and under kClip possibly repairs) one upload against the
/// current global model `reference`. Returns OK when the upload may
/// enter aggregation; a non-OK Status means it must be discarded. Never
/// crashes on garbage input. When `clipped` is non-null it is set to
/// whether the delta was norm-clipped.
[[nodiscard]] Status ScreenUpload(std::vector<nn::Scalar>* upload,
                    const std::vector<nn::Scalar>& reference,
                    const UploadScreenConfig& config,
                    bool* clipped = nullptr);

/// Aggregation rule applied to the screened uploads. The first three
/// tolerate damaged-but-independent uploads; the Byzantine entries
/// (Krum / Multi-Krum / norm-bound) additionally resist colluding
/// adversaries that craft norm-plausible poison (fl/adversary).
enum class AggregatorPolicy {
  kMean = 0,        // FedAvg: element-wise mean
  kMedian,          // coordinate-wise median
  kTrimmedMean,     // drop the k smallest/largest per coordinate, mean rest
  kKrum,            // the one upload closest to its n-f-2 nearest neighbors
  kMultiKrum,       // mean of the m-f lowest-Krum-score uploads
  kNormBound,       // clip every delta to the rolling median accepted norm
};

const char* AggregatorPolicyName(AggregatorPolicy policy);

/// Strict parse of the CLI spellings (mean|median|trimmed|krum|
/// multikrum|normbound) plus the AggregatorPolicyName round-trip forms.
/// Returns false on unknown text without touching `out`.
bool ParseAggregatorPolicy(const std::string& text, AggregatorPolicy* out);

struct AggregatorConfig {
  AggregatorPolicy policy = AggregatorPolicy::kMean;
  /// Fraction trimmed from EACH tail per coordinate (kTrimmedMean only);
  /// e.g. 0.1 with 10 uploads drops the min and max value per weight.
  double trim_fraction = 0.1;
  /// Assumed fraction of Byzantine uploads per round (kKrum/kMultiKrum):
  /// f = floor(byzantine_fraction * m). Krum needs m - f - 2 >= 1
  /// neighbors; smaller cohorts fall back to the coordinate median.
  double byzantine_fraction = 0.25;
  /// kKrum/kMultiKrum aggregation mode: detection runs unchanged, but
  /// the returned aggregate is the plain mean over the uploads NOT
  /// flagged suspected this round (falling back to the Krum-selected
  /// aggregate when every upload is flagged). Krum selection is a
  /// strong detector but a lossy aggregator — it pays a selection tax
  /// on every clean round by discarding honest outer uploads. This mode
  /// makes the defense free when nothing is wrong and surgical when
  /// something is: exactly the flagged uploads sit out.
  bool exclude_suspected = false;
};

/// Aggregates screened uploads into one parameter vector. Returns
/// FailedPrecondition for an empty upload set and InvalidArgument for
/// mismatched vector lengths — callers keep the previous global model
/// instead of crashing.
///
/// The extended overload powers the Byzantine policies: `reference` is
/// the current global model (required by kNormBound; may be null for
/// the others), `norm_bound` the rolling median accepted delta norm
/// (<= 0 means unarmed: kNormBound degrades to the plain mean), and
/// `suspected`, when non-null, is resized to uploads.size() with a 1
/// per upload the policy flagged as probable poison. Detection (not
/// selection) is relative, with a fixed multiple of 4: under kKrum /
/// kMultiKrum a non-selected upload whose Krum score exceeds 4x the
/// cohort median score AND 4x the median squared update magnitude
/// (distance to the reference, when one is given) is flagged; under
/// kNormBound, an upload whose delta norm exceeds 4x the bound. On a
/// clean round every score sits near the median and nobody is flagged;
/// the magnitude anchor keeps a nearly degenerate honest cluster
/// (median score ~ 0) from making its own stragglers look suspicious.
/// Krum / Multi-Krum also flag on two certificates the distance scores
/// are blind to:
///   - collusion: two bitwise-identical uploads from distinct clients
///     (min-max colluders' tell — independent trainings never reproduce
///     an identical multi-parameter model, and the shared zero distance
///     deflates exactly the Krum score that would otherwise expose
///     them). Needs >= 2 parameters: a one-dimensional upload cannot
///     distinguish collusion from coincidence.
///   - anti-alignment: an upload delta at strongly negative cosine
///     against the robust aggregate (sign-flip / norm-matched attacks —
///     flipping preserves every norm and pairwise distance statistic,
///     but honest clients never descend AGAINST the consensus). Needs
///     `reference` and enough parameters that direction is evidence.
[[nodiscard]] Result<std::vector<nn::Scalar>> AggregateFlat(
    const std::vector<std::vector<nn::Scalar>>& uploads,
    const AggregatorConfig& config);
[[nodiscard]] Result<std::vector<nn::Scalar>> AggregateFlat(
    const std::vector<std::vector<nn::Scalar>>& uploads,
    const AggregatorConfig& config,
    const std::vector<nn::Scalar>* reference, double norm_bound,
    std::vector<uint8_t>* suspected);

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_AGGREGATION_H_
