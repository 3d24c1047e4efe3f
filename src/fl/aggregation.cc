#include "fl/aggregation.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/finite.h"
#include "fl/health.h"
#include "fl/privacy.h"

namespace lighttr::fl {

const char* AggregatorPolicyName(AggregatorPolicy policy) {
  switch (policy) {
    case AggregatorPolicy::kMean:
      return "mean";
    case AggregatorPolicy::kMedian:
      return "median";
    case AggregatorPolicy::kTrimmedMean:
      return "trimmed_mean";
    case AggregatorPolicy::kKrum:
      return "krum";
    case AggregatorPolicy::kMultiKrum:
      return "multikrum";
    case AggregatorPolicy::kNormBound:
      return "normbound";
  }
  return "unknown";
}

bool ParseAggregatorPolicy(const std::string& text, AggregatorPolicy* out) {
  LIGHTTR_CHECK(out != nullptr);
  if (text == "mean") {
    *out = AggregatorPolicy::kMean;
  } else if (text == "median") {
    *out = AggregatorPolicy::kMedian;
  } else if (text == "trimmed" || text == "trimmed_mean") {
    *out = AggregatorPolicy::kTrimmedMean;
  } else if (text == "krum") {
    *out = AggregatorPolicy::kKrum;
  } else if (text == "multikrum" || text == "multi_krum") {
    *out = AggregatorPolicy::kMultiKrum;
  } else if (text == "normbound" || text == "norm_bound") {
    *out = AggregatorPolicy::kNormBound;
  } else {
    return false;
  }
  return true;
}

Status ScreenUpload(std::vector<nn::Scalar>* upload,
                    const std::vector<nn::Scalar>& reference,
                    const UploadScreenConfig& config, bool* clipped) {
  LIGHTTR_CHECK(upload != nullptr);
  if (clipped != nullptr) *clipped = false;
  if (!config.enabled) return Status::Ok();
  if (upload->size() != reference.size()) {
    return Status::InvalidArgument("upload has wrong parameter count");
  }
  if (!AllFinite(*upload)) {
    return Status::InvalidArgument("upload contains non-finite scalars");
  }
  if (config.max_delta_norm > 0.0) {
    const double norm = DeltaNorm(*upload, reference);
    if (norm > config.max_delta_norm) {
      if (config.norm_policy == ScreenPolicy::kReject) {
        return Status::OutOfRange("upload delta norm " +
                                  std::to_string(norm) + " exceeds bound " +
                                  std::to_string(config.max_delta_norm));
      }
      // kClip: rescale the delta onto the bound, keeping its direction.
      if (clipped != nullptr) *clipped = true;
      const double scale = config.max_delta_norm / norm;
      for (size_t i = 0; i < upload->size(); ++i) {
        (*upload)[i] = reference[i] +
                       static_cast<nn::Scalar>(
                           ((*upload)[i] - reference[i]) * scale);
      }
    }
  }
  return Status::Ok();
}

namespace {

// Detection multiple: an upload is flagged suspected past this multiple
// of the cohort's own scale (see AggregateFlat in the header).
constexpr double kSuspicionMult = 4.0;

/// Coordinate-wise median (kMedian, and the small-cohort fallback for
/// Krum). Even cohorts average the two middle values.
std::vector<nn::Scalar> CoordinateMedian(
    const std::vector<std::vector<nn::Scalar>>& uploads, size_t n,
    size_t m) {
  std::vector<nn::Scalar> out(n, nn::Scalar{0});
  std::vector<nn::Scalar> column(m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < m; ++c) column[c] = uploads[c][i];
    auto mid = column.begin() + static_cast<ptrdiff_t>(m / 2);
    std::nth_element(column.begin(), mid, column.end());
    if (m % 2 == 1) {
      out[i] = *mid;
    } else {
      const nn::Scalar upper = *mid;
      const nn::Scalar lower = *std::max_element(column.begin(), mid);
      out[i] = (lower + upper) / nn::Scalar{2};
    }
  }
  return out;
}

/// Anti-alignment certificate threshold: an upload delta at cosine
/// below this against the robust aggregate is flagged suspected. Honest
/// clients descending a shared loss surface sit at clearly positive
/// cosine (empirically ~ +0.5 on the LightTR workloads); a sign-flipped
/// delta mirrors to the same magnitude negative. -0.25 leaves a wide
/// no-fire band around orthogonal for heterogeneous-but-honest data.
constexpr double kAntiAlignCos = -0.25;
/// The direction test needs enough dimensions that strong anti-
/// alignment is real evidence: a near-scalar model's delta direction
/// carries about one bit, and honest sign disagreement is routine.
constexpr size_t kMinDirectionParams = 8;

double SquaredDistance(const std::vector<nn::Scalar>& a,
                       const std::vector<nn::Scalar>& b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

/// Krum scores: score_i = sum of squared distances from upload i to its
/// `neighbors` nearest other uploads. Low score = deep inside the
/// honest cluster; colluders pull each other close but remain far from
/// everyone else once neighbors excludes f suspected peers. When
/// `min_dist` is non-null it receives each upload's distance to its
/// single nearest peer (the collusion-certificate input: byte-identical
/// colluders sit at exactly 0).
std::vector<double> KrumScores(
    const std::vector<std::vector<nn::Scalar>>& uploads, size_t m,
    size_t neighbors, std::vector<double>* min_dist) {
  std::vector<std::vector<double>> dist(m, std::vector<double>(m, 0.0));
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      const double d = SquaredDistance(uploads[i], uploads[j]);
      dist[i][j] = d;
      dist[j][i] = d;
    }
  }
  if (min_dist != nullptr) min_dist->assign(m, 0.0);
  std::vector<double> scores(m, 0.0);
  std::vector<double> others;
  others.reserve(m - 1);
  for (size_t i = 0; i < m; ++i) {
    others.clear();
    for (size_t j = 0; j < m; ++j) {
      if (j != i) others.push_back(dist[i][j]);
    }
    std::sort(others.begin(), others.end());
    if (min_dist != nullptr && !others.empty()) {
      (*min_dist)[i] = others.front();
    }
    double sum = 0.0;
    for (size_t j = 0; j < neighbors && j < others.size(); ++j) {
      sum += others[j];
    }
    scores[i] = sum;
  }
  return scores;
}

}  // namespace

Result<std::vector<nn::Scalar>> AggregateFlat(
    const std::vector<std::vector<nn::Scalar>>& uploads,
    const AggregatorConfig& config) {
  return AggregateFlat(uploads, config, /*reference=*/nullptr,
                       /*norm_bound=*/0.0, /*suspected=*/nullptr);
}

Result<std::vector<nn::Scalar>> AggregateFlat(
    const std::vector<std::vector<nn::Scalar>>& uploads,
    const AggregatorConfig& config,
    const std::vector<nn::Scalar>* reference, double norm_bound,
    std::vector<uint8_t>* suspected) {
  if (suspected != nullptr) suspected->assign(uploads.size(), 0);
  if (uploads.empty()) {
    return Status::FailedPrecondition("no uploads to aggregate");
  }
  const size_t n = uploads[0].size();
  for (const auto& flat : uploads) {
    if (flat.size() != n) {
      return Status::InvalidArgument("upload length mismatch in aggregation");
    }
  }
  const size_t m = uploads.size();

  switch (config.policy) {
    case AggregatorPolicy::kMean: {
      std::vector<nn::Scalar> out(n, nn::Scalar{0});
      for (const auto& flat : uploads) {
        for (size_t i = 0; i < n; ++i) out[i] += flat[i];
      }
      const auto inv = nn::Scalar{1} / static_cast<nn::Scalar>(m);
      for (nn::Scalar& x : out) x *= inv;
      return out;
    }
    case AggregatorPolicy::kMedian: {
      return CoordinateMedian(uploads, n, m);
    }
    case AggregatorPolicy::kTrimmedMean: {
      if (config.trim_fraction < 0.0 || config.trim_fraction >= 0.5) {
        return Status::InvalidArgument("trim_fraction must be in [0, 0.5)");
      }
      const size_t k = static_cast<size_t>(
          std::floor(config.trim_fraction * static_cast<double>(m)));
      if (2 * k >= m) {
        // Unreachable while the fraction bound above holds (k <=
        // floor(m * 0.5 - epsilon) < m/2), but the old silent clamp here
        // hid exactly this class of bound drift: fail loudly instead of
        // averaging an empty (or wrong-width) slice.
        return Status::InvalidArgument(
            "trim_fraction " + std::to_string(config.trim_fraction) +
            " trims " + std::to_string(k) + " per tail, leaving no values"
            " from " + std::to_string(m) + " uploads");
      }
      std::vector<nn::Scalar> out(n, nn::Scalar{0});
      std::vector<nn::Scalar> column(m);
      const auto inv = nn::Scalar{1} / static_cast<nn::Scalar>(m - 2 * k);
      for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < m; ++c) column[c] = uploads[c][i];
        std::sort(column.begin(), column.end());
        nn::Scalar sum{0};
        for (size_t c = k; c < m - k; ++c) sum += column[c];
        out[i] = sum * inv;
      }
      return out;
    }
    case AggregatorPolicy::kKrum:
    case AggregatorPolicy::kMultiKrum: {
      if (config.byzantine_fraction < 0.0 || config.byzantine_fraction >= 1.0) {
        return Status::InvalidArgument("byzantine_fraction must be in [0, 1)");
      }
      const size_t f = static_cast<size_t>(
          std::floor(config.byzantine_fraction * static_cast<double>(m)));
      // Krum needs m - f - 2 >= 1 scoreable neighbors; tiny cohorts
      // (single-client rounds, heavy dropout) fall back to the
      // coordinate median — defined for any m >= 1 — instead of
      // underflowing the neighbor count.
      if (m < f + 3) {
        return CoordinateMedian(uploads, n, m);
      }
      const size_t neighbors = m - f - 2;
      // Detection must run for the caller's suspected buffer AND for
      // exclude_suspected mode (which filters on the flags even when
      // the caller does not ask to see them).
      const bool want_flags = suspected != nullptr || config.exclude_suspected;
      std::vector<double> min_dist;
      const std::vector<double> scores =
          KrumScores(uploads, m, neighbors, want_flags ? &min_dist : nullptr);
      // Rank by (score, index): the index tiebreak keeps selection
      // deterministic when uploads coincide.
      std::vector<size_t> order(m);
      for (size_t i = 0; i < m; ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (scores[a] != scores[b]) return scores[a] < scores[b];
        return a < b;
      });
      const size_t selected =
          config.policy == AggregatorPolicy::kKrum ? 1 : m - f;
      std::vector<nn::Scalar> out(n, nn::Scalar{0});
      for (size_t rank = 0; rank < selected; ++rank) {
        const auto& flat = uploads[order[rank]];
        for (size_t i = 0; i < n; ++i) out[i] += flat[i];
      }
      const auto inv = nn::Scalar{1} / static_cast<nn::Scalar>(selected);
      for (nn::Scalar& x : out) x *= inv;
      std::vector<uint8_t> flags(m, 0);
      if (want_flags) {
        const double median_score = Median(scores);
        // A purely relative test misfires when the honest cluster is
        // nearly degenerate: median_score ~ 0 lets any nonzero spread
        // look suspicious. Anchor on the median squared update
        // magnitude too — a poisoner cannot stay under that bar and
        // still move the model, but an honest straggler in a tight
        // cluster stays far below it.
        double anchor = 0.0;
        if (reference != nullptr && reference->size() == n) {
          std::vector<double> mags(m);
          for (size_t c = 0; c < m; ++c) {
            mags[c] = SquaredDistance(uploads[c], *reference);
          }
          anchor = Median(std::move(mags));
        }
        for (size_t rank = selected; rank < m; ++rank) {
          const size_t i = order[rank];
          if (scores[i] > kSuspicionMult * median_score &&
              scores[i] > kSuspicionMult * anchor &&
              scores[i] > 0.0) {
            flags[i] = 1;
          }
        }
        // Collusion certificate (see the header): bitwise-identical
        // uploads from distinct clients. Checked at every rank — the
        // shared zero distance deflates the colluders' scores, so they
        // may well have ranked into the selected set. Skipped when
        // every upload coincides (max score 0: a fully degenerate round
        // has no pair to single out) and for one-parameter models.
        if (n >= 2 && *std::max_element(scores.begin(), scores.end()) > 0.0) {
          for (size_t i = 0; i < m; ++i) {
            if (min_dist[i] == 0.0) flags[i] = 1;
          }
        }
        // Anti-alignment certificate (see the header): an upload whose
        // delta points sharply AGAINST the robust aggregate's direction
        // (cos below kAntiAlignCos). Distance-based scores cannot see
        // this — flipping a delta preserves every norm and barely moves
        // pairwise distances when honest updates correlate weakly — but
        // honest clients descend a shared loss surface and never
        // anti-align with the consensus this strongly. Needs enough
        // dimensions that anti-alignment is evidence rather than the
        // fifty-fifty sign disagreement a near-scalar model produces.
        if (n >= kMinDirectionParams && reference != nullptr &&
            reference->size() == n) {
          double agg_sq = 0.0;
          for (size_t i = 0; i < n; ++i) {
            const double a = out[i] - (*reference)[i];
            agg_sq += a * a;
          }
          if (agg_sq > 0.0) {
            for (size_t c = 0; c < m; ++c) {
              double dot = 0.0;
              double up_sq = 0.0;
              for (size_t i = 0; i < n; ++i) {
                const double u = uploads[c][i] - (*reference)[i];
                dot += u * (out[i] - (*reference)[i]);
                up_sq += u * u;
              }
              // cos < kAntiAlignCos, squared to avoid the sqrt:
              // dot < 0 and dot^2 > cos^2 * |u|^2 * |agg|^2.
              if (up_sq > 0.0 && dot < 0.0 &&
                  dot * dot > kAntiAlignCos * kAntiAlignCos * up_sq * agg_sq) {
                flags[c] = 1;
              }
            }
          }
        }
      }
      if (suspected != nullptr) *suspected = flags;
      if (config.exclude_suspected) {
        // Aggregate as the plain mean over the un-flagged uploads; the
        // Krum-selected aggregate (already in `out`) is the fallback
        // when detection flagged everyone.
        size_t kept = 0;
        std::vector<nn::Scalar> mean(n, nn::Scalar{0});
        for (size_t c = 0; c < m; ++c) {
          if (flags[c] != 0) continue;
          ++kept;
          for (size_t i = 0; i < n; ++i) mean[i] += uploads[c][i];
        }
        if (kept > 0) {
          const auto kept_inv =
              nn::Scalar{1} / static_cast<nn::Scalar>(kept);
          for (nn::Scalar& x : mean) x *= kept_inv;
          return mean;
        }
      }
      return out;
    }
    case AggregatorPolicy::kNormBound: {
      if (reference == nullptr) {
        return Status::InvalidArgument(
            "norm-bound aggregation needs the global model as reference");
      }
      if (reference->size() != n) {
        return Status::InvalidArgument(
            "norm-bound reference length mismatch");
      }
      // bound <= 0 means the rolling norm history has not armed yet:
      // degrade to the plain mean rather than clipping against garbage.
      std::vector<nn::Scalar> out(n, nn::Scalar{0});
      for (size_t c = 0; c < m; ++c) {
        const double norm = DeltaNorm(uploads[c], *reference);
        double scale = 1.0;
        if (norm_bound > 0.0 && norm > norm_bound) {
          scale = norm_bound / norm;
          if (suspected != nullptr &&
              norm > kSuspicionMult * norm_bound) {
            (*suspected)[c] = 1;
          }
        }
        if (scale == 1.0) {
          for (size_t i = 0; i < n; ++i) out[i] += uploads[c][i];
        } else {
          for (size_t i = 0; i < n; ++i) {
            out[i] += (*reference)[i] +
                      static_cast<nn::Scalar>(
                          (uploads[c][i] - (*reference)[i]) * scale);
          }
        }
      }
      const auto inv = nn::Scalar{1} / static_cast<nn::Scalar>(m);
      for (nn::Scalar& x : out) x *= inv;
      return out;
    }
  }
  return Status::Internal("unknown aggregator policy");
}

}  // namespace lighttr::fl
