#include "fl/adversary.h"

#include <cmath>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/finite.h"
#include "fl/health.h"
#include "fl/privacy.h"

namespace lighttr::fl {
namespace {

constexpr uint32_t kAdversaryMagic = 0x4C544144u;  // "LTAD"
constexpr uint32_t kAdversaryVersion = 1;
/// Target norm as a fraction of the median honest delta norm (kMinMax,
/// kNormMatched): just inside the envelope the defense expects.
constexpr double kStealthMargin = 0.9;

// The engine's field walk (common/binary_io.h): magic, version, the RNG
// stream's text state, then the honest-norm window.
template <typename Io, typename Text, typename Window>
void WalkAdversary(Io& io, Text& rng_state, Window& honest_norms) {
  io.Expect(kAdversaryMagic, "adversary blob: bad magic");
  io.Expect(kAdversaryVersion, "adversary blob: unknown version");
  io.String(rng_state);
  RollingWindow::Walk(io, honest_norms);
}

}  // namespace

const char* AttackTypeName(AttackType attack) {
  switch (attack) {
    case AttackType::kNone:
      return "none";
    case AttackType::kSignFlip:
      return "sign-flip";
    case AttackType::kScaledAscent:
      return "scaled-ascent";
    case AttackType::kMinMax:
      return "min-max";
    case AttackType::kNormMatched:
      return "norm-matched";
  }
  return "unknown";
}

bool ParseAttackType(const std::string& text, AttackType* out) {
  LIGHTTR_CHECK(out != nullptr);
  if (text == "none") {
    *out = AttackType::kNone;
  } else if (text == "sign-flip" || text == "signflip") {
    *out = AttackType::kSignFlip;
  } else if (text == "scaled-ascent" || text == "ascent") {
    *out = AttackType::kScaledAscent;
  } else if (text == "min-max" || text == "minmax") {
    *out = AttackType::kMinMax;
  } else if (text == "norm-matched" || text == "stealth") {
    *out = AttackType::kNormMatched;
  } else {
    return false;
  }
  return true;
}

AdversaryEngine::AdversaryEngine(const AdversaryConfig& config)
    : config_(config), rng_(config.seed) {
  LIGHTTR_CHECK_GE(config_.num_attackers, 0);
  LIGHTTR_CHECK_GE(config_.start_round, 1);
  LIGHTTR_CHECK_GT(config_.ascent_scale, 0.0);
}

void AdversaryEngine::BeginRound(int round, size_t param_count) {
  if (!ActiveInRound(round)) return;
  if (config_.attack != AttackType::kMinMax) return;
  // Fresh shared direction every round: colluders that repeat a drift
  // direction hand the defense a trivial signature.
  drift_.assign(param_count, nn::Scalar{0});
  double norm_sq = 0.0;
  for (nn::Scalar& d : drift_) {
    d = static_cast<nn::Scalar>(rng_.Uniform(-1.0, 1.0));
    norm_sq += d * d;
  }
  const double norm = std::sqrt(norm_sq);
  if (norm > 0.0) {
    const auto inv = static_cast<nn::Scalar>(1.0 / norm);
    for (nn::Scalar& d : drift_) d *= inv;
  } else if (!drift_.empty()) {
    drift_[0] = nn::Scalar{1};
  }
}

bool AdversaryEngine::Poison(const std::vector<nn::Scalar>& global,
                             std::vector<nn::Scalar>* upload,
                             Rng* rng) const {
  LIGHTTR_CHECK(upload != nullptr);
  LIGHTTR_CHECK(rng != nullptr);
  LIGHTTR_CHECK_EQ(upload->size(), global.size());
  const size_t n = upload->size();
  if (n == 0) return false;
  const double own_norm = DeltaNorm(*upload, global);
  switch (config_.attack) {
    case AttackType::kNone:
      return false;
    case AttackType::kSignFlip: {
      for (size_t i = 0; i < n; ++i) {
        (*upload)[i] = global[i] - ((*upload)[i] - global[i]);
      }
      return true;
    }
    case AttackType::kScaledAscent: {
      // +-10% jitter so the cohort's norms are not byte-identical — a
      // lazy tell real attackers avoid.
      const double scale =
          config_.ascent_scale * (0.9 + 0.2 * rng->Uniform());
      for (size_t i = 0; i < n; ++i) {
        (*upload)[i] = global[i] -
                       static_cast<nn::Scalar>(
                           ((*upload)[i] - global[i]) * scale);
      }
      return true;
    }
    case AttackType::kMinMax: {
      // Every colluder uploads the identical drifted model; BeginRound
      // already sized drift_ to the parameter count.
      LIGHTTR_CHECK_EQ(drift_.size(), n);
      const double target = TargetNorm(own_norm);
      for (size_t i = 0; i < n; ++i) {
        (*upload)[i] = global[i] +
                       static_cast<nn::Scalar>(target * drift_[i]);
      }
      return true;
    }
    case AttackType::kNormMatched: {
      // Sign-flipped direction, rescaled into the honest-norm envelope
      // (with per-attacker jitter under the margin).
      const double target =
          TargetNorm(own_norm) * (0.9 + 0.1 * rng->Uniform());
      if (own_norm > 0.0) {
        const double scale = target / own_norm;
        for (size_t i = 0; i < n; ++i) {
          (*upload)[i] = global[i] -
                         static_cast<nn::Scalar>(
                             ((*upload)[i] - global[i]) * scale);
        }
      } else {
        // Degenerate local step: fall back to a plain sign-flip (a
        // no-op here, but keeps the upload well-defined).
        for (size_t i = 0; i < n; ++i) (*upload)[i] = global[i];
      }
      return true;
    }
  }
  return false;
}

void AdversaryEngine::ObserveHonestNorm(double norm) {
  if (!IsFinite(norm) || norm < 0.0) return;
  honest_norms_.Push(norm);
}

double AdversaryEngine::TargetNorm(double fallback) const {
  const double base =
      honest_norms_.size() == 0 ? fallback : honest_norms_.Median();
  if (!(base > 0.0)) return fallback > 0.0 ? fallback : 1.0;
  return kStealthMargin * base;
}

std::string AdversaryEngine::SerializeState() const {
  const std::string rng_state = rng_.SerializeState();
  return WriteFields([&](FieldWriter& io) {
    WalkAdversary(io, rng_state, honest_norms_);
  });
}

Status AdversaryEngine::DeserializeState(const std::string& bytes) {
  std::string rng_state;
  RollingWindow norms(kNormWindow);
  LIGHTTR_RETURN_NOT_OK(ReadFields(
      bytes, "adversary blob",
      [&](FieldReader& io) { WalkAdversary(io, rng_state, norms); }));
  Rng restored(config_.seed);
  LIGHTTR_RETURN_NOT_OK(restored.DeserializeState(rng_state));
  rng_ = restored;
  honest_norms_ = std::move(norms);
  drift_.clear();  // regenerated by the next BeginRound
  return Status::Ok();
}

}  // namespace lighttr::fl
