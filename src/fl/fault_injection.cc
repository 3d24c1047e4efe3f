#include "fl/fault_injection.h"

#include <cmath>
#include <limits>

#include "common/check.h"

namespace lighttr::fl {
namespace {

// Simulated duration of a healthy local update, seconds (before the
// +-20% jitter and any straggler slowdown).
constexpr double kNominalUpdateSeconds = 0.25;

}  // namespace

FaultModel::FaultModel(FaultInjectionConfig config) : config_(config) {
  LIGHTTR_CHECK_GE(config_.dropout_rate, 0.0);
  LIGHTTR_CHECK_LE(config_.dropout_rate, 1.0);
  LIGHTTR_CHECK_GE(config_.straggler_rate, 0.0);
  LIGHTTR_CHECK_LE(config_.straggler_rate, 1.0);
  LIGHTTR_CHECK_GE(config_.corruption_rate, 0.0);
  LIGHTTR_CHECK_LE(config_.corruption_rate, 1.0);
  LIGHTTR_CHECK_GT(config_.straggler_slowdown_mean, 0.0);
}

FaultDraw FaultModel::Draw(Rng* rng) const {
  LIGHTTR_CHECK(rng != nullptr);
  FaultDraw draw;
  draw.simulated_seconds = kNominalUpdateSeconds * rng->Uniform(0.8, 1.2);
  // The draws are consumed unconditionally so the Rng stream (and hence
  // every later fault) does not depend on earlier outcomes.
  const bool dropped = rng->Bernoulli(config_.dropout_rate);
  const bool slowed = rng->Bernoulli(config_.straggler_rate);
  const double slowdown =
      std::exp(rng->Normal(std::log(config_.straggler_slowdown_mean),
                           config_.straggler_slowdown_sigma));
  const bool corrupted = rng->Bernoulli(config_.corruption_rate);
  const int64_t kind_draw = rng->UniformInt(0, 3);

  if (dropped) {
    draw.type = FaultType::kDropout;
    return draw;
  }
  if (slowed) {
    draw.simulated_seconds *= slowdown;
    if (draw.simulated_seconds > kRoundDeadlineSeconds) {
      draw.type = FaultType::kStraggler;
      return draw;
    }
  }
  if (corrupted) {
    draw.type = FaultType::kCorruption;
    draw.corruption = static_cast<CorruptionKind>(kind_draw);
  }
  return draw;
}

void FaultModel::Corrupt(CorruptionKind kind, Rng* rng,
                         std::vector<nn::Scalar>* upload) {
  LIGHTTR_CHECK(rng != nullptr);
  LIGHTTR_CHECK(upload != nullptr);
  if (upload->empty()) return;
  const size_t n = upload->size();
  switch (kind) {
    case CorruptionKind::kNaN:
    case CorruptionKind::kInf: {
      // Damage a sparse subset: one scalar plus ~1% of the vector.
      const size_t hits = 1 + n / 100;
      const nn::Scalar bad =
          kind == CorruptionKind::kNaN
              ? std::numeric_limits<nn::Scalar>::quiet_NaN()
              : std::numeric_limits<nn::Scalar>::infinity();
      for (size_t h = 0; h < hits; ++h) {
        const size_t i =
            static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n) - 1));
        (*upload)[i] = rng->Bernoulli(0.5) ? bad : -bad;
      }
      break;
    }
    case CorruptionKind::kScale: {
      const nn::Scalar factor =
          static_cast<nn::Scalar>(rng->Uniform(1e4, 1e6));
      for (nn::Scalar& x : *upload) x *= factor;
      break;
    }
    case CorruptionKind::kGarbage: {
      for (nn::Scalar& x : *upload) {
        x = static_cast<nn::Scalar>(rng->Uniform(-100.0, 100.0));
      }
      break;
    }
  }
}

}  // namespace lighttr::fl
