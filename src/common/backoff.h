// Deterministic exponential backoff with jitter, used by the federated
// server when re-contacting dropped clients. Delays are *simulated*
// seconds (accumulated into telemetry), never real sleeps, so runs stay
// fast and reproducible.
#ifndef LIGHTTR_COMMON_BACKOFF_H_
#define LIGHTTR_COMMON_BACKOFF_H_

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace lighttr {

/// Growth factor per retry, shared by every retry schedule.
constexpr double kBackoffMultiplier = 2.0;
/// +- fraction of each delay, drawn uniformly from the supplied Rng.
constexpr double kBackoffJitter = 0.1;

/// Retry schedule: attempt k (0-based retry index) waits
/// min(base * kBackoffMultiplier^k, max_delay) * (1 +- kBackoffJitter).
struct BackoffConfig {
  int max_retries = 0;         // retries after the first attempt; 0 = none
  double base_delay_s = 0.5;   // simulated delay before the first retry
  double max_delay_s = 8.0;    // cap on any single delay
};

/// Simulated delay before retry number `retry` (0-based). Deterministic
/// given the Rng state; a null `rng` gives the delay without jitter.
inline double BackoffDelaySeconds(const BackoffConfig& config, int retry,
                                  Rng* rng) {
  LIGHTTR_CHECK_GE(retry, 0);
  // Saturate at the cap inside the loop: naively computing
  // base * multiplier^retry overflows to inf for large retry counts
  // (and a shift-based variant would wrap), whereas the capped delay is
  // what every attempt past the knee gets anyway.
  double delay = std::min(config.base_delay_s, config.max_delay_s);
  for (int i = 0; i < retry; ++i) {
    delay *= kBackoffMultiplier;
    if (delay >= config.max_delay_s) {
      delay = config.max_delay_s;
      break;
    }
  }
  if (rng != nullptr) {
    delay *= 1.0 + rng->Uniform(-kBackoffJitter, kBackoffJitter);
  }
  return std::max(delay, 0.0);
}

}  // namespace lighttr

#endif  // LIGHTTR_COMMON_BACKOFF_H_
