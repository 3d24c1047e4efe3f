// Seeded random number generation for reproducible experiments.
#ifndef LIGHTTR_COMMON_RNG_H_
#define LIGHTTR_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace lighttr {

/// A deterministic, seedable RNG wrapper used throughout the library.
///
/// All stochastic components (workload generation, parameter init, dropout,
/// client sampling) draw from an explicitly passed Rng so that every
/// experiment is reproducible from its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Returns a double uniform in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
  }

  /// Returns an integer uniform in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    LIGHTTR_CHECK_LE(lo, hi);
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Returns a normal sample with the given mean and standard deviation.
  double Normal(double mean = 0.0, double stddev = 1.0) {
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine_);
  }

  /// Returns true with probability p.
  bool Bernoulli(double p) {
    std::bernoulli_distribution dist(p);
    return dist(engine_);
  }

  /// Returns k distinct indices sampled uniformly from [0, n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Spawns an independent child generator (useful to give each client its
  /// own stream that does not perturb the parent sequence).
  Rng Fork() { return Rng(engine_()); }

  /// Serializes the full engine state (not just the seed): restoring it
  /// resumes the exact stream position, which crash recovery needs to
  /// replay a federated run bitwise-identically.
  std::string SerializeState() const;

  /// Restores a state produced by SerializeState. Rejects malformed
  /// input without touching the current state.
  [[nodiscard]] Status DeserializeState(const std::string& state);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace lighttr

#endif  // LIGHTTR_COMMON_RNG_H_
