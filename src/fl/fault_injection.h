// Deterministic fault injection for the federated simulator.
//
// Real federated deployments (the setting FedTDP / GOF-TTE target) see
// three dominant client failure modes every round:
//   - dropout:   the client never reports back;
//   - straggler: the client finishes after the server's round deadline;
//   - corruption: the upload arrives, but its scalars are garbage
//                 (NaN/Inf from diverged training, scaled or random
//                 values from bad hardware or hostile clients).
// FaultModel draws these per client-contact from an explicit Rng, so a
// seed fully determines the fault schedule and every resilience
// experiment is reproducible.
#ifndef LIGHTTR_FL_FAULT_INJECTION_H_
#define LIGHTTR_FL_FAULT_INJECTION_H_

#include <vector>

#include "common/rng.h"
#include "nn/arena.h"

namespace lighttr::fl {

/// What happened to one client contact.
enum class FaultType {
  kNone = 0,
  kDropout,     // no response at all
  kStraggler,   // responded after the round deadline
  kCorruption,  // responded in time with a damaged upload
};

/// How a corrupted upload is damaged.
enum class CorruptionKind {
  kNaN = 0,   // a subset of scalars becomes NaN
  kInf,       // a subset of scalars becomes +-Inf
  kScale,     // the whole vector is multiplied by a huge factor
  kGarbage,   // the whole vector is replaced with uniform noise
};

/// Server-side per-round deadline (simulated seconds). A slowed client
/// whose update finishes after the deadline is cut off; a healthy local
/// update takes 0.25 s +-20% (fault_injection.cc).
inline constexpr double kRoundDeadlineSeconds = 1.0;

/// Per-round, per-client fault probabilities and timing model. All rates
/// are independent Bernoulli draws; dropout shadows straggler shadows
/// corruption (a client that never reports cannot also be late).
struct FaultInjectionConfig {
  double dropout_rate = 0.0;     // P(client never reports)
  double straggler_rate = 0.0;   // P(client is slowed down)
  double corruption_rate = 0.0;  // P(upload is damaged)

  /// Straggler slowdown factor is lognormal: exp(N(ln(mean), sigma)).
  double straggler_slowdown_mean = 8.0;
  double straggler_slowdown_sigma = 0.5;

  bool enabled() const {
    return dropout_rate > 0.0 || straggler_rate > 0.0 ||
           corruption_rate > 0.0;
  }
};

/// Outcome of one injected client contact.
struct FaultDraw {
  FaultType type = FaultType::kNone;
  CorruptionKind corruption = CorruptionKind::kNaN;
  /// Simulated duration of the client's local update (slowdown applied).
  double simulated_seconds = 0.0;
};

/// Draws faults and damages uploads. Stateless apart from the config;
/// all randomness comes from the Rng passed per call.
class FaultModel {
 public:
  explicit FaultModel(FaultInjectionConfig config);

  const FaultInjectionConfig& config() const { return config_; }

  /// Draws the fate of one client contact. Deterministic in the Rng.
  FaultDraw Draw(Rng* rng) const;

  /// Applies `kind` in place to an upload vector.
  static void Corrupt(CorruptionKind kind, Rng* rng,
                      std::vector<nn::Scalar>* upload);

 private:
  FaultInjectionConfig config_;
};

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_FAULT_INJECTION_H_
