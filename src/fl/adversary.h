// Seeded model-poisoning adversary for the federated loop.
//
// Everything before this module attacks the *infrastructure*: dropped
// clients, corrupted frames, torn snapshots. This module attacks the
// *learning*: a configurable cohort of clients trains honestly, then
// rewrites its upload before quantization/transport/screening so the
// poison traverses the exact path a real malicious device would use.
// Four attacks, in increasing stealth:
//
//   kSignFlip      — upload global - delta: the exact inverse of the
//                    honest step. Loud (norm matches honest traffic,
//                    direction is maximally wrong).
//   kScaledAscent  — upload global - scale * delta: gradient ascent at
//                    `ascent_scale`x. Loud in norm, devastating under
//                    mean aggregation.
//   kMinMax        — colluding drift: every attacker uploads the SAME
//                    global + target * drift vector, where drift is a
//                    fresh round-keyed random direction and target is
//                    sized to the median honest delta norm. Defeats
//                    coordinate-median-style defenses that assume
//                    attackers are mutually independent outliers.
//   kNormMatched   — stealth sign-flip: the adversarial direction is
//                    rescaled to 0.9 x the median honest delta norm, so
//                    norm-based screening and MAD envelopes see nothing
//                    unusual.
//
// The engine is adaptive across rounds — it watches the delta norms of
// accepted honest uploads (ObserveHonestNorm) and sizes its attacks to
// blend in — yet fully deterministic: it owns an independent RNG stream
// seeded from AdversaryConfig::seed (never forked from the trainer's
// draw chain, mirroring the transport's net_rng_ contract), all stream
// mutation happens on the coordinating thread (BeginRound / ForkStream
// in canonical selection order), and Poison() is const so worker
// threads only consume their pre-forked per-task streams. State
// round-trips through Serialize/Deserialize so crash/resume and
// divergence rollback replay the attack stream bitwise-identically.
#ifndef LIGHTTR_FL_ADVERSARY_H_
#define LIGHTTR_FL_ADVERSARY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "fl/health.h"
#include "nn/arena.h"

namespace lighttr::fl {

/// Which poisoning transform the attacker cohort applies.
enum class AttackType {
  kNone = 0,
  kSignFlip,
  kScaledAscent,
  kMinMax,
  kNormMatched,
};

const char* AttackTypeName(AttackType attack);

/// Strict parse of AttackTypeName output (plus the hyphenated CLI
/// spellings). Returns false on unknown text without touching `out`.
bool ParseAttackType(const std::string& text, AttackType* out);

struct AdversaryConfig {
  /// Clients [0, num_attackers) are compromised; 0 disables the engine.
  /// Low indices (matching bench_self_healing's hostile-cohort idiom)
  /// make attribution checks trivial to state.
  int num_attackers = 0;
  AttackType attack = AttackType::kNone;
  /// First round (1-based) the cohort poisons; earlier rounds train
  /// honestly, letting the engine bank honest norms to mimic.
  int start_round = 1;
  /// Gradient-ascent multiplier (kScaledAscent).
  double ascent_scale = 10.0;
  /// Seed for the engine's independent stream. Changing it re-rolls the
  /// attack weather without perturbing any training draw.
  uint64_t seed = 0xADCAFE01ull;

  bool Enabled() const { return num_attackers > 0 && attack != AttackType::kNone; }
  bool IsAttacker(int client_index) const {
    return Enabled() && client_index < num_attackers;
  }
};

/// The adversary's server-visible-world model + RNG stream. Owned by
/// FederatedTrainer; coordinating-thread mutation only.
class AdversaryEngine {
 public:
  explicit AdversaryEngine(const AdversaryConfig& config);

  const AdversaryConfig& config() const { return config_; }

  /// Whether the cohort poisons uploads in (1-based) `round`.
  bool ActiveInRound(int round) const {
    return config_.Enabled() && round >= config_.start_round;
  }

  /// Advances the round-keyed collusion state (kMinMax resamples its
  /// shared drift direction). Call once per round, before ForkStream,
  /// on the coordinating thread.
  void BeginRound(int round, size_t param_count);

  /// Forks one per-attacker stream, in canonical selection order, on
  /// the coordinating thread.
  Rng ForkStream() { return rng_.Fork(); }

  /// Rewrites `upload` (the attacker's honest post-training parameters)
  /// in place relative to the round-start `global` model, drawing only
  /// from the pre-forked `rng`. Const: safe to call from worker tasks.
  /// Returns true when the upload was poisoned.
  bool Poison(const std::vector<nn::Scalar>& global,
              std::vector<nn::Scalar>* upload, Rng* rng) const;

  /// Banks the delta norm of one accepted *honest* upload (the
  /// adversary eavesdropping on plausible traffic). Coordinating
  /// thread, canonical order, after each round's fold.
  void ObserveHonestNorm(double norm);

  /// Median of the banked honest norms scaled by 0.9 (kMinMax and
  /// kNormMatched aim just under the honest envelope), or `fallback`
  /// (the attacker's own honest delta norm) before any history exists.
  double TargetNorm(double fallback) const;

  int honest_norm_history() const {
    return static_cast<int>(honest_norms_.size());
  }

  /// Serializes the RNG stream + honest-norm window (for fl/run_state
  /// snapshots). The drift direction is deliberately absent: it is
  /// regenerated by BeginRound from the restored stream.
  std::string SerializeState() const;

  /// Restores SerializeState output. Rejects malformed input without
  /// touching the current state.
  [[nodiscard]] Status DeserializeState(const std::string& bytes);

 private:
  AdversaryConfig config_;
  Rng rng_;
  /// Shared unit-norm collusion direction (kMinMax), resampled per round.
  std::vector<nn::Scalar> drift_;
  /// Accepted honest delta norms.
  RollingWindow honest_norms_{kNormWindow};
};

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_ADVERSARY_H_
