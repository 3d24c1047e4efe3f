// Per-client reputation and quarantine for the self-healing loop.
//
// The health monitor (fl/health) judges rounds; this module remembers
// *who* caused trouble. Every screened upload outcome becomes an
// observation: corrupt (non-finite scalars), norm-rejected, or
// norm-outlier events raise a client's EWMA misbehaviour score, clean
// reports decay it. A client whose score crosses the quarantine
// threshold is excluded from future cohorts until it has sat out a
// parole period, after which it re-enters with a halved score — one
// more offence sends it straight back.
//
// The book lives on the coordinating thread and is a pure function of
// the observation sequence, so quarantine decisions are bitwise
// deterministic across thread widths. It serializes into fl/run_state
// snapshots so a resumed run remembers its offenders. Rollback,
// deliberately, does NOT restore the book: the whole point of rolling
// back is to replay the round with the offenders remembered.
#ifndef LIGHTTR_FL_REPUTATION_H_
#define LIGHTTR_FL_REPUTATION_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace lighttr::fl {

/// Quarantine thresholds. Each observation updates the EWMA
/// score = 0.5 * score + 0.5 * weight, where the weight is the most
/// severe event on the upload: corrupt 1.0, rejected 0.7, suspected
/// 0.7, outlier 0.5, none 0 (constants in reputation.cc).
struct ReputationConfig {
  /// Quarantine when score reaches this value. Two corrupt uploads in a
  /// row cross the default 0.6; outlier-only offenders, whose score
  /// converges to 0.5, never do, while a suspected poisoner crosses it
  /// on its third straight flag.
  double quarantine_threshold = 0.6;
  /// Rounds a quarantined client sits out before parole.
  int parole_rounds = 4;
};

/// One client's standing.
struct ClientReputation {
  double score = 0.0;
  bool quarantined = false;
  /// Rounds served in quarantine so far (valid while quarantined).
  int quarantine_age = 0;
  // Lifetime event counts, for telemetry.
  int corrupt_events = 0;
  int rejected_events = 0;
  int outlier_events = 0;
  int suspect_events = 0;
};

/// The server's ledger over all clients. Not thread-safe; coordinator
/// use only.
class ReputationBook {
 public:
  ReputationBook(int num_clients, ReputationConfig config);

  const ReputationConfig& config() const { return config_; }
  int num_clients() const { return static_cast<int>(clients_.size()); }
  const ClientReputation& client(int index) const;

  bool IsQuarantined(int index) const { return client(index).quarantined; }
  int QuarantinedCount() const;

  /// Records one upload outcome for `index` and updates its EWMA score.
  /// Crossing the threshold quarantines the client; returns true
  /// exactly when this observation triggered that transition.
  /// `suspected` marks a Byzantine-aggregator detection (the upload was
  /// screened-finite and norm-plausible yet flagged as probable poison).
  bool Observe(int index, bool corrupt, bool rejected, bool outlier,
               bool suspected = false);

  /// Advances every quarantined client's clock by one round and paroles
  /// those that served `parole_rounds`, re-admitting them with score
  /// threshold/2. Returns the number of clients paroled. Call once per
  /// completed (non-rolled-back) round.
  int Tick();

  /// Serializes the ledger (for fl/run_state snapshots).
  std::string Serialize() const;

  /// Restores Serialize output. Rejects malformed input (including a
  /// client count that disagrees with this book's) without touching
  /// the current state.
  [[nodiscard]] Status Deserialize(const std::string& bytes);

 private:
  ReputationConfig config_;
  std::vector<ClientReputation> clients_;
};

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_REPUTATION_H_
