// Round health monitoring for the self-healing federated loop.
//
// Screening (fl/aggregation) protects a single round from a single bad
// upload; nothing before this module watched the *trajectory* of the
// run. RoundHealthMonitor turns each completed round into a verdict:
//
//   kHealthy  — nothing suspicious; the round may serve as a rollback
//               anchor.
//   kSuspect  — corrupt / rejected / norm-outlier uploads were seen but
//               the global model and validation loss look sane (the
//               screening + aggregation layers absorbed the damage).
//   kDiverged — the global model is numerically broken or the
//               validation loss blew past the rolling median + MAD
//               envelope; the trainer must roll back and escalate.
//
// Three detectors feed the verdict:
//   (a) non-finite scans of the screened upload outcomes and of the
//       post-aggregation global model (common/finite helpers);
//   (b) update-delta-norm outlier detection against a rolling window
//       (norm > median + k * MAD flags the upload, not the round);
//   (c) validation-loss spike detection against a rolling median + MAD
//       of past healthy rounds.
//
// Everything is a pure function of the observation sequence, so
// verdicts are bitwise identical across thread widths, and the window
// state serializes into fl/run_state snapshots so a resumed or
// rolled-back run re-judges identically.
#ifndef LIGHTTR_FL_HEALTH_H_
#define LIGHTTR_FL_HEALTH_H_

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "common/finite.h"
#include "common/status.h"
#include "nn/arena.h"

namespace lighttr::fl {

/// Size of every rolling window of accepted update delta norms: the
/// monitor's outlier envelope, the kNormBound clip bound and the
/// adversary's model of honest traffic, so the attacker mimics exactly
/// the history the defense judges against.
constexpr size_t kNormWindow = 64;

/// The last `capacity` values pushed, oldest first: the history behind
/// every median + MAD envelope of the defense layer. Every window holds
/// update norms or validation losses, so a restored one must be finite
/// and non-negative. Call sites decide what they admit.
class RollingWindow {
 public:
  /// `capacity` >= 1.
  explicit RollingWindow(size_t capacity);

  /// Appends `value`, dropping the oldest once past capacity.
  void Push(double value);

  size_t size() const { return values_.size(); }
  double Median() const;
  double MedianAbsDeviation(double center) const;

  /// The window's field walk (common/binary_io.h): u64 count + the
  /// values, oldest first. Decoding rejects a count above capacity and
  /// any non-finite or negative entry.
  template <typename Io, typename Window>
  static void Walk(Io& io, Window& window) {
    io.Vector(window.values_, window.capacity_);
    io.Check(std::all_of(window.values_.begin(), window.values_.end(),
                         [](double v) { return IsFinite(v) && v >= 0.0; }),
             "rolling window: entry is not a finite non-negative value");
  }

  /// Walk into `writer`.
  void Write(BinaryWriter* writer) const;
  /// Walk from `reader`; a rejected blob leaves the window untouched.
  [[nodiscard]] Status Read(BinaryReader* reader);

 private:
  size_t capacity_;
  std::vector<double> values_;
};

/// Per-round health verdict, ordered by severity.
enum class HealthVerdict {
  kHealthy = 0,
  kSuspect = 1,
  kDiverged = 2,
};

/// One screened upload outcome, in canonical selection order. The
/// trainer fills everything except `outlier`; Judge sets `outlier` for
/// accepted uploads whose delta norm escapes the rolling envelope.
/// `suspected` is set by the trainer from the Byzantine aggregator's
/// per-upload verdict (fl/aggregation) before Judge runs.
struct UpdateObservation {
  int client_index = -1;
  bool corrupt = false;        // screen-rejected: non-finite scalars
  bool norm_rejected = false;  // screen-rejected: delta-norm bound
  bool accepted = false;       // entered aggregation
  double delta_norm = 0.0;     // L2 delta vs global; valid when accepted
  bool outlier = false;        // set by Judge
  bool suspected = false;      // Byzantine-aggregator poison flag
};

/// Everything Judge decided about one round, for telemetry and tests.
struct RoundHealthReport {
  HealthVerdict verdict = HealthVerdict::kHealthy;
  bool global_nonfinite = false;  // post-aggregation model has NaN/Inf
  bool loss_nonfinite = false;
  bool loss_spike = false;
  int corrupt_uploads = 0;
  int rejected_uploads = 0;
  int outlier_uploads = 0;
  int suspected_uploads = 0;
  // The envelopes the round was judged against (0 until enough history).
  double norm_median = 0.0;
  double norm_mad = 0.0;
  double loss_median = 0.0;
  double loss_mad = 0.0;
};

/// Rolling-window health judge. Not thread-safe; the trainer calls it
/// once per round from the coordinating thread.
class RoundHealthMonitor {
 public:
  RoundHealthMonitor();

  /// Judges one completed round. `observations` must be in canonical
  /// selection order (part of the determinism contract); Judge flags
  /// norm outliers in place. `global_params` is the post-aggregation
  /// global model, `valid_loss` its validation loss. Window mutation is
  /// verdict-aware: accepted non-outlier norms are always banked, the
  /// loss only when the round did not diverge (a diverged round is
  /// about to be rolled back and must not poison the envelope).
  RoundHealthReport Judge(std::vector<UpdateObservation>* observations,
                          const std::vector<nn::Scalar>& global_params,
                          double valid_loss);

  /// Banked history sizes (for tests and telemetry).
  int norm_history() const { return static_cast<int>(norm_window_.size()); }
  int loss_history() const { return static_cast<int>(loss_window_.size()); }

  /// Serializes the rolling windows (for fl/run_state snapshots).
  std::string SerializeState() const;

  /// Restores SerializeState output. Rejects malformed input without
  /// touching the current state.
  [[nodiscard]] Status DeserializeState(const std::string& bytes);

 private:
  RollingWindow norm_window_;
  RollingWindow loss_window_;
};

/// Median of `values` (by copy+sort: deterministic, O(n log n)).
/// Returns 0 for an empty input.
double Median(std::vector<double> values);

/// Median absolute deviation around `center`. Returns 0 when empty.
double MedianAbsDeviation(const std::vector<double>& values, double center);

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_HEALTH_H_
