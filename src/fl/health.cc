#include "fl/health.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/finite.h"

namespace lighttr::fl {
namespace {

// Monitor state blob: magic + version so a run_state snapshot that
// embeds it can evolve independently of the snapshot container.
constexpr uint32_t kMonitorMagic = 0x4C54484Du;  // "LTHM"
constexpr uint32_t kMonitorVersion = 1;

// Detector thresholds, deliberately loose: a self-healing layer that
// cries wolf (rolls back healthy rounds) costs more than one that waits
// a round longer to be sure.
//
// Outlier detection stays silent until this many norms are banked.
constexpr size_t kMinNormHistory = 8;
// An upload is an outlier when norm > median + this multiple of the MAD
// (with a relative floor so a zero-MAD window cannot flag everything).
constexpr double kNormOutlierMult = 8.0;
// Rolling window of per-round validation losses (non-diverged rounds).
constexpr size_t kLossWindow = 16;
// Spike detection stays silent until this many losses are banked
// (non-finite losses diverge regardless of history).
constexpr size_t kMinLossHistory = 3;
// A round diverged when loss > median + this multiple of max(MAD, floor).
constexpr double kLossSpikeMult = 10.0;
// MAD floor, as a fraction of max(1, |median|): guards the common
// early-training case where the banked losses are nearly identical and
// the raw MAD is ~0.
constexpr double kLossMadFloor = 0.25;

// The monitor's field walk (common/binary_io.h): magic, version, then
// the norm and the loss window.
template <typename Io, typename Window>
void WalkMonitor(Io& io, Window& norms, Window& losses) {
  io.Expect(kMonitorMagic, "health monitor blob: bad magic");
  io.Expect(kMonitorVersion, "health monitor blob: unknown version");
  RollingWindow::Walk(io, norms);
  RollingWindow::Walk(io, losses);
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n % 2 == 1) return values[n / 2];
  return 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double MedianAbsDeviation(const std::vector<double>& values, double center) {
  if (values.empty()) return 0.0;
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::fabs(v - center));
  return Median(std::move(deviations));
}

RollingWindow::RollingWindow(size_t capacity) : capacity_(capacity) {
  LIGHTTR_CHECK_GT(capacity, size_t{0});
}

void RollingWindow::Push(double value) {
  if (values_.size() == capacity_) values_.erase(values_.begin());
  values_.push_back(value);
}

double RollingWindow::Median() const { return fl::Median(values_); }

double RollingWindow::MedianAbsDeviation(double center) const {
  return fl::MedianAbsDeviation(values_, center);
}

void RollingWindow::Write(BinaryWriter* writer) const {
  FieldWriter io(writer);
  Walk(io, *this);
}

Status RollingWindow::Read(BinaryReader* reader) {
  RollingWindow restored(capacity_);
  FieldReader io(reader);
  Walk(io, restored);
  if (io.ok()) *this = std::move(restored);
  return io.status();
}

RoundHealthMonitor::RoundHealthMonitor()
    : norm_window_(kNormWindow), loss_window_(kLossWindow) {}

RoundHealthReport RoundHealthMonitor::Judge(
    std::vector<UpdateObservation>* observations,
    const std::vector<nn::Scalar>& global_params, double valid_loss) {
  LIGHTTR_CHECK(observations != nullptr);
  RoundHealthReport report;

  // (b) Norm outliers, judged against the window *before* this round is
  // admitted so one coordinated burst cannot vouch for itself.
  const bool norms_armed = norm_window_.size() >= kMinNormHistory;
  if (norms_armed) {
    report.norm_median = norm_window_.Median();
    report.norm_mad = norm_window_.MedianAbsDeviation(report.norm_median);
  }
  const double norm_spread =
      std::max(report.norm_mad,
               1e-3 * std::max(1.0, std::fabs(report.norm_median)));
  const double norm_bound =
      report.norm_median + kNormOutlierMult * norm_spread;
  for (UpdateObservation& obs : *observations) {
    if (obs.corrupt) ++report.corrupt_uploads;
    if (obs.norm_rejected) ++report.rejected_uploads;
    if (obs.suspected) ++report.suspected_uploads;
    if (!obs.accepted) continue;
    if (!IsFinite(obs.delta_norm)) {
      // Should have been screened out upstream; treat as corrupt.
      obs.corrupt = true;
      obs.accepted = false;
      ++report.corrupt_uploads;
      continue;
    }
    if (norms_armed && obs.delta_norm > norm_bound) {
      obs.outlier = true;
      ++report.outlier_uploads;
      continue;  // outlier norms are not admitted to the window
    }
    // A Byzantine-aggregator suspect may have slipped under the MAD
    // envelope by construction (norm-matched poison): never let it
    // teach the very window it is trying to blend into.
    if (obs.suspected) continue;
    norm_window_.Push(obs.delta_norm);
  }

  // (a) Non-finite scan of the post-aggregation global model: the
  // hardest divergence signal there is, independent of any history.
  report.global_nonfinite = !AllFinite(global_params);
  report.loss_nonfinite = !IsFinite(valid_loss);

  // (c) Validation-loss spike vs the rolling median + MAD envelope of
  // past non-diverged rounds.
  if (!report.loss_nonfinite && loss_window_.size() >= kMinLossHistory) {
    report.loss_median = loss_window_.Median();
    report.loss_mad = loss_window_.MedianAbsDeviation(report.loss_median);
    const double spread =
        std::max(report.loss_mad,
                 kLossMadFloor * std::max(1.0, std::fabs(report.loss_median)));
    if (valid_loss > report.loss_median + kLossSpikeMult * spread) {
      report.loss_spike = true;
    }
  }

  if (report.global_nonfinite || report.loss_nonfinite || report.loss_spike) {
    report.verdict = HealthVerdict::kDiverged;
  } else if (report.corrupt_uploads > 0 || report.rejected_uploads > 0 ||
             report.outlier_uploads > 0 || report.suspected_uploads > 0) {
    report.verdict = HealthVerdict::kSuspect;
  } else {
    report.verdict = HealthVerdict::kHealthy;
  }

  // Only non-diverged rounds teach the loss envelope: a diverged round
  // is about to be rolled back, so its loss never happened.
  if (report.verdict != HealthVerdict::kDiverged) {
    loss_window_.Push(valid_loss);
  }
  return report;
}

std::string RoundHealthMonitor::SerializeState() const {
  return WriteFields([&](FieldWriter& io) {
    WalkMonitor(io, norm_window_, loss_window_);
  });
}

Status RoundHealthMonitor::DeserializeState(const std::string& bytes) {
  RoundHealthMonitor restored;
  LIGHTTR_RETURN_NOT_OK(
      ReadFields(bytes, "health monitor blob", [&](FieldReader& io) {
        WalkMonitor(io, restored.norm_window_, restored.loss_window_);
      }));
  *this = std::move(restored);
  return Status::Ok();
}

}  // namespace lighttr::fl
