#include "fl/reputation.h"

#include <algorithm>
#include <climits>
#include <cstdint>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/finite.h"

namespace lighttr::fl {
namespace {

constexpr uint32_t kBookMagic = 0x4C545250u;  // "LTRP"
constexpr uint32_t kBookVersion = 2;

// EWMA smoothing: score = (1 - kAlpha) * score + kAlpha * event weight.
constexpr double kAlpha = 0.5;
// Event weights, by decreasing severity. When several apply to one
// upload, the maximum wins.
constexpr double kCorruptWeight = 1.0;
constexpr double kRejectedWeight = 0.7;
// Byzantine-aggregator detection (fl/aggregation suspected flag).
// Deliberately above the outlier weight: the EWMA of a repeated
// weight-w event converges to w (see quarantine_threshold).
constexpr double kSuspectWeight = 0.7;
constexpr double kOutlierWeight = 0.5;

// The ledger's field walk (common/binary_io.h): magic, version, the
// client count (it must be this book's), then per client the score, the
// quarantine flag, its age and the four event counts.
template <typename Io, typename Clients>
void WalkLedger(Io& io, Clients& clients) {
  io.Expect(kBookMagic, "reputation blob: bad magic");
  io.Expect(kBookVersion, "reputation blob: unknown version");
  io.Expect(static_cast<uint64_t>(clients.size()),
            "reputation blob: client count does not match this book's:");
  for (auto& c : clients) {
    io.F64(c.score);
    io.Flag(c.quarantined);
    io.Check(IsFinite(c.score), "reputation blob: non-finite score");
    for (auto* count : {&c.quarantine_age, &c.corrupt_events,
                        &c.rejected_events, &c.outlier_events,
                        &c.suspect_events}) {
      io.U32(*count);
      // Tick and Observe increment these: INT_MAX would overflow.
      io.Check(*count >= 0 && *count < INT_MAX,
               "reputation blob: count out of range");
    }
    // Only a quarantined client serves time; Tick resets it on parole.
    io.Check(c.quarantined || c.quarantine_age == 0,
             "reputation blob: quarantine age on a free client");
  }
}

}  // namespace

ReputationBook::ReputationBook(int num_clients, ReputationConfig config)
    : config_(config) {
  LIGHTTR_CHECK_GE(num_clients, 0);
  LIGHTTR_CHECK_GT(config_.quarantine_threshold, 0.0);
  LIGHTTR_CHECK_GT(config_.parole_rounds, 0);
  clients_.resize(static_cast<size_t>(num_clients));
}

const ClientReputation& ReputationBook::client(int index) const {
  LIGHTTR_CHECK_GE(index, 0);
  LIGHTTR_CHECK_LT(index, num_clients());
  return clients_[static_cast<size_t>(index)];
}

int ReputationBook::QuarantinedCount() const {
  int count = 0;
  for (const ClientReputation& c : clients_) {
    if (c.quarantined) ++count;
  }
  return count;
}

bool ReputationBook::Observe(int index, bool corrupt, bool rejected,
                             bool outlier, bool suspected) {
  LIGHTTR_CHECK_GE(index, 0);
  LIGHTTR_CHECK_LT(index, num_clients());
  ClientReputation& c = clients_[static_cast<size_t>(index)];
  double weight = 0.0;
  if (corrupt) {
    ++c.corrupt_events;
    weight = std::max(weight, kCorruptWeight);
  }
  if (rejected) {
    ++c.rejected_events;
    weight = std::max(weight, kRejectedWeight);
  }
  if (suspected) {
    ++c.suspect_events;
    weight = std::max(weight, kSuspectWeight);
  }
  if (outlier) {
    ++c.outlier_events;
    weight = std::max(weight, kOutlierWeight);
  }
  c.score = (1.0 - kAlpha) * c.score + kAlpha * weight;
  if (!c.quarantined && c.score >= config_.quarantine_threshold) {
    c.quarantined = true;
    c.quarantine_age = 0;
    return true;
  }
  return false;
}

int ReputationBook::Tick() {
  int paroled = 0;
  for (ClientReputation& c : clients_) {
    if (!c.quarantined) continue;
    ++c.quarantine_age;
    if (c.quarantine_age >= config_.parole_rounds) {
      c.quarantined = false;
      c.quarantine_age = 0;
      // Parole is probation, not absolution: re-enter at half the
      // threshold so one more offence re-quarantines immediately.
      c.score = 0.5 * config_.quarantine_threshold;
      ++paroled;
    }
  }
  return paroled;
}

std::string ReputationBook::Serialize() const {
  return WriteFields([&](FieldWriter& io) { WalkLedger(io, clients_); });
}

Status ReputationBook::Deserialize(const std::string& bytes) {
  std::vector<ClientReputation> restored(clients_.size());
  LIGHTTR_RETURN_NOT_OK(ReadFields(
      bytes, "reputation blob",
      [&](FieldReader& io) { WalkLedger(io, restored); }));
  clients_ = std::move(restored);
  return Status::Ok();
}

}  // namespace lighttr::fl
