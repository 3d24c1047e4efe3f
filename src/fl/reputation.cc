#include "fl/reputation.h"

#include <algorithm>
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
  BinaryWriter writer;
  writer.WriteU32(kBookMagic);
  writer.WriteU32(kBookVersion);
  writer.WriteU64(clients_.size());
  for (const ClientReputation& c : clients_) {
    writer.WriteF64(c.score);
    writer.WriteU8(c.quarantined ? 1 : 0);
    writer.WriteU32(static_cast<uint32_t>(c.quarantine_age));
    writer.WriteU32(static_cast<uint32_t>(c.corrupt_events));
    writer.WriteU32(static_cast<uint32_t>(c.rejected_events));
    writer.WriteU32(static_cast<uint32_t>(c.outlier_events));
    writer.WriteU32(static_cast<uint32_t>(c.suspect_events));
  }
  return writer.Take();
}

Status ReputationBook::Deserialize(const std::string& bytes) {
  BinaryReader reader(bytes);
  uint32_t magic = 0;
  uint32_t version = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&magic));
  if (magic != kBookMagic) {
    return Status::InvalidArgument("reputation blob: bad magic");
  }
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version != kBookVersion) {
    return Status::InvalidArgument("reputation blob: unknown version " +
                                   std::to_string(version));
  }
  uint64_t count = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU64(&count));
  if (count != clients_.size()) {
    return Status::InvalidArgument(
        "reputation blob: client count " + std::to_string(count) +
        " does not match configured " + std::to_string(clients_.size()));
  }
  std::vector<ClientReputation> restored(static_cast<size_t>(count));
  for (ClientReputation& c : restored) {
    uint8_t quarantined = 0;
    uint32_t age = 0, corrupt = 0, rejected = 0, outlier = 0, suspect = 0;
    LIGHTTR_RETURN_NOT_OK(reader.ReadF64(&c.score));
    LIGHTTR_RETURN_NOT_OK(reader.ReadU8(&quarantined));
    LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&age));
    LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&corrupt));
    LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&rejected));
    LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&outlier));
    LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&suspect));
    if (!IsFinite(c.score) || quarantined > 1) {
      return Status::InvalidArgument("reputation blob: corrupt client entry");
    }
    c.quarantined = quarantined != 0;
    c.quarantine_age = static_cast<int>(age);
    c.corrupt_events = static_cast<int>(corrupt);
    c.rejected_events = static_cast<int>(rejected);
    c.outlier_events = static_cast<int>(outlier);
    c.suspect_events = static_cast<int>(suspect);
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("reputation blob: trailing bytes");
  }
  clients_ = std::move(restored);
  return Status::Ok();
}

}  // namespace lighttr::fl
