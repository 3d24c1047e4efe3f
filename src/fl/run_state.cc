#include "fl/run_state.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/env.h"
#include "common/parse_number.h"

namespace lighttr::fl {

namespace {

constexpr char kMagic[4] = {'L', 'T', 'R', 'S'};
// The one readable layout. Any incompatible change (including adding,
// removing, or reordering a kCounters row) bumps it; older snapshots
// are then rejected rather than half-read.
constexpr uint32_t kVersion = 8;
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".ltrs";

// A boolean stored as one byte that must be exactly 0 or 1.
Status ReadFlag(BinaryReader* reader, const char* name, bool* out) {
  uint8_t byte = 0;
  LIGHTTR_RETURN_NOT_OK(reader->ReadU8(&byte));
  if (byte > 1) {
    return Status::InvalidArgument(std::string("run-state snapshot: bad ") +
                                   name + " flag");
  }
  *out = byte != 0;
  return Status::Ok();
}

// One history record: the round, the four doubles, the two flags, then
// every kCounters per-round column in table order.
void WriteRoundRecord(const RoundRecord& record, BinaryWriter* writer) {
  writer->WriteU32(static_cast<uint32_t>(record.round));
  writer->WriteF64(record.mean_train_loss);
  writer->WriteF64(record.global_valid_accuracy);
  writer->WriteF64(record.wall_seconds);
  writer->WriteF64(record.valid_loss);
  writer->WriteU8(record.quorum_met ? 1 : 0);
  writer->WriteU8(record.escalated ? 1 : 0);
  for (const CounterSpec& counter : kCounters) {
    if (counter.per_round) writer->WriteI64(record[counter.id]);
  }
}

Status ReadRoundRecord(BinaryReader* reader, RoundRecord* record) {
  uint32_t round = 0;
  LIGHTTR_RETURN_NOT_OK(reader->ReadU32(&round));
  record->round = static_cast<int>(round);  // the caller checks its value
  LIGHTTR_RETURN_NOT_OK(reader->ReadF64(&record->mean_train_loss));
  LIGHTTR_RETURN_NOT_OK(reader->ReadF64(&record->global_valid_accuracy));
  LIGHTTR_RETURN_NOT_OK(reader->ReadF64(&record->wall_seconds));
  LIGHTTR_RETURN_NOT_OK(reader->ReadF64(&record->valid_loss));
  LIGHTTR_RETURN_NOT_OK(ReadFlag(reader, "quorum", &record->quorum_met));
  LIGHTTR_RETURN_NOT_OK(ReadFlag(reader, "escalation", &record->escalated));
  for (const CounterSpec& counter : kCounters) {
    if (!counter.per_round) continue;
    int64_t value = 0;
    LIGHTTR_RETURN_NOT_OK(reader->ReadI64(&value));
    if (value < INT_MIN || value > INT_MAX) {
      return Status::InvalidArgument(std::string("run-state snapshot: ") +
                                     counter.name + " out of range");
    }
    (*record)[counter.id] = static_cast<int>(value);
  }
  return Status::Ok();
}

std::string SnapshotFileName(int round) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06d%s", kSnapshotPrefix, round,
                kSnapshotSuffix);
  return name;
}

/// Parent directory of `path` ("" when there is none to create).
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos || slash == 0) return std::string();
  return path.substr(0, slash);
}

}  // namespace

const char* CrashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kNone: return "none";
    case CrashPoint::kBeforeSave: return "before-save";
    case CrashPoint::kMidSave: return "mid-save";
    case CrashPoint::kAfterSave: return "after-save";
    case CrashPoint::kMidRound: return "mid-round";
  }
  return "unknown";
}

void MaybeInjectCrash(const DurabilityConfig& config, CrashPoint point,
                      int round) {
  if (config.crash_point == point && config.crash_round == round &&
      point != CrashPoint::kNone) {
    throw InjectedCrash{point, round};
  }
}

std::string EncodeRunState(const ServerRunState& state) {
  BinaryWriter writer;
  writer.WriteBytes(kMagic, sizeof(kMagic));
  writer.WriteU32(kVersion);
  writer.WriteU32(static_cast<uint32_t>(state.round));
  writer.WriteString(state.rng_state);
  writer.WriteString(state.fault_rng_state);
  writer.WriteString(state.net_rng_state);
  writer.WriteI64(state.comm.bytes_downlink);
  writer.WriteI64(state.comm.bytes_uplink);
  writer.WriteI64(state.comm.messages);
  writer.WriteI64(state.comm.rounds);
  writer.WriteF64(state.faults.simulated_backoff_s);
  for (const CounterSpec& counter : kCounters) {
    if (counter.has_total()) writer.WriteI64(state.faults[counter.id]);
  }
  writer.WriteString(state.global_params_blob);
  writer.WriteU32(static_cast<uint32_t>(state.optimizer_blobs.size()));
  for (const std::string& blob : state.optimizer_blobs) {
    writer.WriteString(blob);
  }
  writer.WriteString(state.reputation_blob);
  writer.WriteString(state.monitor_blob);
  writer.WriteU8(state.escalated ? 1 : 0);
  writer.WriteString(state.adversary_blob);
  writer.WriteString(state.normbound_blob);
  writer.WriteU32(static_cast<uint32_t>(state.history.size()));
  for (const RoundRecord& record : state.history) {
    WriteRoundRecord(record, &writer);
  }
  std::string out = writer.Take();
  AppendCrc32Trailer(&out);
  return out;
}

std::string TelemetryBytes(const FederatedRunResult& run) {
  ServerRunState state;
  state.round = static_cast<int>(run.history.size());
  state.comm = run.comm;
  state.faults = run.faults;
  state.history = run.history;
  for (RoundRecord& record : state.history) record.wall_seconds = 0.0;
  return EncodeRunState(state);
}

Status DecodeRunState(const std::string& bytes, ServerRunState* state) {
  LIGHTTR_CHECK(state != nullptr);
  if (bytes.size() < sizeof(kMagic) + sizeof(uint32_t)) {
    return Status::InvalidArgument("run-state snapshot too short");
  }
  // Integrity first: nothing is interpreted until the whole-file CRC
  // proves the bytes are exactly what was written.
  size_t body_len = 0;
  if (!CheckCrc32Trailer(bytes, &body_len).ok()) {
    return Status::InvalidArgument(
        "run-state snapshot failed CRC check (truncated or corrupted)");
  }
  const std::string body = bytes.substr(0, body_len);

  BinaryReader reader(body);
  char magic[4];
  LIGHTTR_RETURN_NOT_OK(reader.ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad run-state magic");
  }
  uint32_t version = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported run-state version " +
                                   std::to_string(version));
  }
  uint32_t round = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&round));
  if (round > INT_MAX) {
    return Status::InvalidArgument("run-state snapshot: bad round");
  }
  state->round = static_cast<int>(round);
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->rng_state));
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->fault_rng_state));
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->net_rng_state));
  LIGHTTR_RETURN_NOT_OK(reader.ReadI64(&state->comm.bytes_downlink));
  LIGHTTR_RETURN_NOT_OK(reader.ReadI64(&state->comm.bytes_uplink));
  LIGHTTR_RETURN_NOT_OK(reader.ReadI64(&state->comm.messages));
  LIGHTTR_RETURN_NOT_OK(reader.ReadI64(&state->comm.rounds));
  LIGHTTR_RETURN_NOT_OK(reader.ReadF64(&state->faults.simulated_backoff_s));
  for (const CounterSpec& counter : kCounters) {
    if (counter.has_total()) {
      LIGHTTR_RETURN_NOT_OK(reader.ReadI64(&state->faults[counter.id]));
    }
  }
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->global_params_blob));
  uint32_t opt_count = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&opt_count));
  state->optimizer_blobs.clear();
  for (uint32_t i = 0; i < opt_count; ++i) {
    std::string blob;
    LIGHTTR_RETURN_NOT_OK(reader.ReadString(&blob));
    state->optimizer_blobs.push_back(std::move(blob));
  }
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->reputation_blob));
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->monitor_blob));
  LIGHTTR_RETURN_NOT_OK(ReadFlag(&reader, "escalation", &state->escalated));
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->adversary_blob));
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->normbound_blob));
  // The history is exactly rounds 1..round, in order. Records are read
  // one at a time (never sized from the stored count), so a hostile
  // count fails on truncation instead of allocating.
  uint32_t count = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&count));
  if (count != round) {
    return Status::InvalidArgument(
        "run-state snapshot: " + std::to_string(count) +
        " history records for round " + std::to_string(round));
  }
  state->history.clear();
  for (int expected = 1; expected <= state->round; ++expected) {
    RoundRecord record;
    LIGHTTR_RETURN_NOT_OK(ReadRoundRecord(&reader, &record));
    if (record.round != expected) {
      return Status::InvalidArgument(
          "run-state snapshot: history record " + std::to_string(expected) +
          " holds round " + std::to_string(record.round));
    }
    state->history.push_back(record);
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in run-state snapshot");
  }
  return Status::Ok();
}

Status SaveRunState(FileSystem* fs, const std::string& path,
                    const ServerRunState& state) {
  LIGHTTR_CHECK(fs != nullptr);
  const std::string parent = ParentDir(path);
  if (!parent.empty()) {
    Status created = fs->CreateDirs(parent);
    if (!created.ok()) {
      return Status::IoError("cannot create snapshot directory " + parent +
                             ": " + created.message());
    }
  }
  return fs->WriteFileAtomic(path, EncodeRunState(state));
}

Result<ServerRunState> LoadRunState(FileSystem* fs, const std::string& path) {
  LIGHTTR_CHECK(fs != nullptr);
  Result<std::string> contents = fs->ReadFile(path);
  if (!contents.ok()) return contents.status();
  ServerRunState state;
  LIGHTTR_RETURN_NOT_OK(DecodeRunState(contents.value(), &state));
  return state;
}

std::string SnapshotPath(const std::string& dir, int round) {
  return dir + "/" + SnapshotFileName(round);
}

Result<std::vector<int>> ListSnapshotRounds(FileSystem* fs,
                                            const std::string& dir) {
  LIGHTTR_CHECK(fs != nullptr);
  Result<std::vector<std::string>> names = fs->ListDir(dir);
  if (!names.ok()) {
    if (names.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no snapshot directory at " + dir);
    }
    return names.status();
  }
  std::vector<int> rounds;
  const size_t prefix_len = std::strlen(kSnapshotPrefix);
  for (const std::string& name : names.value()) {
    if (name.compare(0, prefix_len, kSnapshotPrefix) != 0) continue;
    const size_t digits_end = name.find_first_not_of("0123456789", prefix_len);
    uint64_t round = 0;
    // Only the exact name SnapshotPath writes counts: anything else
    // (in-flight "*.ltrs.tmp" partials, "snapshot-12.ltrs") is not ours,
    // and PruneSnapshots must never delete a real snapshot on its behalf.
    if (!ParseNumber(name.substr(prefix_len, digits_end - prefix_len),
                     &round) ||
        round == 0 || round > INT_MAX ||
        name != SnapshotFileName(static_cast<int>(round))) {
      continue;
    }
    rounds.push_back(static_cast<int>(round));
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds;
}

void PruneSnapshots(FileSystem* fs, const std::string& dir, int keep) {
  LIGHTTR_CHECK(fs != nullptr);
  Result<std::vector<int>> rounds = ListSnapshotRounds(fs, dir);
  if (!rounds.ok()) return;  // nothing to prune
  const std::vector<int>& all = rounds.value();
  if (static_cast<int>(all.size()) <= keep) return;
  for (size_t i = 0; i + static_cast<size_t>(keep) < all.size(); ++i) {
    (void)fs->Remove(SnapshotPath(dir, all[i]));  // best-effort pruning
  }
}

}  // namespace lighttr::fl
