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

// The snapshot's field walks (common/binary_io.h). One history record:
// the round, the four doubles, the two flags, then every kCounters
// per-round column in table order.
template <typename Io, typename Record>
void WalkRoundRecord(Io& io, Record& record) {
  io.U32(record.round);
  io.F64(record.mean_train_loss);
  io.F64(record.global_valid_accuracy);
  io.F64(record.wall_seconds);
  io.F64(record.valid_loss);
  io.Flag(record.quorum_met);
  io.Flag(record.escalated);
  for (const CounterSpec& counter : kCounters) {
    if (counter.per_round) io.I64(record.counts[counter.id]);
  }
}

template <typename Io, typename State>
void WalkRunState(Io& io, State& state) {
  io.Magic(kMagic, "bad run-state magic");
  io.Expect(kVersion, "unsupported run-state version");
  io.U32(state.round);
  io.Check(state.round >= 0, "run-state snapshot: bad round");
  io.String(state.rng_state);
  io.String(state.fault_rng_state);
  io.String(state.net_rng_state);
  io.I64(state.comm.bytes_downlink);
  io.I64(state.comm.bytes_uplink);
  io.I64(state.comm.messages);
  io.I64(state.comm.rounds);
  io.F64(state.faults.simulated_backoff_s);
  for (const CounterSpec& counter : kCounters) {
    if (counter.has_total()) io.I64(state.faults.counts[counter.id]);
  }
  io.String(state.global_params_blob);
  io.Count(state.optimizer_blobs);
  for (auto& blob : state.optimizer_blobs) io.String(blob);
  io.String(state.reputation_blob);
  io.String(state.monitor_blob);
  io.Flag(state.escalated);
  io.String(state.adversary_blob);
  io.String(state.normbound_blob);
  // The history is exactly rounds 1..round, in order.
  io.Count(state.history);
  io.Check(state.history.size() == static_cast<size_t>(state.round),
           "run-state snapshot: history length is not its round");
  for (size_t i = 0; i < state.history.size(); ++i) {
    WalkRoundRecord(io, state.history[i]);
    io.Check(state.history[i].round == static_cast<int>(i) + 1,
             "run-state snapshot: history is not rounds 1..round in order");
  }
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
  std::string out =
      WriteFields([&](FieldWriter& io) { WalkRunState(io, state); });
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
  // Integrity first: nothing is interpreted until the whole-file CRC
  // proves the bytes are exactly what was written. The body is then
  // parsed in place.
  size_t body_len = 0;
  if (!CheckCrc32Trailer(bytes, &body_len).ok()) {
    return Status::InvalidArgument(
        "run-state snapshot failed CRC check (truncated or corrupted)");
  }
  return ReadFields(
      std::string_view(bytes).substr(0, body_len), "run-state snapshot",
      [&](FieldReader& io) { WalkRunState(io, *state); });
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
