#include "fl/run_state.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/env.h"

namespace lighttr::fl {

namespace {

constexpr char kMagic[4] = {'L', 'T', 'R', 'S'};
// The one readable layout. Any incompatible change (including adding,
// removing, or reordering a kCounters row) bumps it; older snapshots
// are then rejected rather than half-read.
constexpr uint32_t kVersion = 6;
constexpr char kJournalName[] = "journal.log";
constexpr char kSnapshotPrefix[] = "snapshot-";
constexpr char kSnapshotSuffix[] = ".ltrs";
// Journal columns ahead of the kCounters columns: round, the four
// doubles, and the two flags.
constexpr size_t kJournalFixedFields = 7;

std::string JournalPath(const std::string& dir) {
  return dir + "/" + kJournalName;
}

size_t JournalFieldCount() {
  size_t fields = kJournalFixedFields;
  for (const CounterSpec& counter : kCounters) {
    if (counter.round != nullptr) ++fields;
  }
  return fields;
}

// One journal line: the fixed fields, then every kCounters per-round
// column in table order, then the CRC-32 (8 hex digits) of everything
// before the final space. Doubles use %.17g so the text round-trips
// bit-exactly. The line is framed by newlines on both sides: even when
// the previous append was torn mid-line, this record starts on a fresh
// line of its own (blank lines are skipped on replay).
std::string FormatJournalLine(const RoundRecord& r) {
  char fixed[160];
  std::snprintf(fixed, sizeof(fixed), "%d %.17g %.17g %.17g %.17g %d %d",
                r.round, r.mean_train_loss, r.global_valid_accuracy,
                r.wall_seconds, r.valid_loss, r.quorum_met ? 1 : 0,
                r.escalated ? 1 : 0);
  std::string body = fixed;
  for (const CounterSpec& counter : kCounters) {
    if (counter.round == nullptr) continue;
    body += ' ';
    body += std::to_string(r.*counter.round);
  }
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32(body));
  return "\n" + body + " " + crc + "\n";
}

bool ParseJournalLine(const std::string& line, RoundRecord* out) {
  const size_t last_space = line.rfind(' ');
  if (last_space == std::string::npos) return false;
  const std::string body = line.substr(0, last_space);
  const std::string crc_text = line.substr(last_space + 1);
  if (crc_text.size() != 8) return false;
  char* end = nullptr;
  const unsigned long crc_claim = std::strtoul(crc_text.c_str(), &end, 16);
  if (end != crc_text.c_str() + crc_text.size()) return false;
  if (static_cast<uint32_t>(crc_claim) != Crc32(body)) return false;

  std::istringstream tokens(body);
  std::vector<std::string> field;
  std::string token;
  while (tokens >> token) field.push_back(token);
  if (field.size() != JournalFieldCount()) return false;

  auto to_int = [](const std::string& s, int* v) {
    char* e = nullptr;
    const long long parsed = std::strtoll(s.c_str(), &e, 10);
    if (e != s.c_str() + s.size()) return false;
    *v = static_cast<int>(parsed);
    return true;
  };
  auto to_double = [](const std::string& s, double* v) {
    char* e = nullptr;
    *v = std::strtod(s.c_str(), &e);
    return e == s.c_str() + s.size();
  };
  int quorum = 0;
  int escalated = 0;
  if (!to_int(field[0], &out->round) ||
      !to_double(field[1], &out->mean_train_loss) ||
      !to_double(field[2], &out->global_valid_accuracy) ||
      !to_double(field[3], &out->wall_seconds) ||
      !to_double(field[4], &out->valid_loss) || !to_int(field[5], &quorum) ||
      !to_int(field[6], &escalated)) {
    return false;
  }
  out->quorum_met = quorum != 0;
  out->escalated = escalated != 0;
  size_t next = kJournalFixedFields;
  for (const CounterSpec& counter : kCounters) {
    if (counter.round == nullptr) continue;
    if (!to_int(field[next++], &(out->*counter.round))) return false;
  }
  return true;
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
    if (counter.total != nullptr) {
      writer.WriteI64(state.faults.*counter.total);
    }
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
  std::string out = writer.Take();
  AppendCrc32Trailer(&out);
  return out;
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
    if (counter.total != nullptr) {
      LIGHTTR_RETURN_NOT_OK(reader.ReadI64(&(state->faults.*counter.total)));
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
  uint8_t escalated = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU8(&escalated));
  if (escalated > 1) {
    return Status::InvalidArgument("run-state snapshot: bad escalation flag");
  }
  state->escalated = escalated != 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->adversary_blob));
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&state->normbound_blob));
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
    char* end = nullptr;
    const long long round = std::strtoll(name.c_str() + prefix_len, &end, 10);
    // Only the exact name SnapshotPath writes counts: anything else
    // (in-flight "*.ltrs.tmp" partials, "snapshot-12.ltrs") is not ours,
    // and PruneSnapshots must never delete a real snapshot on its behalf.
    if (round <= 0 || round > INT_MAX ||
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

Status AppendJournalRecord(FileSystem* fs, const std::string& dir,
                           const RoundRecord& record) {
  LIGHTTR_CHECK(fs != nullptr);
  Status created = fs->CreateDirs(dir);
  if (!created.ok()) {
    return Status::IoError("cannot create journal directory " + dir + ": " +
                           created.message());
  }
  return fs->AppendToFile(JournalPath(dir), FormatJournalLine(record));
}

Result<std::vector<RoundRecord>> ReadJournal(FileSystem* fs,
                                             const std::string& dir) {
  LIGHTTR_CHECK(fs != nullptr);
  const std::string path = JournalPath(dir);
  if (!fs->Exists(path)) {
    return std::vector<RoundRecord>{};  // fresh directory: empty history
  }
  Result<std::string> contents = fs->ReadFile(path);
  if (!contents.ok()) return contents.status();
  std::vector<RoundRecord> records;
  std::istringstream lines(contents.value());
  std::string line;
  while (std::getline(lines, line)) {
    RoundRecord record;
    // A line that fails its CRC (or cannot parse) is what a torn append
    // leaves behind. Every record starts on a fresh line, so the damage
    // ends at this line's end and later records are intact.
    if (ParseJournalLine(line, &record)) records.push_back(record);
  }
  return records;
}

Status RewriteJournal(FileSystem* fs, const std::string& dir,
                      const std::vector<RoundRecord>& records) {
  LIGHTTR_CHECK(fs != nullptr);
  std::string contents;
  for (const RoundRecord& record : records) {
    contents += FormatJournalLine(record);
  }
  Status created = fs->CreateDirs(dir);
  if (!created.ok()) {
    return Status::IoError("cannot create journal directory " + dir + ": " +
                           created.message());
  }
  return fs->WriteFileAtomic(JournalPath(dir), contents);
}

}  // namespace lighttr::fl
