// Durable server state for the federated loop: periodic full-state
// snapshots, so a coordinator killed mid-run can resume and converge
// bitwise-identically to an uninterrupted run.
//
// Directory layout (everything under DurabilityConfig::dir):
//
//   snapshot-000012.ltrs   full ServerRunState after round 12, round
//                          history included
//   snapshot-000016.ltrs   ... the newest `keep_snapshots` are retained
//   *.tmp                  in-flight atomic writes; ignored by readers
//
// Snapshots are written via WriteFileAtomic and carry a whole-file
// CRC-32, so a crash at any point leaves either the previous snapshot
// set intact or a new fully-valid snapshot — never a half-written one
// that parses. Each snapshot is self-contained: resume needs no other
// file.
//
// Only the current format version is read: an older snapshot is
// rejected with "unsupported run-state version N".
#ifndef LIGHTTR_FL_RUN_STATE_H_
#define LIGHTTR_FL_RUN_STATE_H_

#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "fl/comm_stats.h"

namespace lighttr::fl {

/// Deterministic crash-injection hooks for the durability layer. Tests
/// configure a (point, round) pair; when the running trainer reaches
/// that point it throws InjectedCrash, simulating a process kill with
/// the disk in exactly the state a real crash would leave.
enum class CrashPoint {
  kNone = 0,
  kBeforeSave,  // snapshot round reached, nothing written yet
  kMidSave,     // temp file partially written, no rename
  kAfterSave,   // snapshot durable, crash before the run continues
  kMidRound,    // inside the round, before aggregation
};

const char* CrashPointName(CrashPoint point);

/// Thrown (only) by crash injection; never by real failure paths. Tests
/// catch it where a real deployment would see a dead process.
struct InjectedCrash {
  CrashPoint point = CrashPoint::kNone;
  int round = 0;
};

/// Server-side durability knobs. Durability is off (no files written)
/// while `dir` is empty.
struct DurabilityConfig {
  /// Directory for snapshots; created on first save.
  std::string dir;
  /// Filesystem all durability IO goes through. Null means the real
  /// disk; tests and the chaos engine point this at a FaultyFileSystem
  /// to make every persistence call fault-injectable. Not owned; must
  /// outlive the trainer.
  FileSystem* fs = nullptr;
  /// Snapshot every K completed rounds (the final round always
  /// snapshots so a finished run is durable).
  int snapshot_every = 1;
  /// How many snapshots to retain; >= 2 keeps a fallback when the
  /// newest one is corrupted.
  int keep_snapshots = 2;
  /// Resume from `dir` at the start of Run (no-op when the directory
  /// holds no valid snapshot).
  bool resume = false;
  /// Test-only crash injection: throw InjectedCrash when `crash_point`
  /// is reached in round `crash_round` (1-based; 0 disables).
  CrashPoint crash_point = CrashPoint::kNone;
  int crash_round = 0;

  bool enabled() const { return !dir.empty(); }
};

/// Fires the configured injected crash if (point, round) matches.
void MaybeInjectCrash(const DurabilityConfig& config, CrashPoint point,
                      int round);

/// Everything the server must persist to resume a run exactly: the
/// last completed round, every RNG stream state (so a resumed run
/// replays the same fault, network, and attack weather), accumulated
/// telemetry (every kCounters row), the global parameters (a float64
/// ParameterSet blob, which the snapshot CRC covers), each client
/// optimizer's state, the self-healing and Byzantine-defence state, and
/// the round history.
struct ServerRunState {
  int round = 0;
  std::string rng_state;        // FederatedTrainer::rng_
  std::string fault_rng_state;  // dedicated fault stream
  std::string net_rng_state;    // dedicated channel-fault stream
  CommStats comm;
  FaultStats faults;
  std::string global_params_blob;            // ParameterSet::Serialize(kFloat64)
  std::vector<std::string> optimizer_blobs;  // one per client, in order
  std::string reputation_blob;  // ReputationBook::Serialize ("" when off)
  std::string monitor_blob;     // RoundHealthMonitor::SerializeState
  bool escalated = false;       // screening escalation latch
  std::string adversary_blob;   // AdversaryEngine::SerializeState ("" when off)
  std::string normbound_blob;   // trainer's rolling accepted-norm window
  std::vector<RoundRecord> history;  // rounds 1..round, in order
};

/// Encodes a snapshot ("LTRS" magic, version, fields, whole-file CRC).
std::string EncodeRunState(const ServerRunState& state);

/// The snapshot codec's bytes for a run's telemetry: its comm totals,
/// counter totals and history, with wall clock zeroed. Runs that report
/// the same outcome encode to the same bytes, so a digest of them pins
/// the outcome.
std::string TelemetryBytes(const FederatedRunResult& run);

/// Decodes an EncodeRunState blob; any integrity violation (bad magic,
/// truncation, CRC mismatch, oversized lengths, a history that is not
/// exactly rounds 1..round) yields a non-OK Status.
[[nodiscard]] Status DecodeRunState(const std::string& bytes,
                                    ServerRunState* state);

/// Atomically writes `state` to `path` through `fs` (creating the
/// parent directory). Every call below takes the FileSystem to use;
/// pass RealFileSystemInstance() for the real disk.
[[nodiscard]] Status SaveRunState(FileSystem* fs, const std::string& path,
                                  const ServerRunState& state);

/// Reads and decodes the snapshot at `path`.
[[nodiscard]] Result<ServerRunState> LoadRunState(FileSystem* fs,
                                                  const std::string& path);

/// Canonical snapshot path for a round: <dir>/snapshot-<round>.ltrs.
std::string SnapshotPath(const std::string& dir, int round);

/// Rounds with a snapshot file in `dir`, ascending. NotFound when the
/// directory does not exist; an empty vector when it is merely empty.
/// Only names SnapshotPath would produce count: partial `.tmp` files,
/// unrelated names, and non-canonical spellings such as
/// `snapshot-12.ltrs` are ignored (and so never pruned).
[[nodiscard]] Result<std::vector<int>> ListSnapshotRounds(
    FileSystem* fs, const std::string& dir);

/// Deletes all but the newest `keep` snapshots (best effort).
void PruneSnapshots(FileSystem* fs, const std::string& dir, int keep);

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_RUN_STATE_H_
