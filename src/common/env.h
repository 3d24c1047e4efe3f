// Pluggable filesystem environment: every byte the library persists
// flows through a FileSystem, so the whole durability stack (atomic
// run-state snapshot writes) can be pointed at a deterministic
// fault-injecting filesystem with ONE knob (DurabilityConfig::fs)
// instead of the real disk.
//
// Two implementations ship:
//   - RealFileSystem: the production backend (std::filesystem +
//     streams), reached through RealFileSystemInstance(). common/env is
//     the ONLY place in src/ allowed to touch raw file APIs — the
//     no-direct-persistence lint rule bans std::ofstream/fopen and
//     std::filesystem mutation everywhere else under src/ — and a
//     FileSystem* is the only persistence surface: every durable-state
//     call (snapshots) takes one.
//   - FaultyFileSystem: a deterministic in-memory filesystem with a
//     seeded fault model (ENOSPC, rename failures, read bit-rot,
//     leftover `.tmp` litter) and simulated fsync/crash
//     semantics (unsynced data can be lost at a crash). Every injected
//     fault is counted, so chaos invariants can check that what the
//     filesystem injected is exactly what the trainer attributed.
//
// Failure-path hygiene contract (both implementations): WriteFileAtomic
// never leaves its own `<path>.tmp` behind — the temp is removed on a
// failed write AND on a failed rename — and reports a short write as
// kIoError, never as success.
#ifndef LIGHTTR_COMMON_ENV_H_
#define LIGHTTR_COMMON_ENV_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace lighttr {

/// Abstract persistence environment. Implementations must behave as if
/// every operation is atomic with respect to concurrent readers of the
/// same FileSystem object (the durability layer only issues IO from the
/// coordinating thread, but sanitizer builds still exercise the locks).
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  /// Writes `contents` to `path` all-or-nothing: readers observe either
  /// the old contents or the new, never a tear. Any stale `<path>.tmp`
  /// from a previous crashed writer is clobbered/cleaned in the
  /// process; on failure no new `<path>.tmp` survives.
  [[nodiscard]] virtual Status WriteFileAtomic(const std::string& path,
                                               const std::string& contents) = 0;

  /// Reads the whole file at `path`.
  [[nodiscard]] virtual Result<std::string> ReadFile(const std::string& path) = 0;

  /// Lists the regular files directly inside `dir` (names only, sorted
  /// ascending). NotFound when `dir` does not exist.
  [[nodiscard]] virtual Result<std::vector<std::string>> ListDir(
      const std::string& dir) = 0;

  /// Removes the file at `path`. Removing a missing file is OK (the
  /// pruning paths are best-effort by design).
  [[nodiscard]] virtual Status Remove(const std::string& path) = 0;

  /// Creates `dir` and any missing parents.
  [[nodiscard]] virtual Status CreateDirs(const std::string& dir) = 0;

  /// True when a file or directory exists at `path`.
  virtual bool Exists(const std::string& path) = 0;

  /// Makes everything written so far durable across a (simulated)
  /// crash. The real backend treats stream close as durable enough and
  /// returns OK; the faulty backend promotes pending bytes so
  /// SimulateCrash can no longer revert them.
  [[nodiscard]] virtual Status SyncAll() = 0;
};

/// The process-wide real filesystem: what to pass wherever a
/// FileSystem* is taken and the real disk is meant.
FileSystem* RealFileSystemInstance();

// ---------------------------------------------------------------------------
// Deterministic storage-fault injection.
// ---------------------------------------------------------------------------

/// Seeded per-operation fault probabilities for FaultyFileSystem. Every
/// rate is an independent Bernoulli draw consumed ONLY when its rate is
/// positive (config-only conditionality, the same rule the trainer's
/// RNG forks follow), so the fault schedule is a pure function of
/// (seed, operation sequence).
struct StorageFaultConfig {
  uint64_t seed = 0xF11E5EEDull;
  /// WriteFileAtomic fails before any byte lands ("No space left on
  /// device").
  double enospc_rate = 0.0;
  /// WriteFileAtomic fails at the rename step; the target keeps its old
  /// contents and (hygiene) the temp file is cleaned up.
  double rename_fail_rate = 0.0;
  /// ReadFile returns the contents with one deterministic bit flipped
  /// (the stored bytes stay intact — read-path rot, not disk damage).
  double read_bitrot_rate = 0.0;
  /// A successful WriteFileAtomic leaves a stale `<path>.tmp` behind,
  /// simulating an earlier writer that crashed mid-write. Injected
  /// litter is tracked so invariants can tell it from a hygiene leak.
  double tmp_litter_rate = 0.0;
  /// When true, SimulateCrash reverts every file to its last synced
  /// contents (files never synced vanish). When false a crash is kind:
  /// everything already reached "disk".
  bool lose_unsynced_on_crash = false;

  bool enabled() const {
    return enospc_rate > 0.0 || rename_fail_rate > 0.0 ||
           read_bitrot_rate > 0.0 || tmp_litter_rate > 0.0 ||
           lose_unsynced_on_crash;
  }
};

/// Exact counts of what the fault layer injected; chaos invariants
/// reconcile these against what the trainer observed.
struct StorageFaultStats {
  int64_t enospc_failures = 0;   // writes failed with ENOSPC
  int64_t rename_failures = 0;   // atomic replaces failed at rename
  int64_t bitrot_reads = 0;      // reads returned a flipped bit
  int64_t tmp_litter_files = 0;  // stale .tmp files planted
  int64_t crash_reverted_files = 0;  // files rolled back at a crash
  int64_t crash_lost_files = 0;      // never-synced files lost at a crash

  /// Faults that surface as a failed write call (each failing call
  /// carries exactly one of these).
  int64_t WriteFaults() const {
    return enospc_failures + rename_failures;
  }
};

/// Deterministic in-memory filesystem with seeded fault injection and
/// simulated crash semantics. With a default (all-zero) config it is a
/// plain deterministic RAM disk, useful on its own for hermetic tests.
///
/// Thread safety: all operations lock one internal mutex. Determinism
/// across trainer thread counts holds because the durability layer
/// issues every operation from the coordinating thread in round order.
class FaultyFileSystem : public FileSystem {
 public:
  explicit FaultyFileSystem(const StorageFaultConfig& config = {});

  [[nodiscard]] Status WriteFileAtomic(const std::string& path,
                                       const std::string& contents) override;
  [[nodiscard]] Result<std::string> ReadFile(const std::string& path) override;
  [[nodiscard]] Result<std::vector<std::string>> ListDir(
      const std::string& dir) override;
  [[nodiscard]] Status Remove(const std::string& path) override;
  [[nodiscard]] Status CreateDirs(const std::string& dir) override;
  bool Exists(const std::string& path) override;
  [[nodiscard]] Status SyncAll() override;

  /// Simulates a process+machine crash: with lose_unsynced_on_crash,
  /// every file reverts to its last SyncAll contents and never-synced
  /// files vanish; otherwise the visible state survives unchanged.
  void SimulateCrash();

  /// Snapshot of the injected-fault counters.
  StorageFaultStats stats() const;

  /// All existing file paths, sorted (for orphan-temp-file scans).
  std::vector<std::string> AllFiles() const;

  /// True when `path` is stale-.tmp litter planted by the fault layer
  /// (as opposed to a temp file leaked by a buggy writer).
  bool IsInjectedLitter(const std::string& path) const;

  /// Test hook: the next ReadFile of exactly `path` returns one flipped
  /// bit, independent of read_bitrot_rate (targeted corrupted-newest
  /// fallback tests need a deterministic victim).
  void InjectBitrotOnce(const std::string& path);

  /// Test-only planted bug: when set, a rename failure leaves the temp
  /// file behind instead of cleaning it — the hygiene regression the
  /// chaos orphan-temp invariant exists to catch.
  void set_leak_tmp_on_rename_failure(bool leak) {
    std::lock_guard<std::mutex> lock(mu_);
    leak_tmp_ = leak;
  }

  /// Pauses fault injection (no draws, nothing injected) so a harness
  /// can inspect or stage state without perturbing the fault stream.
  void set_faults_paused(bool paused);

 private:
  struct MemFile {
    std::string data;     // visible contents
    std::string synced;   // contents surviving a lossy crash
    bool ever_synced = false;
  };

  bool ParentExists(const std::string& path) const;  // callers hold mu_
  bool DrawFault(double rate);                       // callers hold mu_
  void CleanTemp(const std::string& path);           // callers hold mu_

  mutable std::mutex mu_;
  StorageFaultConfig config_;
  Rng rng_;
  std::map<std::string, MemFile> files_;
  std::set<std::string> dirs_;
  std::set<std::string> litter_;
  std::set<std::string> bitrot_once_;
  StorageFaultStats stats_;
  bool paused_ = false;
  bool leak_tmp_ = false;
};

}  // namespace lighttr

#endif  // LIGHTTR_COMMON_ENV_H_
