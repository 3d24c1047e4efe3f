// Communication accounting for the federated simulator (paper Sec. V-B3
// ties communication cost to parameter count; we record exact serialized
// bytes per round and direction).
#ifndef LIGHTTR_FL_COMM_STATS_H_
#define LIGHTTR_FL_COMM_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace lighttr::fl {

/// Every telemetry counter, in kCounters order (one line per table
/// group). FaultStats and RoundRecord index their counter arrays with it
/// (`faults[kDrops]`).
enum Counter : int {
  kSampled, kReporting,
  kDrops, kRetries, kStragglers, kRejectedUploads, kClippedUploads,
  kQuorumMisses,
  kPoisonedUploads, kSuspectedUploads,
  kNetRetries, kNetTimeouts, kNetCrcDrops, kNetDedupDrops, kNetLateDrops,
  kNetLost,
  kVerdict, kQuarantined, kOutlierUploads, kQuarantinedSkips,
  kDivergedRounds, kRollbacks, kQuarantineEvents, kParoleEvents,
  kStorageWriteFailures,
  kNumCounters,
};

/// How a counter's FaultStats total relates to its per-round column.
enum class CounterScope {
  /// A run total that rewinds with the model on rollback: the trainer
  /// folds the per-round column (when there is one) into the total at
  /// the end of every round, so the total equals the history's sum.
  kRun,
  /// A trainer-lifetime total that survives rollback (what happened in
  /// an undone round still happened). The per-round column, when there
  /// is one, is informational and need not sum to the total.
  kLifetime,
  /// A per-round value with no total.
  kRound,
};

/// The run_experiment table block that prints a counter's total.
enum class CounterBlock {
  kNone,     // not printed
  kNet,      // every row, when any of them is nonzero
  kStorage,  // every row, when any of them is nonzero
  kAttack,   // when an adversary or a robust aggregator is in play
  kHealth,   // with --health
};

/// One telemetry counter.
struct CounterSpec {
  Counter id;
  const char* name;
  CounterScope scope;
  bool per_round;                 // has a RoundRecord column
  const char* label = nullptr;    // its run_experiment row, if printed
  CounterBlock block = CounterBlock::kNone;

  /// Whether FaultStats carries a total of it.
  constexpr bool has_total() const { return scope != CounterScope::kRound; }
};

/// The single list of counters. The round fold, the snapshot codec
/// (totals and history columns), DescribeMismatch, the chaos invariants
/// and run_experiment's table all walk it, so adding a counter means
/// adding its enumerator, one row here, and the line that increments
/// it. Reordering or inserting rows changes the snapshot layout: bump
/// the run-state version (fl/run_state.cc).
inline constexpr CounterSpec kCounters[] = {
    // {id, name, scope, per-round column, run_experiment label and block}
    // Cohort bookkeeping (Algorithm 3 line 2 and its survivors).
    {kSampled, "sampled", CounterScope::kRun, true},
    {kReporting, "reporting", CounterScope::kRun, true},
    // Client faults (fl/fault_injection) and upload screening: clients
    // lost after exhausting their retries, the re-contact attempts,
    // clients cut off by the round deadline, uploads screened out
    // (non-finite or over the norm bound), uploads norm-clipped but
    // kept, and rounds that missed quorum and kept the previous model.
    {kDrops, "drops", CounterScope::kRun, true},
    {kRetries, "retries", CounterScope::kRun, true},
    {kStragglers, "stragglers", CounterScope::kRun, true},
    {kRejectedUploads, "rejected_uploads", CounterScope::kRun, true},
    {kClippedUploads, "clipped_uploads", CounterScope::kRun, false},
    {kQuorumMisses, "quorum_misses", CounterScope::kRun, false},
    // Adversary (fl/adversary + the Byzantine aggregators): uploads the
    // injected adversary rewrote (ground truth, zero in production) and
    // uploads the aggregator flagged (the defence's claim).
    {kPoisonedUploads, "poisoned_uploads", CounterScope::kRun, true,
     "Poisoned uploads", CounterBlock::kAttack},
    {kSuspectedUploads, "suspected_uploads", CounterScope::kRun, true,
     "Suspected uploads", CounterBlock::kAttack},
    // Network (fl/transport): what the wire did, never charged to a
    // client's reputation. Re-sends after unusable exchanges, exchanges
    // with no usable response, frames discarded (CRC, decode, misroute),
    // duplicate pushes absorbed by server dedup, frames past the
    // deadline, and client-rounds lost to a dead link.
    {kNetRetries, "net_retries", CounterScope::kRun, true, "Net retries",
     CounterBlock::kNet},
    {kNetTimeouts, "net_timeouts", CounterScope::kRun, true, "Net timeouts",
     CounterBlock::kNet},
    {kNetCrcDrops, "net_crc_drops", CounterScope::kRun, true, "Net CRC drops",
     CounterBlock::kNet},
    {kNetDedupDrops, "net_dedup_drops", CounterScope::kRun, true,
     "Net dedup drops", CounterBlock::kNet},
    {kNetLateDrops, "net_late_drops", CounterScope::kRun, true,
     "Net late drops", CounterBlock::kNet},
    {kNetLost, "net_lost", CounterScope::kRun, true, "Net lost clients",
     CounterBlock::kNet},
    // Self-healing (fl/health + fl/reputation); zero with healing off.
    // Per round: the fl::HealthVerdict as int (0 = healthy), the clients
    // in quarantine after it, the accepted uploads flagged as norm
    // outliers, and the sampled slots skipped for quarantine. Lifetime
    // only: diverged rounds, rollbacks, and clients entering and leaving
    // quarantine.
    {kVerdict, "verdict", CounterScope::kRound, true},
    {kQuarantined, "quarantined", CounterScope::kRound, true},
    {kOutlierUploads, "outlier_uploads", CounterScope::kLifetime, true},
    {kQuarantinedSkips, "quarantined_skips", CounterScope::kLifetime, true,
     "Quarantined skips", CounterBlock::kAttack},
    {kDivergedRounds, "diverged_rounds", CounterScope::kLifetime, false,
     "Diverged rounds", CounterBlock::kHealth},
    {kRollbacks, "rollbacks", CounterScope::kLifetime, false, "Rollbacks",
     CounterBlock::kHealth},
    {kQuarantineEvents, "quarantine_events", CounterScope::kLifetime, false,
     "Quarantine events", CounterBlock::kHealth},
    {kParoleEvents, "parole_events", CounterScope::kLifetime, false,
     "Parole events", CounterBlock::kHealth},
    // Storage (common/env): snapshot writes that failed. Training goes
    // on with degraded durability, so the count is surfaced.
    {kStorageWriteFailures, "storage_write_failures", CounterScope::kLifetime,
     false, "Storage write failures", CounterBlock::kStorage},
};

static_assert(
    [] {
      int id = 0;
      for (const CounterSpec& counter : kCounters) {
        if (counter.id != id++) return false;
      }
      return id == kNumCounters;
    }(),
    "one kCounters row per Counter, in enum order");

/// The six per-round columns that partition a round's sampled cohort:
/// every sampled client is skipped for quarantine, dropped, lost to the
/// network, cut off as a straggler, screened out, or reporting.
inline constexpr Counter kCohortPartition[] = {
    kQuarantinedSkips, kDrops,           kNetLost,
    kStragglers,       kRejectedUploads, kReporting};

/// Accumulated fault-tolerance telemetry of one federated run: what the
/// fault layer injected and what the server did about it.
struct FaultStats {
  /// Every kCounters total; a counter without one stays zero.
  std::array<int64_t, kNumCounters> counts{};
  double simulated_backoff_s = 0.0;  // simulated seconds spent backing off

  int64_t& operator[](Counter counter) { return counts[counter]; }
  int64_t operator[](Counter counter) const { return counts[counter]; }

  /// Mean fraction of each round's cohort that actually reported.
  double MeanCohortFraction() const {
    return counts[kSampled] > 0 ? static_cast<double>(counts[kReporting]) /
                                      static_cast<double>(counts[kSampled])
                                : 1.0;
  }
};

/// Per-round telemetry (drives the convergence analysis of Fig. 5 and
/// the resilience curves of bench_fault_tolerance). Every snapshot the
/// durability layer (fl/run_state) writes carries the history so far,
/// so a resumed run reports the rounds it did not re-execute.
struct RoundRecord {
  int round = 0;
  double mean_train_loss = 0.0;
  double global_valid_accuracy = 0.0;
  double wall_seconds = 0.0;
  double valid_loss = 0.0;     // global model's validation loss
  bool quorum_met = true;      // false -> previous global model kept
  bool escalated = false;      // round ran under escalated screening
  /// Every per-round kCounters column; a counter without one stays zero.
  std::array<int, kNumCounters> counts{};

  int& operator[](Counter counter) { return counts[counter]; }
  int operator[](Counter counter) const { return counts[counter]; }
};

/// Field-by-field equality, wall-clock time excluded: "" on a match,
/// otherwise the first differing field ("drops 2 vs 3"). A record
/// compares its losses, flags and every kCounters column; run totals
/// compare every kCounters total and the simulated backoff; histories
/// compare their lengths and then record by record ("history[4] ...").
std::string DescribeMismatch(const RoundRecord& a, const RoundRecord& b);
std::string DescribeMismatch(const FaultStats& a, const FaultStats& b);
std::string DescribeMismatch(const std::vector<RoundRecord>& a,
                             const std::vector<RoundRecord>& b);

/// Accumulated transport statistics of one federated run, measured from
/// encoded frame lengths: retransmissions and channel-injected
/// duplicates included.
struct CommStats {
  int64_t bytes_downlink = 0;  // server -> clients
  int64_t bytes_uplink = 0;    // clients -> server
  int64_t messages = 0;
  int64_t rounds = 0;

  int64_t TotalBytes() const { return bytes_downlink + bytes_uplink; }

  /// Transfer time under a simple bandwidth model (e.g., 1 Gbps -> pass
  /// 125e6 bytes/s), plus per-message latency.
  double SimulatedSeconds(double bytes_per_second,
                          double latency_s_per_message) const {
    return static_cast<double>(TotalBytes()) / bytes_per_second +
           static_cast<double>(messages) * latency_s_per_message;
  }
};

/// Outcome of a federated run (FederatedTrainer::Run).
struct FederatedRunResult {
  CommStats comm;
  FaultStats faults;
  std::vector<RoundRecord> history;
  /// True when the self-healing layer exhausted its rollback budget and
  /// stopped the run early at its last healthy state.
  bool gave_up = false;
};

/// Two runs compared the same way, wall-clock time excluded: the comm
/// totals ("comm messages 40 vs 41"), `gave_up`, every counter total
/// ("total drops 2 vs 3") and the history ("history[4] drops 0 vs 1").
std::string DescribeMismatch(const FederatedRunResult& a,
                             const FederatedRunResult& b);

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_COMM_STATS_H_
