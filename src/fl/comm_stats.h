// Communication accounting for the federated simulator (paper Sec. V-B3
// ties communication cost to parameter count; we record exact serialized
// bytes per round and direction).
#ifndef LIGHTTR_FL_COMM_STATS_H_
#define LIGHTTR_FL_COMM_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace lighttr::fl {

/// Accumulated fault-tolerance telemetry of one federated run: what the
/// fault layer injected and what the server did about it.
struct FaultStats {
  int64_t drops = 0;             // contacts that never reported (after retries)
  int64_t retries = 0;           // re-contact attempts for dropped clients
  int64_t stragglers = 0;        // clients cut off by the round deadline
  int64_t rejected_uploads = 0;  // uploads screened out (non-finite / norm)
  int64_t clipped_uploads = 0;   // uploads norm-clipped but kept
  int64_t quorum_misses = 0;     // rounds that kept the previous model
  int64_t sampled_clients = 0;   // sum over rounds of cohort size
  int64_t reporting_clients = 0; // sum over rounds of effective cohort size
  double simulated_backoff_s = 0.0;  // simulated seconds spent backing off
  // Self-healing telemetry (fl/health + fl/reputation); all zero when
  // the health layer is disabled.
  int64_t outlier_uploads = 0;    // accepted uploads flagged as norm outliers
  int64_t diverged_rounds = 0;    // rounds the monitor judged diverged
  int64_t rollbacks = 0;          // rollbacks to the last healthy state
  int64_t quarantine_events = 0;  // clients entering quarantine
  int64_t parole_events = 0;      // clients released from quarantine
  int64_t quarantined_skips = 0;  // sampled slots skipped due to quarantine
  // Adversary telemetry (fl/adversary + the Byzantine aggregators).
  // `poisoned_uploads` counts uploads the injected adversary actually
  // rewrote (ground truth, zero in production); `suspected_uploads`
  // counts uploads the Byzantine aggregator flagged as probable poison
  // (the defense's claim). Comparing the two is the attribution story.
  int64_t poisoned_uploads = 0;
  int64_t suspected_uploads = 0;
  // Wire-transport telemetry (fl/transport): what the network did to
  // frames in flight. All zero on a clean channel. These faults are
  // attributed to the NETWORK — they never touch a client's reputation.
  int64_t net_retries = 0;     // request re-sends after unusable exchanges
  int64_t net_timeouts = 0;    // exchanges that produced no usable response
  int64_t net_crc_drops = 0;   // frames discarded (CRC/decode/misroute)
  int64_t net_dedup_drops = 0; // duplicate pushes absorbed by server dedup
  int64_t net_late_drops = 0;  // frames discarded for missing the deadline
  int64_t net_lost = 0;        // client-rounds lost to a dead link
  // Storage telemetry (common/env): persistence calls (snapshot writes)
  // that failed at the filesystem. Training continues — the model is
  // unaffected — but durability coverage degrades, so the count is
  // surfaced rather than swallowed. Attributed to STORAGE: never to the
  // network or to client reputation.
  int64_t storage_write_failures = 0;

  /// Mean fraction of each round's cohort that actually reported.
  double MeanCohortFraction() const {
    return sampled_clients > 0 ? static_cast<double>(reporting_clients) /
                                     static_cast<double>(sampled_clients)
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
  // Fault telemetry for this round.
  int sampled = 0;           // cohort size selected by Algorithm 3 line 2
  int reporting = 0;         // uploads that survived faults + screening
  int drops = 0;             // clients lost after exhausting retries
  int retries = 0;           // re-contact attempts this round
  int stragglers = 0;        // clients cut off by the deadline
  int rejected_uploads = 0;  // uploads discarded by screening
  bool quorum_met = true;    // false -> previous global model kept
  // Self-healing telemetry; defaults describe a run with --health off.
  double valid_loss = 0.0;       // global model's validation loss
  int verdict = 0;               // fl::HealthVerdict as int (0=healthy)
  int outlier_uploads = 0;       // accepted uploads flagged as outliers
  int quarantined = 0;           // clients in quarantine after this round
  int skipped_quarantined = 0;   // sampled slots skipped (quarantine)
  bool escalated = false;        // round ran under escalated screening
  // Adversary telemetry for this round (see FaultStats).
  int poisoned_uploads = 0;      // uploads the injected adversary rewrote
  int suspected_uploads = 0;     // uploads the Byzantine aggregator flagged
  // Wire-transport telemetry for this round (see FaultStats).
  int net_retries = 0;
  int net_timeouts = 0;
  int net_crc_drops = 0;
  int net_dedup_drops = 0;
  int net_late_drops = 0;
  int net_lost = 0;              // contacted clients lost to network faults
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

/// One telemetry counter: where it lives in RoundRecord and FaultStats.
struct CounterSpec {
  const char* name;
  CounterScope scope;
  int RoundRecord::*round;     // nullptr: no per-round column
  int64_t FaultStats::*total;  // nullptr: no FaultStats total
};

/// The single list of counters. The round fold, the snapshot codec
/// (totals and history columns), DescribeMismatch, and the chaos
/// invariants all iterate it, so adding a counter means adding its
/// fields, one row here, and the line that increments it. Reordering or
/// inserting rows changes the snapshot layout: bump the run-state
/// version (fl/run_state.cc).
inline constexpr CounterSpec kCounters[] = {
    // Cohort bookkeeping (Algorithm 3 line 2 and its survivors).
    {"sampled", CounterScope::kRun, &RoundRecord::sampled,
     &FaultStats::sampled_clients},
    {"reporting", CounterScope::kRun, &RoundRecord::reporting,
     &FaultStats::reporting_clients},
    // Client faults (fl/fault_injection) and upload screening.
    {"drops", CounterScope::kRun, &RoundRecord::drops, &FaultStats::drops},
    {"retries", CounterScope::kRun, &RoundRecord::retries,
     &FaultStats::retries},
    {"stragglers", CounterScope::kRun, &RoundRecord::stragglers,
     &FaultStats::stragglers},
    {"rejected_uploads", CounterScope::kRun, &RoundRecord::rejected_uploads,
     &FaultStats::rejected_uploads},
    {"clipped_uploads", CounterScope::kRun, nullptr,
     &FaultStats::clipped_uploads},
    {"quorum_misses", CounterScope::kRun, nullptr, &FaultStats::quorum_misses},
    // Adversary (fl/adversary + the Byzantine aggregators).
    {"poisoned_uploads", CounterScope::kRun, &RoundRecord::poisoned_uploads,
     &FaultStats::poisoned_uploads},
    {"suspected_uploads", CounterScope::kRun, &RoundRecord::suspected_uploads,
     &FaultStats::suspected_uploads},
    // Network (fl/transport).
    {"net_retries", CounterScope::kRun, &RoundRecord::net_retries,
     &FaultStats::net_retries},
    {"net_timeouts", CounterScope::kRun, &RoundRecord::net_timeouts,
     &FaultStats::net_timeouts},
    {"net_crc_drops", CounterScope::kRun, &RoundRecord::net_crc_drops,
     &FaultStats::net_crc_drops},
    {"net_dedup_drops", CounterScope::kRun, &RoundRecord::net_dedup_drops,
     &FaultStats::net_dedup_drops},
    {"net_late_drops", CounterScope::kRun, &RoundRecord::net_late_drops,
     &FaultStats::net_late_drops},
    {"net_lost", CounterScope::kRun, &RoundRecord::net_lost,
     &FaultStats::net_lost},
    // Self-healing (fl/health + fl/reputation).
    {"verdict", CounterScope::kRound, &RoundRecord::verdict, nullptr},
    {"quarantined", CounterScope::kRound, &RoundRecord::quarantined, nullptr},
    {"outlier_uploads", CounterScope::kLifetime, &RoundRecord::outlier_uploads,
     &FaultStats::outlier_uploads},
    {"quarantined_skips", CounterScope::kLifetime,
     &RoundRecord::skipped_quarantined, &FaultStats::quarantined_skips},
    {"diverged_rounds", CounterScope::kLifetime, nullptr,
     &FaultStats::diverged_rounds},
    {"rollbacks", CounterScope::kLifetime, nullptr, &FaultStats::rollbacks},
    {"quarantine_events", CounterScope::kLifetime, nullptr,
     &FaultStats::quarantine_events},
    {"parole_events", CounterScope::kLifetime, nullptr,
     &FaultStats::parole_events},
    // Storage (common/env).
    {"storage_write_failures", CounterScope::kLifetime, nullptr,
     &FaultStats::storage_write_failures},
};

constexpr int CountTotals() {
  int count = 0;
  for (const CounterSpec& counter : kCounters) {
    if (counter.total != nullptr) ++count;
  }
  return count;
}
static_assert(sizeof(FaultStats) ==
                  sizeof(double) + sizeof(int64_t) * CountTotals(),
              "every FaultStats counter needs a kCounters row");

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

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_COMM_STATS_H_
