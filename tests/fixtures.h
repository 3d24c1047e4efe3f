// The fixtures the tests share. A run state in which every field
// differs from every other, for the run-state codec tests
// (storage_fault_test, crash_recovery_test) and the snapshot-layout
// digest (golden_test): a column the codec drops, swaps or misreads
// shows up as a mismatch in the first, and any change to the bytes it
// encodes to shows up in the second. FreshDir, an emptied directory
// under the test temp dir. And HealingOptions, the run the self-healing
// tests fight a hostile cohort with.
#ifndef LIGHTTR_TESTS_FIXTURES_H_
#define LIGHTTR_TESTS_FIXTURES_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "common/rng.h"
#include "fl/comm_stats.h"
#include "fl/federated_trainer.h"
#include "fl/run_state.h"

namespace lighttr::test_util {

/// FNV-1a-64 of `bytes`.
inline uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Every field and every per-round column gets a value distinct from
/// every other one in the record (and from the other rounds'). A
/// counter's value comes from its name, not its row, so a reordered
/// row changes what the state encodes to.
inline fl::RoundRecord DistinctiveRecord(int round) {
  fl::RoundRecord record;
  record.round = round;
  record.mean_train_loss = 0.125 + round;
  record.global_valid_accuracy = 1.0 / (round + 2);
  record.wall_seconds = 1e-3 * round;
  record.valid_loss = 10.0 + round / 3.0;
  record.quorum_met = round % 2 == 0;
  record.escalated = round % 3 == 0;
  for (const fl::CounterSpec& counter : fl::kCounters) {
    if (counter.per_round) {
      record[counter.id] = static_cast<int>(
          1000000 * round + Fnv1a64(counter.name) % 1000000);
    }
  }
  return record;
}

/// Every kCounters total gets a value, again from its name, distinct
/// from every other counter's, every blob is non-empty, and every round
/// has its distinctive record.
inline fl::ServerRunState DistinctiveState() {
  fl::ServerRunState state;
  state.round = 9;
  state.rng_state = Rng(41).SerializeState();
  state.fault_rng_state = Rng(42).SerializeState();
  state.net_rng_state = Rng(43).SerializeState();
  state.comm.bytes_downlink = 1111;
  state.comm.bytes_uplink = 2222;
  state.comm.messages = 33;
  state.comm.rounds = 9;
  state.faults.simulated_backoff_s = 2.75;
  for (const fl::CounterSpec& counter : fl::kCounters) {
    if (counter.has_total()) {
      state.faults[counter.id] =
          static_cast<int64_t>(Fnv1a64(counter.name) >> 1);
    }
  }
  state.global_params_blob = "fake-params";
  state.optimizer_blobs = {"opt-0", "opt-1"};
  state.reputation_blob = "rep";
  state.monitor_blob = "mon";
  state.escalated = true;
  state.adversary_blob = "adv";
  state.normbound_blob = "nbw";
  for (int round = 1; round <= state.round; ++round) {
    state.history.push_back(DistinctiveRecord(round));
  }
  return state;
}

/// `name` under the test temp dir, removed with everything in it.
inline std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).generic_string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// A stub federation's run with the self-healing layer `healing`:
/// screening is off, so a hostile cohort's finite poison reaches the
/// mean, and outliers score 0.5 per offence, so the 0.4 threshold
/// quarantines a repeat offender after a few flagged rounds. Serial;
/// a test of thread widths sets its own.
inline fl::FederatedTrainerOptions HealingOptions(int rounds = 12,
                                                  bool healing = true) {
  fl::FederatedTrainerOptions options;
  options.rounds = rounds;
  options.local_epochs = 2;
  options.learning_rate = 0.05;
  options.threads = 1;
  options.tolerance.screen.enabled = false;
  options.healing.enabled = healing;
  options.healing.reputation.quarantine_threshold = 0.4;
  return options;
}

}  // namespace lighttr::test_util

#endif  // LIGHTTR_TESTS_FIXTURES_H_
