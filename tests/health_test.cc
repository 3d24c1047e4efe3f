// Tests for the self-healing layer: round health verdicts (fl/health),
// per-client reputation + quarantine (fl/reputation), and the trainer's
// divergence-rollback protocol end to end on the stub model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chaos/stub_federation.h"
#include "common/binary_io.h"
#include "common/finite.h"
#include "common/rng.h"
#include "fl/federated_trainer.h"
#include "fl/health.h"
#include "fl/reputation.h"
#include "traj/workload.h"
#include "fixtures.h"

namespace lighttr::fl {
namespace {

using chaos::HostileCohortUpdate;
using chaos::MakeClients;
using chaos::MakeStub;
using chaos::StubModel;
using test_util::HealingOptions;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------
// Median / MAD

TEST(HealthStats, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(HealthStats, MedianAbsDeviation) {
  EXPECT_DOUBLE_EQ(MedianAbsDeviation({}, 0.0), 0.0);
  // Deviations from 3: {2, 0, 2} -> median 2.
  EXPECT_DOUBLE_EQ(MedianAbsDeviation({1.0, 3.0, 5.0}, 3.0), 2.0);
}

// ---------------------------------------------------------------------
// RollingWindow

std::string WindowBlob(const std::vector<double>& values) {
  BinaryWriter writer;
  writer.WriteF64Vector(values);
  return writer.Take();
}

// The window's contents, oldest first, as its codec writes them.
std::string Contents(const RollingWindow& window) {
  BinaryWriter writer;
  window.Write(&writer);
  return writer.Take();
}

TEST(RollingWindow, KeepsTheLastCapacityValuesOldestFirst) {
  RollingWindow window(4);
  for (int i = 1; i <= 3; ++i) window.Push(i);
  EXPECT_EQ(Contents(window), WindowBlob({1, 2, 3}));
  for (int i = 4; i <= 10; ++i) window.Push(i);
  EXPECT_EQ(window.size(), 4u);
  EXPECT_EQ(Contents(window), WindowBlob({7, 8, 9, 10}));
}

TEST(RollingWindow, MedianAndMadMatchTheFreeFunctions) {
  Rng rng(5);
  RollingWindow window(kNormWindow);
  std::vector<double> pushed;
  for (int i = 0; i < 150; ++i) {
    pushed.push_back(rng.Uniform(0.0, 10.0));
    window.Push(pushed.back());
    const size_t kept = std::min(pushed.size(), kNormWindow);
    const std::vector<double> tail(pushed.end() - kept, pushed.end());
    const double median = Median(tail);
    EXPECT_EQ(window.Median(), median);
    EXPECT_EQ(window.MedianAbsDeviation(median),
              MedianAbsDeviation(tail, median));
  }
}

TEST(RollingWindow, ReadRejectsHostileBlobsWithoutDamage) {
  RollingWindow window(4);
  window.Push(1.0);
  window.Push(2.0);
  const std::string good = Contents(window);
  const std::string cases[] = {
      WindowBlob({1, 2, 3, 4, 5}),  // count above capacity
      WindowBlob({1, kNan}),
      WindowBlob({1, kInf}),
      WindowBlob({1, -1}),
      good.substr(0, good.size() - 1),  // truncated
      "",
  };
  for (const std::string& bad : cases) {
    BinaryReader reader(bad);
    EXPECT_EQ(window.Read(&reader).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(Contents(window), good);
  }
  // A full window reads back as written.
  const std::string full = WindowBlob({4, 3, 2, 1});
  BinaryReader reader(full);
  ASSERT_TRUE(window.Read(&reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(Contents(window), full);
}

// ---------------------------------------------------------------------
// RoundHealthMonitor::Judge

UpdateObservation Accepted(int client, double norm) {
  UpdateObservation obs;
  obs.client_index = client;
  obs.accepted = true;
  obs.delta_norm = norm;
  return obs;
}

UpdateObservation Corrupt(int client) {
  UpdateObservation obs;
  obs.client_index = client;
  obs.corrupt = true;
  return obs;
}

// Feeds `rounds` clean rounds of 4 accepted uploads with norm ~1 and
// loss ~1 so both envelopes are armed.
void ArmMonitor(RoundHealthMonitor* monitor, int rounds = 3) {
  const std::vector<nn::Scalar> sane = {0.1, 0.2};
  for (int r = 0; r < rounds; ++r) {
    std::vector<UpdateObservation> obs = {
        Accepted(0, 1.0), Accepted(1, 1.1), Accepted(2, 0.9),
        Accepted(3, 1.0)};
    const RoundHealthReport report = monitor->Judge(&obs, sane, 1.0 + 0.01 * r);
    ASSERT_EQ(report.verdict, HealthVerdict::kHealthy);
  }
}

TEST(RoundHealthMonitor, CleanRoundIsHealthy) {
  RoundHealthMonitor monitor;
  std::vector<UpdateObservation> obs = {Accepted(0, 1.0), Accepted(1, 1.2)};
  const RoundHealthReport report = monitor.Judge(&obs, {0.1, 0.2}, 0.8);
  EXPECT_EQ(report.verdict, HealthVerdict::kHealthy);
  EXPECT_EQ(report.outlier_uploads, 0);
  EXPECT_EQ(monitor.norm_history(), 2);
  EXPECT_EQ(monitor.loss_history(), 1);
}

TEST(RoundHealthMonitor, CorruptOrRejectedUploadMakesRoundSuspect) {
  RoundHealthMonitor monitor;
  std::vector<UpdateObservation> obs = {Corrupt(0), Accepted(1, 1.0)};
  EXPECT_EQ(monitor.Judge(&obs, {0.1}, 0.8).verdict, HealthVerdict::kSuspect);

  UpdateObservation rejected;
  rejected.client_index = 2;
  rejected.norm_rejected = true;
  std::vector<UpdateObservation> obs2 = {rejected, Accepted(1, 1.0)};
  const RoundHealthReport report = monitor.Judge(&obs2, {0.1}, 0.8);
  EXPECT_EQ(report.verdict, HealthVerdict::kSuspect);
  EXPECT_EQ(report.rejected_uploads, 1);
}

TEST(RoundHealthMonitor, NonFiniteDeltaNormReclassifiedAsCorrupt) {
  // Screening disabled upstream: an accepted upload can carry a NaN
  // delta norm. Judge must re-attribute it so the reputation ledger
  // still blames the right client.
  RoundHealthMonitor monitor;
  std::vector<UpdateObservation> obs = {Accepted(0, kNan), Accepted(1, 1.0)};
  const RoundHealthReport report = monitor.Judge(&obs, {0.1}, 0.8);
  EXPECT_EQ(report.verdict, HealthVerdict::kSuspect);
  EXPECT_EQ(report.corrupt_uploads, 1);
  EXPECT_TRUE(obs[0].corrupt);
  EXPECT_FALSE(obs[0].accepted);
  EXPECT_EQ(monitor.norm_history(), 1);  // the NaN norm was never banked
}

TEST(RoundHealthMonitor, NormOutlierFlaggedOnceArmedAndNotBanked) {
  RoundHealthMonitor monitor;
  ArmMonitor(&monitor);  // 12 norms banked >= the 8 outlier detection needs
  const int banked = monitor.norm_history();
  std::vector<UpdateObservation> obs = {Accepted(0, 1000.0),
                                        Accepted(1, 1.0)};
  const RoundHealthReport report = monitor.Judge(&obs, {0.1}, 1.0);
  EXPECT_EQ(report.verdict, HealthVerdict::kSuspect);
  EXPECT_EQ(report.outlier_uploads, 1);
  EXPECT_TRUE(obs[0].outlier);
  EXPECT_FALSE(obs[1].outlier);
  EXPECT_GT(report.norm_median, 0.0);
  // Only the sane norm entered the window: the outlier cannot vouch for
  // a follow-up burst.
  EXPECT_EQ(monitor.norm_history(), banked + 1);
}

TEST(RoundHealthMonitor, OutlierDetectionSilentUntilArmed) {
  RoundHealthMonitor monitor;  // outliers need 8 banked norms; none are
  std::vector<UpdateObservation> obs = {Accepted(0, 1000.0),
                                        Accepted(1, 1.0)};
  const RoundHealthReport report = monitor.Judge(&obs, {0.1}, 1.0);
  EXPECT_EQ(report.verdict, HealthVerdict::kHealthy);
  EXPECT_EQ(report.outlier_uploads, 0);
}

TEST(RoundHealthMonitor, NonFiniteGlobalModelDiverges) {
  RoundHealthMonitor monitor;
  std::vector<UpdateObservation> obs = {Accepted(0, 1.0)};
  const RoundHealthReport report =
      monitor.Judge(&obs, {0.1, static_cast<nn::Scalar>(kNan)}, 0.8);
  EXPECT_EQ(report.verdict, HealthVerdict::kDiverged);
  EXPECT_TRUE(report.global_nonfinite);
}

TEST(RoundHealthMonitor, NonFiniteValidationLossDiverges) {
  RoundHealthMonitor monitor;
  std::vector<UpdateObservation> obs = {Accepted(0, 1.0)};
  const RoundHealthReport report = monitor.Judge(&obs, {0.1}, kInf);
  EXPECT_EQ(report.verdict, HealthVerdict::kDiverged);
  EXPECT_TRUE(report.loss_nonfinite);
  EXPECT_EQ(monitor.loss_history(), 0);  // diverged losses are not banked
}

TEST(RoundHealthMonitor, LossSpikeDivergesAndIsNotBanked) {
  RoundHealthMonitor monitor;
  ArmMonitor(&monitor);  // 3 losses ~1.0 banked >= min_loss_history
  const int banked = monitor.loss_history();
  std::vector<UpdateObservation> obs = {Accepted(0, 1.0)};
  const RoundHealthReport report = monitor.Judge(&obs, {0.1}, 1e6);
  EXPECT_EQ(report.verdict, HealthVerdict::kDiverged);
  EXPECT_TRUE(report.loss_spike);
  EXPECT_FALSE(report.loss_nonfinite);
  EXPECT_EQ(monitor.loss_history(), banked);

  // A merely elevated loss inside the envelope stays healthy.
  std::vector<UpdateObservation> obs2 = {Accepted(0, 1.0)};
  const RoundHealthReport calm = monitor.Judge(&obs2, {0.1}, 1.5);
  EXPECT_EQ(calm.verdict, HealthVerdict::kHealthy);
  EXPECT_EQ(monitor.loss_history(), banked + 1);
}

TEST(RoundHealthMonitor, SpikeDetectionSilentUntilArmed) {
  RoundHealthMonitor monitor;  // min_loss_history = 3, nothing banked
  std::vector<UpdateObservation> obs = {Accepted(0, 1.0)};
  EXPECT_EQ(monitor.Judge(&obs, {0.1}, 1e9).verdict, HealthVerdict::kHealthy);
}

TEST(RoundHealthMonitor, StateRoundTripsThroughSerialization) {
  RoundHealthMonitor monitor;
  ArmMonitor(&monitor);
  const std::string blob = monitor.SerializeState();

  RoundHealthMonitor restored;
  ASSERT_TRUE(restored.DeserializeState(blob).ok());
  EXPECT_EQ(restored.norm_history(), monitor.norm_history());
  EXPECT_EQ(restored.loss_history(), monitor.loss_history());
  EXPECT_EQ(restored.SerializeState(), blob);
}

TEST(RoundHealthMonitor, MalformedStateRejectedWithoutDamage) {
  RoundHealthMonitor monitor;
  ArmMonitor(&monitor);
  const std::string good = monitor.SerializeState();

  RoundHealthMonitor victim;
  ArmMonitor(&victim);
  EXPECT_FALSE(victim.DeserializeState("").ok());
  EXPECT_FALSE(victim.DeserializeState("garbage").ok());
  EXPECT_FALSE(victim.DeserializeState(good.substr(0, good.size() - 3)).ok());
  EXPECT_FALSE(victim.DeserializeState(good + "x").ok());
  std::string bad_magic = good;
  bad_magic[0] = static_cast<char>(bad_magic[0] + 1);
  EXPECT_FALSE(victim.DeserializeState(bad_magic).ok());
  // Every rejection left the current state untouched.
  EXPECT_EQ(victim.SerializeState(), good);
}

// ---------------------------------------------------------------------
// ReputationBook

ReputationConfig QuickQuarantine() {
  ReputationConfig config;  // threshold .6, parole 4
  return config;
}

TEST(ReputationBook, CorruptUploadsEscalateToQuarantine) {
  ReputationBook book(3, QuickQuarantine());
  // One corrupt event: score 0.5, below the 0.6 threshold.
  EXPECT_FALSE(book.Observe(1, /*corrupt=*/true, false, false));
  EXPECT_FALSE(book.IsQuarantined(1));
  EXPECT_DOUBLE_EQ(book.client(1).score, 0.5);
  // Second in a row: 0.75 >= 0.6 -> quarantined, transition reported.
  EXPECT_TRUE(book.Observe(1, true, false, false));
  EXPECT_TRUE(book.IsQuarantined(1));
  EXPECT_EQ(book.QuarantinedCount(), 1);
  EXPECT_EQ(book.client(1).corrupt_events, 2);
  // Already quarantined: no second transition.
  EXPECT_FALSE(book.Observe(1, true, false, false));
  // Bystanders untouched.
  EXPECT_FALSE(book.IsQuarantined(0));
  EXPECT_FALSE(book.IsQuarantined(2));
}

TEST(ReputationBook, CleanRoundsDecayTheScore) {
  ReputationBook book(1, QuickQuarantine());
  EXPECT_FALSE(book.Observe(0, true, false, false));
  const double after_offence = book.client(0).score;
  EXPECT_FALSE(book.Observe(0, false, false, false));
  EXPECT_LT(book.client(0).score, after_offence);
}

TEST(ReputationBook, MaxSeverityWinsWhenEventsOverlap) {
  ReputationBook book(1, QuickQuarantine());
  // corrupt (1.0) beats outlier (0.5): one observation scores 0.5.
  book.Observe(0, true, false, true);
  EXPECT_DOUBLE_EQ(book.client(0).score, 0.5);
  EXPECT_EQ(book.client(0).corrupt_events, 1);
  EXPECT_EQ(book.client(0).outlier_events, 1);
}

TEST(ReputationBook, ParoleAfterServingAndProbationScore) {
  ReputationConfig config = QuickQuarantine();
  config.parole_rounds = 2;
  ReputationBook book(2, config);
  book.Observe(0, true, false, false);
  book.Observe(0, true, false, false);
  ASSERT_TRUE(book.IsQuarantined(0));
  EXPECT_EQ(book.Tick(), 0);  // served 1 of 2
  EXPECT_TRUE(book.IsQuarantined(0));
  EXPECT_EQ(book.Tick(), 1);  // served 2 of 2 -> paroled
  EXPECT_FALSE(book.IsQuarantined(0));
  EXPECT_DOUBLE_EQ(book.client(0).score, 0.5 * config.quarantine_threshold);
  // Probation: one more corrupt upload goes straight back.
  EXPECT_TRUE(book.Observe(0, true, false, false));
  EXPECT_TRUE(book.IsQuarantined(0));
}

TEST(ReputationBook, LedgerRoundTripsThroughSerialization) {
  ReputationBook book(3, QuickQuarantine());
  book.Observe(0, true, false, false);
  book.Observe(1, false, true, false);
  book.Observe(2, true, false, false);
  book.Observe(2, true, false, false);
  book.Tick();
  const std::string blob = book.Serialize();

  ReputationBook restored(3, QuickQuarantine());
  ASSERT_TRUE(restored.Deserialize(blob).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(restored.client(i).score, book.client(i).score);
    EXPECT_EQ(restored.client(i).quarantined, book.client(i).quarantined);
    EXPECT_EQ(restored.client(i).quarantine_age, book.client(i).quarantine_age);
    EXPECT_EQ(restored.client(i).corrupt_events, book.client(i).corrupt_events);
  }
  EXPECT_EQ(restored.Serialize(), blob);
}

TEST(ReputationBook, MalformedLedgerRejectedWithoutDamage) {
  ReputationBook book(2, QuickQuarantine());
  book.Observe(0, true, false, false);
  const std::string good = book.Serialize();

  EXPECT_FALSE(book.Deserialize("").ok());
  EXPECT_FALSE(book.Deserialize(good.substr(0, good.size() - 1)).ok());
  EXPECT_FALSE(book.Deserialize(good + "y").ok());
  // A ledger for a different fleet size must not load.
  ReputationBook bigger(5, QuickQuarantine());
  EXPECT_FALSE(bigger.Deserialize(good).ok());

  // Client 0's entry follows the 16-byte header: the f64 score, the
  // quarantine flag, then u32 age and corrupt, rejected, outlier and
  // suspect counts.
  auto patched = [&good](char quarantined, size_t field, uint32_t value) {
    std::string blob = good;
    blob[24] = quarantined;
    std::memcpy(&blob[25 + 4 * field], &value, sizeof(value));
    return blob;
  };
  // Counts the next Tick or Observe would overflow, or that read back
  // negative.
  for (size_t field = 0; field < 5; ++field) {
    for (const uint32_t value : {0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu}) {
      EXPECT_FALSE(book.Deserialize(patched(1, field, value)).ok())
          << "field " << field << " holds " << value;
    }
  }
  // A free client has served no quarantine time; a quarantined one may
  // have (checked on another book: this one must stay undamaged).
  EXPECT_FALSE(book.Deserialize(patched(0, 0, 1)).ok());
  ReputationBook other(2, QuickQuarantine());
  ASSERT_TRUE(other.Deserialize(patched(1, 0, 1)).ok());
  EXPECT_EQ(other.client(0).quarantine_age, 1);
  EXPECT_EQ(book.Serialize(), good);
}

// ---------------------------------------------------------------------
// End to end: divergence rollback + quarantine on the stub model.

TEST(SelfHealingTrainer, DivergenceIsDetectedRolledBackAndQuarantined) {
  const int rounds = 12;
  auto clients = MakeClients(4, 51);

  // Baseline: same poison, healing off. The mean aggregate absorbs the
  // 1e8 upload every round; the run ends far from any client target.
  FederatedTrainer unguarded(MakeStub, &clients, HealingOptions(rounds, false));
  HostileCohortUpdate poison_off(/*num_hostile=*/1, /*clean_updates=*/3, 1e8);
  const FederatedRunResult off = unguarded.Run(&poison_off);
  const double off_loss = off.history.back().valid_loss;
  EXPECT_GT(std::fabs(
                dynamic_cast<StubModel*>(unguarded.global_model())->weight()),
            1e4);

  FederatedTrainer guarded(MakeStub, &clients, HealingOptions(rounds, true));
  HostileCohortUpdate poison_on(/*num_hostile=*/1, /*clean_updates=*/3, 1e8);
  const FederatedRunResult on = guarded.Run(&poison_on);

  // The blow-up was detected and rolled back, not committed.
  EXPECT_GE(on.faults[kDivergedRounds], 1);
  EXPECT_GE(on.faults[kRollbacks], 1);
  EXPECT_FALSE(on.gave_up);
  ASSERT_EQ(on.history.size(), static_cast<size_t>(rounds));
  for (const RoundRecord& record : on.history) {
    EXPECT_NE(record[kVerdict], static_cast<int>(HealthVerdict::kDiverged));
    EXPECT_TRUE(IsFinite(record.valid_loss));
  }
  // Escalation latched: rounds after the divergence ran hardened.
  EXPECT_TRUE(on.history.back().escalated);

  // The offender was flagged, quarantined, and skipped.
  EXPECT_GE(on.faults[kOutlierUploads], 1);
  EXPECT_GE(on.faults[kQuarantineEvents], 1);
  EXPECT_GE(on.faults[kQuarantinedSkips], 1);
  ASSERT_NE(guarded.reputation(), nullptr);
  EXPECT_GE(guarded.reputation()->client(0).outlier_events, 1);

  // The healed run ends finite and far better than the unguarded one.
  const auto flat = guarded.global_model()->params().Flatten();
  EXPECT_TRUE(AllFinite(flat));
  EXPECT_LT(std::fabs(
                dynamic_cast<StubModel*>(guarded.global_model())->weight()),
            100.0);
  EXPECT_LT(on.history.back().valid_loss, off_loss);
}

TEST(SelfHealingTrainer, RollbackBudgetZeroParksAtLastHealthyState) {
  auto clients = MakeClients(4, 53);
  FederatedTrainerOptions options = HealingOptions(12, true);
  options.healing.max_rollbacks = 0;
  FederatedTrainer trainer(MakeStub, &clients, options);
  HostileCohortUpdate poison(/*num_hostile=*/1, /*clean_updates=*/3, 1e8);
  const FederatedRunResult result = trainer.Run(&poison);

  EXPECT_TRUE(result.gave_up);
  // The first divergence (round 4) stops the run at round 3's state.
  EXPECT_EQ(result.history.size(), 3u);
  EXPECT_EQ(result.faults[kDivergedRounds], 1);
  EXPECT_EQ(result.faults[kRollbacks], 0);
  EXPECT_TRUE(AllFinite(trainer.global_model()->params().Flatten()));
}

TEST(SelfHealingTrainer, HealthyRunsAreUnaffectedByTheHealingLayer) {
  auto clients = MakeClients(4, 55);
  FederatedTrainerOptions off_options = HealingOptions(8, false);
  off_options.tolerance.screen.enabled = true;
  FederatedTrainer off_trainer(MakeStub, &clients, off_options);
  const FederatedRunResult off = off_trainer.Run();

  FederatedTrainerOptions on_options = HealingOptions(8, true);
  on_options.tolerance.screen.enabled = true;
  FederatedTrainer on_trainer(MakeStub, &clients, on_options);
  const FederatedRunResult on = on_trainer.Run();

  // No faults, no quarantine: the healing layer is pure observation and
  // the trained model is bitwise identical to the plain run.
  EXPECT_EQ(on.faults[kDivergedRounds], 0);
  EXPECT_EQ(on.faults[kRollbacks], 0);
  EXPECT_EQ(on.faults[kQuarantineEvents], 0);
  EXPECT_EQ(dynamic_cast<StubModel*>(on_trainer.global_model())->weight(),
            dynamic_cast<StubModel*>(off_trainer.global_model())->weight());
  ASSERT_EQ(on.history.size(), off.history.size());
  for (size_t r = 0; r < on.history.size(); ++r) {
    EXPECT_EQ(on.history[r][kVerdict],
              static_cast<int>(HealthVerdict::kHealthy));
    EXPECT_DOUBLE_EQ(on.history[r].valid_loss, off.history[r].valid_loss);
  }
}

TEST(SelfHealingTrainer, ReputationSurvivesSnapshotResume) {
  const std::string dir = test_util::FreshDir("lighttr_health_resume");
  auto clients = MakeClients(4, 57);
  FederatedTrainerOptions options = HealingOptions(8, true);
  options.durability.dir = dir;

  FederatedTrainer first(MakeStub, &clients, options);
  HostileCohortUpdate poison(/*num_hostile=*/1, /*clean_updates=*/3, 1e8);
  first.Run(&poison);
  ASSERT_NE(first.reputation(), nullptr);
  const std::string ledger = first.reputation()->Serialize();

  FederatedTrainer second(MakeStub, &clients, options);
  ASSERT_TRUE(second.ResumeFrom(dir).ok());
  ASSERT_NE(second.reputation(), nullptr);
  EXPECT_EQ(second.reputation()->Serialize(), ledger);
  EXPECT_EQ(second.resumed_round(), 8);
}

// ---------------------------------------------------------------------
// Attribution guard: network damage vs. client misbehaviour.

TEST(SelfHealingTrainer, WireCorruptionNeverFeedsReputation) {
  // A filthy wire with an ample retry budget: every damaged frame fails
  // its CRC, is discarded, and is re-sent intact. Reputation judges
  // only payloads that survived the CRC, so it must see zero evidence
  // against any client — no events, no score, no quarantine.
  auto clients = MakeClients(3, 61);
  FederatedTrainerOptions options;
  options.rounds = 6;
  options.local_epochs = 1;
  options.healing.enabled = true;
  options.healing.reputation.quarantine_threshold = 0.4;
  options.transport.channel.corrupt_rate = 0.4;
  options.transport.retry.max_retries = 64;
  FederatedTrainer trainer(MakeStub, &clients, options);
  const FederatedRunResult result = trainer.Run();

  EXPECT_GT(result.faults[kNetCrcDrops], 0);  // the wire really was hostile
  EXPECT_GT(result.faults[kNetRetries], 0);
  ASSERT_NE(trainer.reputation(), nullptr);
  for (int c = 0; c < trainer.num_clients(); ++c) {
    EXPECT_DOUBLE_EQ(trainer.reputation()->client(c).score, 0.0);
    EXPECT_EQ(trainer.reputation()->client(c).corrupt_events, 0);
    EXPECT_EQ(trainer.reputation()->client(c).outlier_events, 0);
    EXPECT_FALSE(trainer.reputation()->client(c).quarantined);
  }
  EXPECT_EQ(result.faults[kQuarantineEvents], 0);
  EXPECT_EQ(result.faults[kRejectedUploads], 0);
}

TEST(SelfHealingTrainer, ClientCorruptionStillScoresThroughTheTransport) {
  // The mirror image: FaultModel corruption is *client* misbehaviour.
  // It ships inside CRC-valid frames, so screening and reputation see
  // it and score the offender even with the framed transport on.
  auto clients = MakeClients(3, 63);
  FederatedTrainerOptions options;
  options.rounds = 8;
  options.local_epochs = 1;
  options.healing.enabled = true;
  options.faults.corruption_rate = 1.0;
  FederatedTrainer trainer(MakeStub, &clients, options);
  const FederatedRunResult result = trainer.Run();

  EXPECT_GT(result.faults[kRejectedUploads], 0);
  ASSERT_NE(trainer.reputation(), nullptr);
  int corrupt_events = 0;
  for (int c = 0; c < trainer.num_clients(); ++c) {
    corrupt_events += trainer.reputation()->client(c).corrupt_events;
  }
  EXPECT_GT(corrupt_events, 0);
  // And the clean wire stays clean: no network-attributed incidents.
  EXPECT_EQ(result.faults[kNetCrcDrops], 0);
  EXPECT_EQ(result.faults[kNetRetries], 0);
  EXPECT_EQ(result.faults[kNetLost], 0);
}

}  // namespace
}  // namespace lighttr::fl
