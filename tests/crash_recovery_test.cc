// Tests for the durability layer: run-state snapshot integrity, crash
// injection at every CrashPoint, and bitwise-identical resume of an
// interrupted federated run, round history included.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "chaos/stub_federation.h"
#include "common/env.h"
#include "fl/federated_trainer.h"
#include "fl/run_state.h"
#include "fixtures.h"

namespace lighttr::fl {
namespace {

using chaos::MakeClients;
using chaos::MakeStub;
using test_util::DistinctiveState;
using test_util::FreshDir;

// A lossy 30-round configuration so resume must restore the fault RNG
// stream (drops, retries, backoff jitter) as well as the model state.
FederatedTrainerOptions LossyOptions(int rounds = 30) {
  FederatedTrainerOptions options;
  options.rounds = rounds;
  options.local_epochs = 2;
  options.learning_rate = 0.05;
  options.faults.dropout_rate = 0.2;
  options.faults.corruption_rate = 0.05;
  options.tolerance.retry.max_retries = 2;
  return options;
}

std::vector<nn::Scalar> FinalParams(FederatedTrainer* trainer) {
  return trainer->global_model()->params().Flatten();
}

FileSystem* Disk() { return RealFileSystemInstance(); }

void CorruptFile(const std::string& path) {
  Result<std::string> contents = Disk()->ReadFile(path);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  std::string bytes = contents.value();
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] ^= static_cast<char>(0x40);
  ASSERT_TRUE(Disk()->WriteFileAtomic(path, bytes).ok());
}

// ---------------------------------------------------------------------
// ServerRunState encode / decode

TEST(RunState, DecodeRejectsAnySingleBitFlip) {
  const std::string encoded = EncodeRunState(DistinctiveState());
  // Flip one bit at a spread of positions (every byte would be slow).
  for (size_t pos = 0; pos < encoded.size(); pos += 7) {
    std::string damaged = encoded;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x10);
    ServerRunState out;
    EXPECT_FALSE(DecodeRunState(damaged, &out).ok())
        << "bit flip at byte " << pos << " was not detected";
  }
}

TEST(RunState, SaveLoadThroughDisk) {
  const std::string dir = FreshDir("run_state_disk");
  const std::string path = SnapshotPath(dir, 7);
  ASSERT_TRUE(SaveRunState(Disk(), path, DistinctiveState()).ok());
  Result<ServerRunState> loaded = LoadRunState(Disk(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().round, DistinctiveState().round);
  EXPECT_FALSE(LoadRunState(Disk(), SnapshotPath(dir, 8)).ok());  // missing
}

TEST(RunState, ListAndPruneSnapshots) {
  const std::string dir = FreshDir("run_state_list");
  EXPECT_FALSE(ListSnapshotRounds(Disk(), dir).ok());  // NotFound before save
  const ServerRunState state = DistinctiveState();
  for (int round : {4, 8, 12, 16}) {
    ASSERT_TRUE(SaveRunState(Disk(), SnapshotPath(dir, round), state).ok());
  }
  // In-flight temp files and unrelated names are ignored.
  ASSERT_TRUE(
      Disk()->WriteFileAtomic(SnapshotPath(dir, 20) + ".tmp", "partial").ok());
  ASSERT_TRUE(Disk()->WriteFileAtomic(dir + "/notes.txt", "x").ok());
  Result<std::vector<int>> rounds = ListSnapshotRounds(Disk(), dir);
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(rounds.value(), (std::vector<int>{4, 8, 12, 16}));

  PruneSnapshots(Disk(), dir, 2);
  rounds = ListSnapshotRounds(Disk(), dir);
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(rounds.value(), (std::vector<int>{12, 16}));
}

// A name that parses as a round but is not what SnapshotPath writes
// (here the unpadded "snapshot-12.ltrs") is not a snapshot: listing it
// as round 12 would make pruning keep it and delete the real newest one.
TEST(RunState, StraySnapshotNameNeitherListsNorDisplacesTheRealOne) {
  const std::string dir = FreshDir("run_state_stray");
  ASSERT_TRUE(
      SaveRunState(Disk(), SnapshotPath(dir, 3), DistinctiveState()).ok());
  for (const char* stray : {"snapshot-12.ltrs", "snapshot-+00012.ltrs",
                            "snapshot- 00012.ltrs", "snapshot-0000012.ltrs"}) {
    ASSERT_TRUE(Disk()->WriteFileAtomic(dir + "/" + stray, "stray").ok());
  }
  Result<std::vector<int>> rounds = ListSnapshotRounds(Disk(), dir);
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(rounds.value(), (std::vector<int>{3}));

  PruneSnapshots(Disk(), dir, 1);
  EXPECT_TRUE(Disk()->Exists(SnapshotPath(dir, 3)));
  EXPECT_TRUE(Disk()->Exists(dir + "/snapshot-12.ltrs"));  // not ours
}

// ---------------------------------------------------------------------
// Crash injection + resume (end to end)

TEST(CrashRecovery, DurabilityDoesNotPerturbTraining) {
  auto clients = MakeClients(4, 51);
  FederatedTrainer plain(MakeStub, &clients, LossyOptions());
  const FederatedRunResult plain_result = plain.Run();

  FederatedTrainerOptions durable_options = LossyOptions();
  durable_options.durability.dir = FreshDir("durability_noop");
  durable_options.durability.snapshot_every = 3;
  FederatedTrainer durable(MakeStub, &clients, durable_options);
  const FederatedRunResult durable_result = durable.Run();

  EXPECT_EQ(DescribeMismatch(plain_result, durable_result), "");
  EXPECT_EQ(FinalParams(&plain), FinalParams(&durable));
}

// LossyOptions plus every other counter family at once: a hostile
// network, the healing layer, and a defended poisoning attack, so a
// resume that dropped any net, healing, or adversary counter (or its RNG
// stream) diverges somewhere.
FederatedTrainerOptions HostileOptions() {
  FederatedTrainerOptions options = LossyOptions();
  options.client_fraction = 1.0;
  options.transport.channel.drop_rate = 0.1;
  options.transport.channel.corrupt_rate = 0.1;
  options.transport.channel.duplicate_rate = 0.1;
  options.healing.enabled = true;
  options.healing.reputation.quarantine_threshold = 0.45;
  options.adversary.num_attackers = 2;
  options.adversary.attack = AttackType::kScaledAscent;
  options.tolerance.aggregator.policy = AggregatorPolicy::kMultiKrum;
  options.tolerance.aggregator.byzantine_fraction = 0.3;
  options.tolerance.aggregator.exclude_suspected = true;
  return options;
}

// The acceptance matrix: for every CrashPoint, a run killed mid-flight
// and resumed in a fresh process (trainer) must converge to the exact
// bits of an uninterrupted run, telemetry included.
TEST(CrashRecovery, EveryCrashPointResumesBitwiseIdentical) {
  auto clients = MakeClients(8, 53);
  for (const bool hostile : {false, true}) {
    const std::string scenario = hostile ? "hostile" : "lossy";
    SCOPED_TRACE(scenario);
    const FederatedTrainerOptions base =
        hostile ? HostileOptions() : LossyOptions();
    FederatedTrainer baseline(MakeStub, &clients, base);
    const FederatedRunResult expected = baseline.Run();
    const std::vector<nn::Scalar> expected_params = FinalParams(&baseline);
    if (hostile) {
      // The scenario really exercises each family.
      EXPECT_GT(expected.faults[kNetRetries], 0);
      EXPECT_GT(expected.faults[kNetLost], 0);
      EXPECT_GT(expected.faults[kPoisonedUploads], 0);
      EXPECT_GT(expected.faults[kSuspectedUploads], 0);
      EXPECT_GT(expected.faults[kQuarantineEvents], 0);
      EXPECT_GT(expected.faults[kParoleEvents], 0);
    }

    struct Case {
      CrashPoint point;
      int round;
    };
    // Save-point crashes must land on a snapshot round (every 3rd);
    // kMidRound may land anywhere.
    const Case cases[] = {
        {CrashPoint::kBeforeSave, 15},
        {CrashPoint::kMidSave, 15},
        {CrashPoint::kAfterSave, 15},
        {CrashPoint::kMidRound, 17},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(CrashPointName(c.point));
      FederatedTrainerOptions options = base;
      options.durability.dir =
          FreshDir("crash_" + scenario + "_" + CrashPointName(c.point));
      options.durability.snapshot_every = 3;
      options.durability.crash_point = c.point;
      options.durability.crash_round = c.round;

      bool crashed = false;
      {
        FederatedTrainer victim(MakeStub, &clients, options);
        try {
          victim.Run();
        } catch (const InjectedCrash& crash) {
          crashed = true;
          EXPECT_EQ(crash.point, c.point);
          EXPECT_EQ(crash.round, c.round);
        }
      }
      ASSERT_TRUE(crashed);

      options.durability.crash_point = CrashPoint::kNone;
      options.durability.crash_round = 0;
      options.durability.resume = true;
      FederatedTrainer resumed(MakeStub, &clients, options);
      const FederatedRunResult result = resumed.Run();
      EXPECT_GT(resumed.resumed_round(), 0);       // actually resumed,
      EXPECT_LT(resumed.resumed_round(), c.round + 1);  // from before the crash
      EXPECT_EQ(DescribeMismatch(expected, result), "");
      EXPECT_EQ(expected_params, FinalParams(&resumed));
    }
  }
}

// Thread count is a pure performance knob even across a crash: a run
// interrupted at one width and resumed at another must replay to the
// exact result of an uninterrupted serial run. (The snapshot carries
// only rng_/fault_rng_ states; the per-round per-client streams are
// re-forked from them in canonical order, identically at any width.)
TEST(CrashRecovery, ResumeUnderDifferentThreadCountIsBitwiseIdentical) {
  auto clients = MakeClients(4, 53);
  FederatedTrainerOptions serial_options = LossyOptions();
  serial_options.threads = 1;
  FederatedTrainer baseline(MakeStub, &clients, serial_options);
  const FederatedRunResult expected = baseline.Run();
  const std::vector<nn::Scalar> expected_params = FinalParams(&baseline);

  FederatedTrainerOptions options = LossyOptions();
  options.threads = 8;
  options.durability.dir = FreshDir("crash_threads");
  options.durability.snapshot_every = 3;
  options.durability.crash_point = CrashPoint::kMidRound;
  options.durability.crash_round = 17;

  bool crashed = false;
  {
    FederatedTrainer victim(MakeStub, &clients, options);
    try {
      victim.Run();
    } catch (const InjectedCrash& crash) {
      crashed = true;
      EXPECT_EQ(crash.point, CrashPoint::kMidRound);
    }
  }
  ASSERT_TRUE(crashed);

  options.threads = 2;
  options.durability.crash_point = CrashPoint::kNone;
  options.durability.crash_round = 0;
  options.durability.resume = true;
  FederatedTrainer resumed(MakeStub, &clients, options);
  const FederatedRunResult result = resumed.Run();
  EXPECT_GT(resumed.resumed_round(), 0);
  EXPECT_EQ(DescribeMismatch(expected, result), "");
  EXPECT_EQ(expected_params, FinalParams(&resumed));
}

// Storage faults cost a run durability coverage (failed snapshots), but
// never the history of the rounds it resumes past: every snapshot that
// does land carries every record up to its round.
TEST(CrashRecovery, StorageFaultsNeverCostAResumedRunItsHistory) {
  auto clients = MakeClients(3, 67);
  FederatedTrainer baseline(MakeStub, &clients, LossyOptions(8));
  const FederatedRunResult expected = baseline.Run();

  StorageFaultConfig storage;
  storage.seed = 5;
  storage.enospc_rate = 0.3;
  FaultyFileSystem fs(storage);
  FederatedTrainerOptions options = LossyOptions(8);
  options.durability.dir = "run";
  options.durability.fs = &fs;
  options.durability.crash_point = CrashPoint::kAfterSave;
  options.durability.crash_round = 6;
  {
    FederatedTrainer victim(MakeStub, &clients, options);
    EXPECT_THROW(victim.Run(), InjectedCrash);
  }
  ASSERT_GT(fs.stats().WriteFaults(), 0);

  options.durability.crash_point = CrashPoint::kNone;
  options.durability.crash_round = 0;
  options.durability.resume = true;
  FederatedTrainer resumed(MakeStub, &clients, options);
  const FederatedRunResult result = resumed.Run();
  EXPECT_GT(resumed.resumed_round(), 0);
  ASSERT_EQ(result.history.size(), 8u);
  EXPECT_EQ(DescribeMismatch(result.history, expected.history), "");
}

TEST(CrashRecovery, CorruptedLatestSnapshotFallsBackToPrevious) {
  auto clients = MakeClients(4, 55);
  FederatedTrainer baseline(MakeStub, &clients, LossyOptions());
  const FederatedRunResult expected = baseline.Run();
  const std::vector<nn::Scalar> expected_params = FinalParams(&baseline);

  FederatedTrainerOptions options = LossyOptions();
  options.durability.dir = FreshDir("corrupt_latest");
  options.durability.snapshot_every = 1;
  options.durability.keep_snapshots = 3;
  {
    FederatedTrainer first(MakeStub, &clients, options);
    first.Run();
  }
  // Damage the newest snapshot; the checksum must reject it and resume
  // must fall back to round 29 and re-run the final round.
  CorruptFile(SnapshotPath(options.durability.dir, 30));

  options.durability.resume = true;
  FederatedTrainer resumed(MakeStub, &clients, options);
  ASSERT_TRUE(resumed.ResumeFrom(options.durability.dir).ok());
  EXPECT_EQ(resumed.resumed_round(), 29);
  const FederatedRunResult result = resumed.Run();
  EXPECT_EQ(DescribeMismatch(expected, result), "");
  EXPECT_EQ(expected_params, FinalParams(&resumed));
}

TEST(CrashRecovery, AllSnapshotsCorruptedIsAnErrorNotACrash) {
  auto clients = MakeClients(3, 57);
  FederatedTrainerOptions options = LossyOptions(6);
  options.durability.dir = FreshDir("corrupt_all");
  options.durability.snapshot_every = 2;
  {
    FederatedTrainer first(MakeStub, &clients, options);
    first.Run();
  }
  Result<std::vector<int>> rounds =
      ListSnapshotRounds(Disk(), options.durability.dir);
  ASSERT_TRUE(rounds.ok());
  for (int round : rounds.value()) {
    CorruptFile(SnapshotPath(options.durability.dir, round));
  }
  FederatedTrainer resumed(MakeStub, &clients, options);
  const Status status = resumed.ResumeFrom(options.durability.dir);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(resumed.resumed_round(), 0);
}

TEST(CrashRecovery, ResumeFromEmptyDirectoryStartsFresh) {
  auto clients = MakeClients(3, 59);
  FederatedTrainerOptions options = LossyOptions(4);
  FederatedTrainer baseline(MakeStub, &clients, options);
  const FederatedRunResult expected = baseline.Run();

  options.durability.dir = FreshDir("resume_fresh");
  options.durability.resume = true;
  FederatedTrainer trainer(MakeStub, &clients, options);
  const FederatedRunResult result = trainer.Run();
  EXPECT_EQ(trainer.resumed_round(), 0);
  EXPECT_EQ(DescribeMismatch(expected, result), "");
}

TEST(CrashRecovery, MidSaveLeavesOnlyATempFile) {
  auto clients = MakeClients(3, 61);
  FederatedTrainerOptions options = LossyOptions(6);
  options.durability.dir = FreshDir("midsave_tmp");
  options.durability.snapshot_every = 2;
  options.durability.crash_point = CrashPoint::kMidSave;
  options.durability.crash_round = 2;  // first snapshot ever
  FederatedTrainer victim(MakeStub, &clients, options);
  EXPECT_THROW(victim.Run(), InjectedCrash);

  // The torn temp file must not be mistaken for a snapshot.
  Result<std::vector<int>> rounds =
      ListSnapshotRounds(Disk(), options.durability.dir);
  ASSERT_TRUE(rounds.ok());
  EXPECT_TRUE(rounds.value().empty());
  EXPECT_TRUE(std::filesystem::exists(
      SnapshotPath(options.durability.dir, 2) + ".tmp"));
}

}  // namespace
}  // namespace lighttr::fl
