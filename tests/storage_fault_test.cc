// Tests for the storage-fault layer: FaultyFileSystem semantics (every
// fault axis, sync/crash behavior, seeded determinism), the
// failure-path hygiene contract both FileSystem backends share, the
// run-state format (every counter and the round history round-trip;
// only the current version is read), backoff saturation at extreme
// retry counts, and corrupted-newest snapshot fallback driven by a
// filesystem-injected read fault rather than on-disk byte surgery.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/stub_federation.h"
#include "common/backoff.h"
#include "common/binary_io.h"
#include "common/crc32.h"
#include "common/env.h"
#include "fl/federated_trainer.h"
#include "fl/run_state.h"
#include "fixtures.h"

namespace lighttr {
namespace {

// Number of differing bits between two equal-length byte strings.
int BitDifference(const std::string& a, const std::string& b) {
  EXPECT_EQ(a.size(), b.size());
  int bits = 0;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    unsigned char x = static_cast<unsigned char>(a[i]) ^
                      static_cast<unsigned char>(b[i]);
    for (; x != 0; x &= static_cast<unsigned char>(x - 1)) ++bits;
  }
  return bits;
}

std::string MustRead(FileSystem* fs, const std::string& path) {
  Result<std::string> contents = fs->ReadFile(path);
  EXPECT_TRUE(contents.ok()) << contents.status().ToString();
  return contents.ok() ? contents.value() : std::string();
}

// ---------------------------------------------------------------------
// FaultyFileSystem as a plain RAM disk (all-zero fault config).

TEST(FaultyFileSystem, CleanConfigActsAsDeterministicRamDisk) {
  FaultyFileSystem fs;
  ASSERT_TRUE(fs.CreateDirs("a/b").ok());
  EXPECT_TRUE(fs.Exists("a"));
  EXPECT_TRUE(fs.Exists("a/b"));

  ASSERT_TRUE(fs.WriteFileAtomic("a/b/x", "hello").ok());
  EXPECT_TRUE(fs.Exists("a/b/x"));
  EXPECT_EQ(MustRead(&fs, "a/b/x"), "hello");
  ASSERT_TRUE(fs.WriteFileAtomic("a/b/x", "rewritten").ok());
  EXPECT_EQ(MustRead(&fs, "a/b/x"), "rewritten");

  ASSERT_TRUE(fs.WriteFileAtomic("a/b/log", "one two").ok());
  EXPECT_EQ(MustRead(&fs, "a/b/log"), "one two");

  Result<std::vector<std::string>> names = fs.ListDir("a/b");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{"log", "x"}));
  EXPECT_FALSE(fs.ListDir("missing").ok());
  EXPECT_EQ(fs.ListDir("missing").status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(fs.Remove("a/b/log").ok());
  EXPECT_FALSE(fs.Exists("a/b/log"));
  ASSERT_TRUE(fs.Remove("a/b/log").ok());  // removing a missing file is OK

  // Writes into a directory that was never created must fail, not
  // invent parents behind the caller's back.
  EXPECT_FALSE(fs.WriteFileAtomic("nodir/f", "x").ok());
  EXPECT_FALSE(fs.ReadFile("a/b/ghost").ok());

  const StorageFaultStats stats = fs.stats();
  EXPECT_EQ(stats.WriteFaults(), 0);
  EXPECT_EQ(stats.bitrot_reads, 0);
  EXPECT_EQ(stats.tmp_litter_files, 0);
}

// ---------------------------------------------------------------------
// Individual fault axes.

TEST(FaultyFileSystem, EnospcFailsTheCallAndLeavesContentsUntouched) {
  StorageFaultConfig config;
  config.enospc_rate = 1.0;
  FaultyFileSystem fs(config);
  fs.set_faults_paused(true);
  ASSERT_TRUE(fs.WriteFileAtomic("f", "old").ok());
  fs.set_faults_paused(false);

  EXPECT_EQ(fs.WriteFileAtomic("f", "new").code(), StatusCode::kIoError);
  EXPECT_EQ(MustRead(&fs, "f"), "old");
  EXPECT_FALSE(fs.Exists("f.tmp"));

  const StorageFaultStats stats = fs.stats();
  EXPECT_EQ(stats.enospc_failures, 1);
  EXPECT_EQ(stats.WriteFaults(), 1);
}

TEST(FaultyFileSystem, RenameFailureKeepsOldContentsAndCleansTemp) {
  StorageFaultConfig config;
  config.rename_fail_rate = 1.0;
  FaultyFileSystem fs(config);
  fs.set_faults_paused(true);
  ASSERT_TRUE(fs.WriteFileAtomic("f", "old").ok());
  fs.set_faults_paused(false);

  EXPECT_EQ(fs.WriteFileAtomic("f", "new").code(), StatusCode::kIoError);
  EXPECT_EQ(MustRead(&fs, "f"), "old");
  // The hygiene contract: the failed writer's temp does not survive.
  EXPECT_FALSE(fs.Exists("f.tmp"));
  for (const std::string& path : fs.AllFiles()) {
    EXPECT_EQ(path.find(".tmp"), std::string::npos) << path;
  }
  EXPECT_EQ(fs.stats().rename_failures, 1);
}

TEST(FaultyFileSystem, PlantedLeakLeavesOrphanTempThatIsNotLitter) {
  StorageFaultConfig config;
  config.rename_fail_rate = 1.0;
  FaultyFileSystem fs(config);
  fs.set_leak_tmp_on_rename_failure(true);
  EXPECT_FALSE(fs.WriteFileAtomic("f", "new").ok());
  // The planted bug leaks the temp — and it must NOT be classified as
  // injected litter, or the orphan-temp invariant could never see it.
  EXPECT_TRUE(fs.Exists("f.tmp"));
  EXPECT_FALSE(fs.IsInjectedLitter("f.tmp"));
}

TEST(FaultyFileSystem, ReadBitrotFlipsOneBitAndLeavesStorageIntact) {
  StorageFaultConfig config;
  config.read_bitrot_rate = 1.0;
  FaultyFileSystem fs(config);
  const std::string original = "the stored bytes stay intact";
  ASSERT_TRUE(fs.WriteFileAtomic("f", original).ok());

  const std::string rotted = MustRead(&fs, "f");
  EXPECT_EQ(BitDifference(original, rotted), 1);

  // Rot is read-path only: with faults paused the pristine contents
  // come back, so the "disk" was never damaged.
  fs.set_faults_paused(true);
  EXPECT_EQ(MustRead(&fs, "f"), original);
  EXPECT_EQ(fs.stats().bitrot_reads, 1);
}

TEST(FaultyFileSystem, InjectBitrotOnceCorruptsExactlyOneRead) {
  FaultyFileSystem fs;  // no configured rot: only the targeted hook
  const std::string original = "snapshot-bytes";
  ASSERT_TRUE(fs.WriteFileAtomic("f", original).ok());
  fs.InjectBitrotOnce("f");

  const std::string first = MustRead(&fs, "f");
  EXPECT_EQ(BitDifference(original, first), 1);
  EXPECT_EQ(MustRead(&fs, "f"), original);  // second read is clean
  EXPECT_EQ(fs.stats().bitrot_reads, 1);
}

TEST(FaultyFileSystem, TmpLitterIsTrackedAndClobberedByTheNextWriter) {
  StorageFaultConfig config;
  config.tmp_litter_rate = 1.0;
  FaultyFileSystem fs(config);
  ASSERT_TRUE(fs.WriteFileAtomic("f", "contents").ok());
  EXPECT_TRUE(fs.Exists("f.tmp"));
  EXPECT_TRUE(fs.IsInjectedLitter("f.tmp"));
  EXPECT_EQ(fs.stats().tmp_litter_files, 1);

  // The next writer's trunc-open clobbers the stale partial even
  // before fault injection gets a say.
  fs.set_faults_paused(true);
  ASSERT_TRUE(fs.WriteFileAtomic("f", "again").ok());
  EXPECT_FALSE(fs.Exists("f.tmp"));
  EXPECT_FALSE(fs.IsInjectedLitter("f.tmp"));
}

TEST(FaultyFileSystem, LossyCrashRevertsToSyncedAndDropsNeverSynced) {
  StorageFaultConfig config;
  config.lose_unsynced_on_crash = true;
  FaultyFileSystem fs(config);
  ASSERT_TRUE(fs.WriteFileAtomic("a", "v1").ok());
  ASSERT_TRUE(fs.SyncAll().ok());
  ASSERT_TRUE(fs.WriteFileAtomic("a", "v2").ok());   // unsynced rewrite
  ASSERT_TRUE(fs.WriteFileAtomic("b", "only").ok()); // never synced

  fs.SimulateCrash();
  EXPECT_EQ(MustRead(&fs, "a"), "v1");
  EXPECT_FALSE(fs.Exists("b"));

  const StorageFaultStats stats = fs.stats();
  EXPECT_EQ(stats.crash_reverted_files, 1);
  EXPECT_EQ(stats.crash_lost_files, 1);
}

TEST(FaultyFileSystem, KindCrashKeepsEverything) {
  FaultyFileSystem fs;  // lose_unsynced_on_crash defaults to false
  ASSERT_TRUE(fs.WriteFileAtomic("a", "unsynced").ok());
  fs.SimulateCrash();
  EXPECT_EQ(MustRead(&fs, "a"), "unsynced");
  EXPECT_EQ(fs.stats().crash_reverted_files, 0);
  EXPECT_EQ(fs.stats().crash_lost_files, 0);
}

// ---------------------------------------------------------------------
// Determinism of the fault schedule.

TEST(FaultyFileSystem, SameSeedSameOperationsSameFaultSchedule) {
  StorageFaultConfig config;
  config.seed = 99;
  config.enospc_rate = 0.3;
  config.rename_fail_rate = 0.3;
  config.read_bitrot_rate = 0.3;
  FaultyFileSystem a(config);
  FaultyFileSystem b(config);
  for (int i = 0; i < 40; ++i) {
    const std::string path = "f" + std::to_string(i % 5);
    EXPECT_EQ(a.WriteFileAtomic(path, "payload").code(),
              b.WriteFileAtomic(path, "payload").code());
    EXPECT_EQ(a.ReadFile(path).ok(), b.ReadFile(path).ok());
  }
  const StorageFaultStats sa = a.stats();
  const StorageFaultStats sb = b.stats();
  EXPECT_EQ(sa.enospc_failures, sb.enospc_failures);
  EXPECT_EQ(sa.rename_failures, sb.rename_failures);
  EXPECT_EQ(sa.bitrot_reads, sb.bitrot_reads);
  EXPECT_EQ(a.AllFiles(), b.AllFiles());
}

TEST(FaultyFileSystem, PausedOperationsConsumeNoFaultDraws) {
  StorageFaultConfig config;
  config.seed = 123;
  config.enospc_rate = 0.5;
  FaultyFileSystem paused_then_live(config);
  FaultyFileSystem fresh(config);

  // Twenty paused operations must not advance the fault stream: after
  // unpausing, the schedule matches a filesystem that never paused.
  paused_then_live.set_faults_paused(true);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(paused_then_live.WriteFileAtomic("warm", "x").ok());
  }
  paused_then_live.set_faults_paused(false);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(paused_then_live.WriteFileAtomic("f", "x").code(),
              fresh.WriteFileAtomic("f", "x").code())
        << "draw " << i;
  }
}

// ---------------------------------------------------------------------
// Hygiene contract on the real backend.

TEST(RealFileSystem, AtomicWriteClobbersStaleTempFromACrashedWriter) {
  FileSystem* fs = RealFileSystemInstance();
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "env_hygiene")
          .generic_string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(fs->CreateDirs(dir).ok());
  const std::string path = dir + "/f";
  ASSERT_TRUE(fs->WriteFileAtomic(path + ".tmp", "stale partial").ok());

  ASSERT_TRUE(fs->WriteFileAtomic(path, "fresh").ok());
  EXPECT_FALSE(fs->Exists(path + ".tmp"));
  EXPECT_EQ(MustRead(fs, path), "fresh");
}

TEST(RealFileSystem, FailedAtomicWriteLeavesNoTemp) {
  FileSystem* fs = RealFileSystemInstance();
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "env_hygiene_fail")
          .generic_string();
  std::filesystem::remove_all(dir);
  // The parent directory does not exist, so the write must fail —
  // and fail cleanly, without leaving a temp anywhere.
  const std::string path = dir + "/missing/f";
  EXPECT_FALSE(fs->WriteFileAtomic(path, "x").ok());
  EXPECT_FALSE(fs->Exists(path + ".tmp"));
  EXPECT_FALSE(fs->Exists(path));
}

// ---------------------------------------------------------------------
// Backoff saturation (the overflow-hardening companion test).

TEST(Backoff, SaturatesAtExtremeRetryCounts) {
  BackoffConfig config;
  config.base_delay_s = 0.5;
  config.max_delay_s = 8.0;
  // Naive pow-based schedules overflow to inf near retry 1024 (and a
  // shift-based one wraps at 63); the capped schedule must return the
  // cap for any huge retry index.
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(config, 63, nullptr), 8.0);
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(config, 1024, nullptr), 8.0);
  EXPECT_DOUBLE_EQ(BackoffDelaySeconds(config, INT_MAX, nullptr), 8.0);
}

// ---------------------------------------------------------------------
// The run-state format: every counter-table row and the round history
// round-trip, and only the current version is read.

using test_util::DistinctiveState;

// Re-signs `blob` (whole-file CRC trailer) after `edit` changes its body.
template <typename Edit>
std::string Resigned(std::string blob, Edit edit) {
  blob.resize(blob.size() - sizeof(uint32_t));  // strip the CRC trailer
  edit(&blob);
  AppendCrc32Trailer(&blob);
  return blob;
}

TEST(RunStateFormat, EveryFieldAndCounterRoundTrips) {
  fl::ServerRunState state = DistinctiveState();
  state.optimizer_blobs.push_back(std::string("\0\x01", 2));  // not C strings
  fl::ServerRunState out;
  ASSERT_TRUE(fl::DecodeRunState(fl::EncodeRunState(state), &out).ok());
  EXPECT_EQ(out.round, state.round);
  EXPECT_EQ(out.rng_state, state.rng_state);
  EXPECT_EQ(out.fault_rng_state, state.fault_rng_state);
  EXPECT_EQ(out.net_rng_state, state.net_rng_state);
  EXPECT_EQ(out.comm.bytes_downlink, state.comm.bytes_downlink);
  EXPECT_EQ(out.comm.bytes_uplink, state.comm.bytes_uplink);
  EXPECT_EQ(out.comm.messages, state.comm.messages);
  EXPECT_EQ(out.comm.rounds, state.comm.rounds);
  EXPECT_EQ(out.faults.simulated_backoff_s, state.faults.simulated_backoff_s);
  EXPECT_EQ(out.faults.counts, state.faults.counts);
  EXPECT_EQ(out.global_params_blob, state.global_params_blob);
  EXPECT_EQ(out.optimizer_blobs, state.optimizer_blobs);
  EXPECT_EQ(out.reputation_blob, state.reputation_blob);
  EXPECT_EQ(out.monitor_blob, state.monitor_blob);
  EXPECT_TRUE(out.escalated);
  EXPECT_EQ(out.adversary_blob, state.adversary_blob);
  EXPECT_EQ(out.normbound_blob, state.normbound_blob);
  EXPECT_EQ(fl::DescribeMismatch(out.history, state.history), "");
  // DescribeMismatch skips wall-clock time; the codec must not.
  ASSERT_EQ(out.history.size(), state.history.size());
  for (size_t i = 0; i < state.history.size(); ++i) {
    EXPECT_EQ(out.history[i].wall_seconds, state.history[i].wall_seconds);
  }
}

// The history must be exactly rounds 1..round in order: a snapshot that
// lost, reordered, or repeated a record is rejected, not half-read.
TEST(RunStateFormat, HistoryMustBeRoundsOneToN) {
  fl::ServerRunState missing = DistinctiveState();
  missing.history.erase(missing.history.begin() + 4);
  fl::ServerRunState reordered = DistinctiveState();
  std::swap(reordered.history[2], reordered.history[3]);
  fl::ServerRunState duplicated = DistinctiveState();
  duplicated.history[3] = duplicated.history[2];
  const std::pair<const char*, const fl::ServerRunState*> cases[] = {
      {"missing", &missing}, {"reordered", &reordered},
      {"duplicated", &duplicated}};
  for (const auto& [name, state] : cases) {
    SCOPED_TRACE(name);
    fl::ServerRunState out;
    EXPECT_EQ(fl::DecodeRunState(fl::EncodeRunState(*state), &out).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(RunStateFormat, OnlyTheCurrentVersionIsRead) {
  const std::string live = fl::EncodeRunState(DistinctiveState());
  for (uint32_t version : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 9u}) {
    // The version word follows the 4-byte magic.
    const std::string patched = Resigned(live, [version](std::string* body) {
      BinaryWriter word;
      word.WriteU32(version);
      body->replace(4, sizeof(uint32_t), word.bytes());
    });
    fl::ServerRunState out;
    const Status status = fl::DecodeRunState(patched, &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(status.message(),
              "unsupported run-state version " + std::to_string(version));
  }
}

// The snapshot is the one file on disk, so every truncation and every
// single-byte flip of it must be rejected, wherever it lands. Short
// placeholder RNG strings keep this quadratic sweep (each decode CRCs
// the whole file) well under a second.
TEST(RunStateFormat, EveryTruncationAndByteFlipIsRejected) {
  fl::ServerRunState state = DistinctiveState();
  state.rng_state = "rng";
  state.fault_rng_state = "fault-rng";
  state.net_rng_state = "net-rng";
  const std::string blob = fl::EncodeRunState(state);
  fl::ServerRunState out;
  ASSERT_TRUE(fl::DecodeRunState(blob, &out).ok());
  for (size_t keep = 0; keep < blob.size(); ++keep) {
    EXPECT_FALSE(fl::DecodeRunState(blob.substr(0, keep), &out).ok())
        << "truncation to " << keep << " bytes was accepted";
  }
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    std::string mutant = blob;
    mutant[pos] = static_cast<char>(mutant[pos] ^ 0x5a);
    EXPECT_FALSE(fl::DecodeRunState(mutant, &out).ok())
        << "byte flip at " << pos << " was accepted";
  }
}

TEST(RunStateFormat, TrailingBytesAreRejected) {
  // Extra bytes under a valid CRC are a corrupt file, not a
  // forward-compatible one: the reader must insist on AtEnd.
  const std::string blob =
      Resigned(fl::EncodeRunState(DistinctiveState()), [](std::string* body) {
        BinaryWriter extra;
        extra.WriteI64(777);
        *body += extra.bytes();
      });
  fl::ServerRunState out;
  EXPECT_FALSE(fl::DecodeRunState(blob, &out).ok());
}

// ---------------------------------------------------------------------
// Corrupted-newest snapshot fallback, driven through the filesystem:
// the read fault is injected by FaultyFileSystem (InjectBitrotOnce), so
// the test exercises the exact failure mode the Env layer models —
// read-path rot on an intact disk — rather than editing bytes on disk.

TEST(SnapshotFallback, BitrottenNewestSnapshotFallsBackToOlderValidOne) {
  auto clients = chaos::MakeClients(4, 71);
  fl::FederatedTrainerOptions options;
  options.rounds = 6;
  options.local_epochs = 1;
  options.learning_rate = 0.05;
  options.faults.dropout_rate = 0.2;
  options.tolerance.retry.max_retries = 1;
  options.durability.dir = "run";
  options.durability.snapshot_every = 2;
  options.durability.keep_snapshots = 3;

  FaultyFileSystem fs;  // clean RAM disk; only the targeted rot below
  options.durability.fs = &fs;
  fl::FederatedTrainer first(chaos::MakeStub, &clients, options);
  const fl::FederatedRunResult expected = first.Run();
  const std::vector<nn::Scalar> expected_params =
      first.global_model()->params().Flatten();

  // The newest snapshot's next read returns one flipped bit. The CRC
  // must reject it and resume must fall back to the round-4 snapshot,
  // then re-run rounds 5..6 to a bitwise-identical final model.
  fs.InjectBitrotOnce(fl::SnapshotPath("run", 6));
  fl::FederatedTrainer resumed(chaos::MakeStub, &clients, options);
  ASSERT_TRUE(resumed.ResumeFrom("run").ok());
  EXPECT_EQ(resumed.resumed_round(), 4);
  EXPECT_EQ(fs.stats().bitrot_reads, 1);

  const fl::FederatedRunResult result = resumed.Run();
  EXPECT_EQ(expected_params, resumed.global_model()->params().Flatten());
  ASSERT_EQ(result.history.size(), expected.history.size());
  for (size_t i = 0; i < result.history.size(); ++i) {
    EXPECT_EQ(result.history[i].round, expected.history[i].round);
    EXPECT_EQ(result.history[i].mean_train_loss,
              expected.history[i].mean_train_loss);
    EXPECT_EQ(result.history[i][fl::kDrops], expected.history[i][fl::kDrops]);
  }
  EXPECT_EQ(result.faults[fl::kDrops], expected.faults[fl::kDrops]);
}

TEST(SnapshotFallback, AllSnapshotsRottenIsAnErrorNotAFreshStart) {
  auto clients = chaos::MakeClients(4, 73);
  fl::FederatedTrainerOptions options;
  options.rounds = 4;
  options.local_epochs = 1;
  options.durability.dir = "run";
  options.durability.snapshot_every = 2;
  options.durability.keep_snapshots = 4;

  FaultyFileSystem fs;
  options.durability.fs = &fs;
  {
    fl::FederatedTrainer first(chaos::MakeStub, &clients, options);
    first.Run();
  }
  fs.InjectBitrotOnce(fl::SnapshotPath("run", 2));
  fs.InjectBitrotOnce(fl::SnapshotPath("run", 4));
  fl::FederatedTrainer resumed(chaos::MakeStub, &clients, options);
  EXPECT_FALSE(resumed.ResumeFrom("run").ok());
  EXPECT_EQ(resumed.resumed_round(), 0);
}

}  // namespace
}  // namespace lighttr
