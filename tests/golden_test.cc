// Golden digests: what fixed stub-model runs compute, and the bytes the
// snapshot codec writes, pinned as FNV-1a-64 digests in
// golden_digests.txt. determinism_test compares runs with each other;
// this test compares them with stored values, so a change that moves any
// output bit or stored byte fails here even when every run still agrees
// with every other.
//
// Each run digest covers the snapshot codec's bytes for the run's comm
// totals, counter totals and round history, the final global model, and
// every LTRS snapshot the run kept on its RAM disk. Wall-clock seconds
// are zeroed first. The stub model uses only the MSE loss and Adam,
// which are bitwise equal across kernel modes, so every digest must hold
// under both the scalar and the auto kernels.
//
// There is no regeneration switch. On a mismatch the failure prints the
// file as it would have to read; a change that means to move a digest
// replaces the file with that text and says why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/env.h"
#include "fl/federated_trainer.h"
#include "fl/run_state.h"
#include "nn/kernels/kernels.h"
#include "run_state_fixture.h"
#include "stub_model.h"

namespace lighttr {
namespace {

using fl::FederatedRunResult;
using fl::FederatedTrainer;
using fl::FederatedTrainerOptions;
using test_util::MakeClients;

std::string DigestLine(const std::string& name, const std::string& bytes) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(test_util::Fnv1a64(bytes)));
  return name + " " + hex;
}

// The snapshot codec's bytes for a run's telemetry, wall clock zeroed.
std::string TelemetryBytes(const FederatedRunResult& run) {
  fl::ServerRunState state;
  state.round = static_cast<int>(run.history.size());
  state.comm = run.comm;
  state.faults = run.faults;
  state.history = run.history;
  for (fl::RoundRecord& record : state.history) record.wall_seconds = 0.0;
  return fl::EncodeRunState(state);
}

// A snapshot file re-encoded with its history's wall clock zeroed.
std::string NormalizedSnapshot(FaultyFileSystem* fs, const std::string& path) {
  Result<std::string> bytes = fs->ReadFile(path);
  EXPECT_TRUE(bytes.ok()) << path;
  fl::ServerRunState state;
  const Status decoded = fl::DecodeRunState(bytes.value(), &state);
  EXPECT_TRUE(decoded.ok()) << path << ": " << decoded.ToString();
  for (fl::RoundRecord& record : state.history) record.wall_seconds = 0.0;
  return fl::EncodeRunState(state);
}

// Runs one federation with snapshots on a clean RAM disk and digests
// everything the run produced.
std::string RunDigest(const std::string& name, fl::ModelFactory factory,
                      const std::vector<traj::ClientDataset>& clients,
                      FederatedTrainerOptions options,
                      fl::LocalUpdateStrategy* strategy = nullptr) {
  FaultyFileSystem fs;
  options.durability.dir = "run";
  options.durability.fs = &fs;
  FederatedTrainer trainer(std::move(factory), &clients, options);
  const FederatedRunResult run = trainer.Run(strategy);
  BinaryWriter all;
  all.WriteString(TelemetryBytes(run));
  all.WriteString(trainer.global_model()->params().Serialize(
      nn::BlobPrecision::kFloat64));
  for (const std::string& path : fs.AllFiles()) {
    all.WriteString(path);
    all.WriteString(NormalizedSnapshot(&fs, path));
  }
  return DigestLine(name, all.bytes());
}

FederatedTrainerOptions HealingOptions() {
  FederatedTrainerOptions options;
  options.rounds = 12;
  options.local_epochs = 2;
  options.learning_rate = 0.05;
  options.threads = 1;  // TurncoatUpdate counts its own invocations
  options.tolerance.screen.enabled = false;
  options.healing.enabled = true;
  options.healing.reputation.quarantine_threshold = 0.4;
  return options;
}

// Every digest line, in file order.
std::vector<std::string> DigestLines() {
  std::vector<std::string> lines;
  lines.push_back(DigestLine(
      "layout", fl::EncodeRunState(test_util::DistinctiveState())));

  // Every client fate fires (fault_injection_test's
  // FatesPartitionEverySampledCohort).
  {
    const auto clients = MakeClients(6, 71);
    FederatedTrainerOptions options;
    options.rounds = 12;
    options.local_epochs = 2;
    options.learning_rate = 0.05;
    options.faults.dropout_rate = 0.3;
    options.faults.straggler_rate = 0.1;
    options.faults.corruption_rate = 0.3;
    options.tolerance.retry.max_retries = 1;
    options.tolerance.screen.max_delta_norm = 1.0;
    options.tolerance.screen.norm_policy = fl::ScreenPolicy::kReject;
    options.transport.channel.drop_rate = 0.3;
    options.transport.retry.max_retries = 1;
    options.healing.enabled = true;
    options.healing.reputation.quarantine_threshold = 0.4;
    for (const int threads : {1, 8}) {
      options.threads = threads;
      lines.push_back(RunDigest("fates_threads" + std::to_string(threads),
                                test_util::MakeStub, clients, options));
    }
  }

  // A turncoat the health layer rolls back, then one it gives up on
  // (health_test's DivergenceIsDetectedRolledBackAndQuarantined and
  // RollbackBudgetZeroParksAtLastHealthyState).
  {
    const auto clients = MakeClients(4, 51);
    test_util::TurncoatUpdate turncoat(/*hostile_client=*/0,
                                       /*clean_updates=*/3);
    lines.push_back(RunDigest("healing_rollback", test_util::MakeStub,
                              clients, HealingOptions(), &turncoat));
  }
  {
    const auto clients = MakeClients(4, 53);
    FederatedTrainerOptions options = HealingOptions();
    options.healing.max_rollbacks = 0;
    test_util::TurncoatUpdate turncoat(/*hostile_client=*/0,
                                       /*clean_updates=*/3);
    lines.push_back(RunDigest("healing_gave_up", test_util::MakeStub, clients,
                              options, &turncoat));
  }

  // Two sign-flip attackers against defended Multi-Krum, on a four-weight
  // stub whose honest clients share one target (adversary_test).
  {
    const auto clients = MakeClients(8, 62);
    FederatedTrainerOptions options;
    options.rounds = 10;
    options.local_epochs = 2;
    options.learning_rate = 0.05;
    options.adversary.num_attackers = 2;
    options.adversary.attack = fl::AttackType::kSignFlip;
    options.adversary.start_round = 2;
    options.tolerance.aggregator.policy = fl::AggregatorPolicy::kMultiKrum;
    options.tolerance.aggregator.byzantine_fraction = 0.3;
    options.tolerance.aggregator.exclude_suspected = true;
    options.healing.enabled = true;
    options.healing.reputation.quarantine_threshold = 0.45;
    lines.push_back(RunDigest(
        "multikrum_defended",
        [](Rng* rng) -> std::unique_ptr<fl::RecoveryModel> {
          return std::make_unique<test_util::StubModel>(rng, 4, 2.0);
        },
        clients, options));
  }
  return lines;
}

TEST(Golden, DigestsMatchTheCommittedFile) {
  const std::string path = LIGHTTR_GOLDEN_DIGESTS;
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot read " << path;
  std::string header;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') {
      header += line + "\n";
    } else {
      expected.push_back(line);
    }
  }

  const nn::KernelMode saved = nn::ActiveKernelMode();
  for (const nn::KernelMode mode :
       {nn::KernelMode::kScalar, nn::KernelMode::kAuto}) {
    nn::ActivateKernels(mode);
    const std::vector<std::string> actual = DigestLines();
    EXPECT_EQ(actual, expected) << "kernel mode " << nn::KernelModeName(mode);
    if (actual != expected) {
      std::ostringstream contents;
      contents << header;
      for (const std::string& line : actual) contents << line << "\n";
      ADD_FAILURE() << path << " would have to read:\n" << contents.str();
    }
  }
  nn::ActivateKernels(saved);
}

}  // namespace
}  // namespace lighttr
