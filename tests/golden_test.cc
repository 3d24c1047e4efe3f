// Golden digests: what fixed stub-model runs and every method's run
// compute, and the bytes the snapshot codec writes, pinned as FNV-1a-64
// digests in golden_digests.txt. determinism_test compares runs with
// each other; this test compares them with stored values, so a change
// that moves any output bit or stored byte fails here even when every
// run still agrees with every other.
//
// Each stub-run digest covers the snapshot codec's bytes for the run's
// comm totals, counter totals and round history, the final global model,
// and every LTRS snapshot the run kept on its RAM disk. Wall-clock
// seconds are zeroed first. The stub model uses only the MSE loss and
// Adam, which are bitwise equal across kernel modes, so every stub digest
// must hold under both the scalar and the auto kernels.
//
// Each method line digests eval::RunFederatedMethod's metrics and the
// same telemetry bytes for one method on one workload profile, and shows
// its recall and MAE in plain text. The real models' sums round
// differently under the vector kernels, so a method line is pinned per
// kernel mode: the scalar lines hold on every host, the auto lines are
// checked only where the auto kernels are AVX2+FMA.
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

#include "baselines/model_zoo.h"
#include "chaos/stub_federation.h"
#include "common/binary_io.h"
#include "common/env.h"
#include "eval/harness.h"
#include "fl/federated_trainer.h"
#include "fl/run_state.h"
#include "nn/kernels/kernels.h"
#include "fixtures.h"

namespace lighttr {
namespace {

using chaos::MakeClients;
using fl::FederatedRunResult;
using fl::FederatedTrainer;
using fl::FederatedTrainerOptions;

std::string DigestLine(const std::string& name, const std::string& bytes) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(test_util::Fnv1a64(bytes)));
  return name + " " + hex;
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
  all.WriteString(fl::TelemetryBytes(run));
  all.WriteString(trainer.global_model()->params().Serialize(
      nn::BlobPrecision::kFloat64));
  for (const std::string& path : fs.AllFiles()) {
    all.WriteString(path);
    all.WriteString(NormalizedSnapshot(&fs, path));
  }
  return DigestLine(name, all.bytes());
}

// Every layout and stub-run digest line, in file order.
std::vector<std::string> StubLines() {
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
                                chaos::MakeStub, clients, options));
    }
  }

  // A hostile client the health layer rolls back, then one it gives up
  // on (health_test's DivergenceIsDetectedRolledBackAndQuarantined and
  // RollbackBudgetZeroParksAtLastHealthyState).
  {
    const auto clients = MakeClients(4, 51);
    chaos::HostileCohortUpdate hostile(/*num_hostile=*/1,
                                       /*clean_updates=*/3, 1e8);
    lines.push_back(RunDigest("healing_rollback", chaos::MakeStub, clients,
                              test_util::HealingOptions(), &hostile));
  }
  {
    const auto clients = MakeClients(4, 53);
    FederatedTrainerOptions options = test_util::HealingOptions();
    options.healing.max_rollbacks = 0;
    chaos::HostileCohortUpdate hostile(/*num_hostile=*/1,
                                       /*clean_updates=*/3, 1e8);
    lines.push_back(RunDigest("healing_gave_up", chaos::MakeStub, clients,
                              options, &hostile));
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
          return std::make_unique<chaos::StubModel>(rng, 4, 2.0);
        },
        clients, options));
  }
  return lines;
}

// One line per method and workload profile under the active kernels,
// each name ending in `kernel`. The shape is run_experiment_table's:
// 3 clients of 4 trajectories on a 5x5 grid, 2 rounds of 2 epochs, one
// thread.
std::vector<std::string> MethodLines(const std::string& kernel) {
  const std::pair<baselines::ModelKind, const char*> kMethods[] = {
      {baselines::ModelKind::kFc, "fc"},
      {baselines::ModelKind::kRnn, "rnn"},
      {baselines::ModelKind::kMTrajRec, "mtrajrec"},
      {baselines::ModelKind::kRnTrajRec, "rntrajrec"},
      {baselines::ModelKind::kLightTr, "lighttr"}};
  const std::pair<traj::WorkloadProfile, const char*> kProfiles[] = {
      {traj::GeolifeLikeProfile(), "geolife"},
      {traj::TdriveLikeProfile(), "tdrive"}};
  std::vector<std::string> lines;
  const eval::ExperimentEnv env(5, 5, 42);
  for (const auto& [base_profile, profile_name] : kProfiles) {
    traj::WorkloadProfile profile = base_profile;
    profile.trajectories_per_client = 4;
    traj::FederatedWorkloadOptions workload;
    workload.num_clients = 3;
    workload.keep_ratio = 0.125;
    const auto clients = env.MakeWorkload(profile, workload, 43);
    eval::MethodRunOptions options;
    options.fed.rounds = 2;
    options.fed.local_epochs = 2;
    options.fed.learning_rate = 3e-3;
    options.fed.seed = 45;
    options.fed.threads = 1;
    options.teacher.learning_rate = options.fed.learning_rate;
    options.max_test_trajectories = 100;
    for (const auto& [kind, method_name] : kMethods) {
      const eval::MethodResult result =
          eval::RunFederatedMethod(env, kind, clients, options);
      BinaryWriter all;
      all.WriteF64(result.metrics.recall);
      all.WriteF64(result.metrics.precision);
      all.WriteF64(result.metrics.mae_km);
      all.WriteF64(result.metrics.rmse_km);
      all.WriteI64(result.metrics.recovered_points);
      all.WriteString(fl::TelemetryBytes(result.run));
      char values[64];
      std::snprintf(values, sizeof(values), " recall=%.6f mae_km=%.6f",
                    result.metrics.recall, result.metrics.mae_km);
      lines.push_back(DigestLine(std::string(method_name) + "_" +
                                     profile_name + "_" + kernel,
                                 all.bytes()) +
                      values);
    }
  }
  return lines;
}

bool IsAutoLine(const std::string& line) {
  const std::string name = line.substr(0, line.find(' '));
  return name.size() > 5 && name.compare(name.size() - 5, 5, "_auto") == 0;
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
    } else if (nn::CpuHasAvx2Fma() || !IsAutoLine(line)) {
      expected.push_back(line);
    }
  }

  const nn::KernelMode saved = nn::ActiveKernelMode();
  nn::ActivateKernels(nn::KernelMode::kScalar);
  std::vector<std::string> actual = StubLines();
  const std::vector<std::string> scalar_methods = MethodLines("scalar");
  nn::ActivateKernels(nn::KernelMode::kAuto);
  EXPECT_EQ(StubLines(), actual) << "stub digests differ between kernels";
  actual.insert(actual.end(), scalar_methods.begin(), scalar_methods.end());
  if (nn::CpuHasAvx2Fma()) {
    const std::vector<std::string> auto_methods = MethodLines("auto");
    actual.insert(actual.end(), auto_methods.begin(), auto_methods.end());
  }
  nn::ActivateKernels(saved);

  EXPECT_EQ(actual, expected);
  if (actual != expected) {
    std::ostringstream contents;
    contents << header;
    for (const std::string& line : actual) contents << line << "\n";
    ADD_FAILURE() << path << " would have to read:\n"
                  << contents.str()
                  << (nn::CpuHasAvx2Fma()
                          ? ""
                          : "(plus its _auto lines, which this host cannot "
                            "check: it has no AVX2+FMA)\n");
  }
}

}  // namespace
}  // namespace lighttr
