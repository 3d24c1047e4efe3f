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
// Each format line digests the bytes one binary codec writes for a value
// whose fields all differ: the four wire messages inside their frames
// (the update push in both payload kinds), the float32 and float64
// parameter blobs, and the Adam, reputation, health-monitor, adversary
// and norm-bound-window state blobs. A field swapped, dropped or
// re-typed in both halves of a codec still round-trips; it moves these.
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
#include "fl/adversary.h"
#include "fl/federated_trainer.h"
#include "fl/health.h"
#include "fl/reputation.h"
#include "fl/run_state.h"
#include "fl/transport/wire.h"
#include "nn/kernels/kernels.h"
#include "nn/optimizer.h"
#include "nn/parameter.h"
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

// Three tensors of distinct shapes whose values all differ, none of
// them exact in float32.
nn::ParameterSet DistinctiveParams() {
  nn::ParameterSet params;
  const std::pair<const char*, std::pair<size_t, size_t>> kShapes[] = {
      {"encoder.w", {2, 3}}, {"head.bias", {1, 2}}, {"z", {3, 1}}};
  double next = 1.0 / 3.0;
  for (const auto& [name, shape] : kShapes) {
    nn::Matrix m(shape.first, shape.second);
    for (size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = next;
      next = -1.7 * next + 0.1;
    }
    params.Register(name, nn::Tensor::Variable(m));
  }
  return params;
}

// The format lines, in file order.
std::vector<std::string> FormatLines() {
  namespace wire = fl::transport;
  std::vector<std::string> lines;
  wire::ModelPullRequest pull;
  pull.round = 11;
  pull.client_id = 5;
  lines.push_back(DigestLine(
      "frame_pull_request",
      wire::EncodeFrame(wire::FrameType::kModelPullRequest,
                        wire::EncodeModelPullRequest(pull))));
  wire::ModelPullReply reply;
  reply.round = 12;
  reply.model_blob = std::string("model\0blob\xfe", 11);
  lines.push_back(DigestLine(
      "frame_pull_reply",
      wire::EncodeFrame(wire::FrameType::kModelPullReply,
                        wire::EncodeModelPullReply(reply))));
  wire::UpdatePush push;
  push.round = 13;
  push.client_id = 6;
  push.msg_id = 0x0123456789abcdefull;
  push.train_loss = 0.3125;
  push.kind = wire::PayloadKind::kRawF64;
  push.raw = {1.0 / 3.0, -2.5, 1e-300};
  lines.push_back(DigestLine(
      "frame_push_raw", wire::EncodeFrame(wire::FrameType::kUpdatePush,
                                          wire::EncodeUpdatePush(push))));
  push.kind = wire::PayloadKind::kQuantizedInt8;
  push.quantized.min_value = -1.75;
  push.quantized.max_value = 4.5;
  push.quantized.codes = {3, 200, 17, 0, 255};
  lines.push_back(DigestLine(
      "frame_push_quantized",
      wire::EncodeFrame(wire::FrameType::kUpdatePush,
                        wire::EncodeUpdatePush(push))));
  wire::PushAck ack;
  ack.round = 14;
  ack.client_id = 7;
  ack.msg_id = 0xfedcba9876543210ull;
  ack.duplicate = true;
  lines.push_back(DigestLine(
      "frame_push_ack", wire::EncodeFrame(wire::FrameType::kPushAck,
                                          wire::EncodePushAck(ack))));

  const nn::ParameterSet params = DistinctiveParams();
  lines.push_back(DigestLine("params_f32", params.Serialize()));
  lines.push_back(DigestLine(
      "params_f64", params.Serialize(nn::BlobPrecision::kFloat64)));

  // Three steps of distinct gradients: m and v differ from each other
  // and across tensors. Adam is bitwise equal under both kernels.
  nn::ParameterSet trained = DistinctiveParams();
  nn::AdamOptimizer adam(0.01);
  for (int step = 0; step < 3; ++step) {
    for (size_t t = 0; t < trained.size(); ++t) {
      nn::Matrix& grad = trained.tensor(t).grad();
      for (size_t i = 0; i < grad.size(); ++i) {
        grad.data()[i] = 0.3 * static_cast<double>(i) - 0.7 * step + 0.11 * t;
      }
    }
    adam.Step(&trained);
  }
  lines.push_back(DigestLine("adam_state", adam.SerializeState()));

  // Client 0 quarantined a round ago; clients 1 and 2 free with
  // different event mixes.
  fl::ReputationBook book(3, fl::ReputationConfig{});
  book.Observe(0, true, false, false);
  book.Observe(0, true, true, false);
  book.Observe(1, false, true, false);
  book.Observe(2, false, false, true);
  book.Observe(2, false, false, false, true);
  book.Observe(2, false, false, true);
  book.Tick();
  lines.push_back(DigestLine("reputation_ledger", book.Serialize()));

  // Two judged rounds: three norms and two losses banked.
  fl::RoundHealthMonitor monitor;
  const std::vector<nn::Scalar> global = {0.5, -0.25};
  for (const auto& [norms, loss] :
       {std::pair<std::vector<double>, double>{{0.5, 0.75}, 2.5},
        std::pair<std::vector<double>, double>{{1.25}, 2.125}}) {
    std::vector<fl::UpdateObservation> observations;
    for (size_t i = 0; i < norms.size(); ++i) {
      fl::UpdateObservation obs;
      obs.client_index = static_cast<int>(i);
      obs.accepted = true;
      obs.delta_norm = norms[i];
      observations.push_back(obs);
    }
    monitor.Judge(&observations, global, loss);
  }
  lines.push_back(DigestLine("monitor_state", monitor.SerializeState()));

  fl::AdversaryConfig adversary_config;
  adversary_config.num_attackers = 1;
  adversary_config.attack = fl::AttackType::kSignFlip;
  adversary_config.seed = 99;
  fl::AdversaryEngine adversary(adversary_config);
  adversary.ObserveHonestNorm(0.375);
  adversary.ObserveHonestNorm(1.5);
  adversary.ForkStream();
  lines.push_back(DigestLine("adversary_state", adversary.SerializeState()));

  fl::RollingWindow window(fl::kNormWindow);
  for (const double norm : {0.125, 3.5, 2.25}) window.Push(norm);
  BinaryWriter window_bytes;
  window.Write(&window_bytes);
  lines.push_back(DigestLine("normbound_window", window_bytes.bytes()));
  return lines;
}

// Every layout, format and stub-run digest line, in file order.
std::vector<std::string> StubLines() {
  std::vector<std::string> lines;
  lines.push_back(DigestLine(
      "layout", fl::EncodeRunState(test_util::DistinctiveState())));
  for (const std::string& line : FormatLines()) lines.push_back(line);

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
