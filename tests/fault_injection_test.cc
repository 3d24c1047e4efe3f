// Tests for the fault-injection and fault-tolerance layer: deterministic
// fault schedules, upload corruption, server-side screening, robust
// aggregation, retry/backoff, quorum degradation, and end-to-end
// resilience of the federated loop under injected faults.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "chaos/stub_federation.h"
#include "common/finite.h"
#include "eval/harness.h"
#include "fl/aggregation.h"
#include "fl/fault_injection.h"
#include "fl/federated_trainer.h"
#include "fl/transport/wire.h"
#include "traj/workload.h"

namespace lighttr::fl {
namespace {

using chaos::MakeClients;
using chaos::MakeStub;
using chaos::StubModel;

FaultInjectionConfig LossyConfig() {
  FaultInjectionConfig config;
  config.dropout_rate = 0.3;
  config.straggler_rate = 0.1;
  config.corruption_rate = 0.1;
  return config;
}

// ---------------------------------------------------------------------
// FaultModel

TEST(FaultModel, IdenticalSeedsGiveIdenticalSchedules) {
  const FaultModel model(LossyConfig());
  Rng a(21), b(21);
  for (int i = 0; i < 200; ++i) {
    const FaultDraw da = model.Draw(&a);
    const FaultDraw db = model.Draw(&b);
    EXPECT_EQ(da.type, db.type);
    EXPECT_EQ(da.corruption, db.corruption);
    EXPECT_DOUBLE_EQ(da.simulated_seconds, db.simulated_seconds);
  }
}

TEST(FaultModel, DisabledConfigNeverFaults) {
  const FaultModel model(FaultInjectionConfig{});
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(model.Draw(&rng).type, FaultType::kNone);
  }
}

TEST(FaultModel, RatesShowUpInTheScheduleAtRoughlyTheRightFrequency) {
  FaultInjectionConfig config;
  config.dropout_rate = 0.5;
  const FaultModel model(config);
  Rng rng(5);
  int drops = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    if (model.Draw(&rng).type == FaultType::kDropout) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.5, 0.05);
}

TEST(FaultModel, StragglerExceedsDeadline) {
  FaultInjectionConfig config;
  config.straggler_rate = 1.0;
  config.straggler_slowdown_mean = 100.0;  // always blows the deadline
  config.straggler_slowdown_sigma = 0.1;
  const FaultModel model(config);
  Rng rng(7);
  const FaultDraw draw = model.Draw(&rng);
  EXPECT_EQ(draw.type, FaultType::kStraggler);
  EXPECT_GT(draw.simulated_seconds, kRoundDeadlineSeconds);
}

TEST(FaultModel, CorruptionKindsDamageUploads) {
  Rng rng(9);
  std::vector<nn::Scalar> nan_upload(50, 1.0);
  FaultModel::Corrupt(CorruptionKind::kNaN, &rng, &nan_upload);
  bool has_nan = false;
  for (nn::Scalar x : nan_upload) has_nan |= IsNan(x);
  EXPECT_TRUE(has_nan);

  std::vector<nn::Scalar> inf_upload(50, 1.0);
  FaultModel::Corrupt(CorruptionKind::kInf, &rng, &inf_upload);
  bool has_inf = false;
  for (nn::Scalar x : inf_upload) has_inf |= IsInf(x);
  EXPECT_TRUE(has_inf);

  std::vector<nn::Scalar> scaled(50, 1.0);
  FaultModel::Corrupt(CorruptionKind::kScale, &rng, &scaled);
  EXPECT_GE(std::abs(scaled[0]), 1e4);

  std::vector<nn::Scalar> garbage(50, 1.0);
  FaultModel::Corrupt(CorruptionKind::kGarbage, &rng, &garbage);
  bool changed = false;
  for (nn::Scalar x : garbage) changed |= x != nn::Scalar{1};
  EXPECT_TRUE(changed);
}

// ---------------------------------------------------------------------
// Upload screening

TEST(ScreenUpload, RejectsNonFinite) {
  const std::vector<nn::Scalar> reference(4, 0.0);
  UploadScreenConfig config;
  std::vector<nn::Scalar> nan_upload = {0.0, std::nan(""), 0.0, 0.0};
  EXPECT_FALSE(ScreenUpload(&nan_upload, reference, config).ok());
  std::vector<nn::Scalar> inf_upload = {
      0.0, std::numeric_limits<nn::Scalar>::infinity(), 0.0, 0.0};
  EXPECT_FALSE(ScreenUpload(&inf_upload, reference, config).ok());
  std::vector<nn::Scalar> healthy = {0.1, -0.1, 0.2, 0.0};
  EXPECT_TRUE(ScreenUpload(&healthy, reference, config).ok());
}

TEST(ScreenUpload, RejectsSizeMismatch) {
  const std::vector<nn::Scalar> reference(4, 0.0);
  std::vector<nn::Scalar> short_upload = {1.0};
  EXPECT_FALSE(ScreenUpload(&short_upload, reference, {}).ok());
}

TEST(ScreenUpload, ClipPolicyRescalesDeltaOntoBound) {
  const std::vector<nn::Scalar> reference = {0.0, 0.0};
  UploadScreenConfig config;
  config.max_delta_norm = 1.0;
  config.norm_policy = ScreenPolicy::kClip;
  std::vector<nn::Scalar> upload = {3.0, 4.0};  // delta norm 5
  bool clipped = false;
  ASSERT_TRUE(ScreenUpload(&upload, reference, config, &clipped).ok());
  EXPECT_TRUE(clipped);
  EXPECT_NEAR(upload[0], 0.6, 1e-9);
  EXPECT_NEAR(upload[1], 0.8, 1e-9);
}

TEST(ScreenUpload, RejectPolicyDiscardsNormExplosions) {
  const std::vector<nn::Scalar> reference = {0.0, 0.0};
  UploadScreenConfig config;
  config.max_delta_norm = 1.0;
  config.norm_policy = ScreenPolicy::kReject;
  std::vector<nn::Scalar> upload = {3.0, 4.0};
  EXPECT_FALSE(ScreenUpload(&upload, reference, config).ok());
  std::vector<nn::Scalar> in_bound = {0.3, 0.4};
  EXPECT_TRUE(ScreenUpload(&in_bound, reference, config).ok());
}

TEST(ScreenUpload, DisabledPassesAnything) {
  const std::vector<nn::Scalar> reference(1, 0.0);
  UploadScreenConfig config;
  config.enabled = false;
  std::vector<nn::Scalar> nan_upload = {std::nan("")};
  EXPECT_TRUE(ScreenUpload(&nan_upload, reference, config).ok());
}

// ---------------------------------------------------------------------
// Robust aggregation

TEST(AggregateFlat, EmptySetReturnsStatusNotCrash) {
  const Result<std::vector<nn::Scalar>> result = AggregateFlat({}, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(AggregateFlat, LengthMismatchReturnsStatus) {
  const Result<std::vector<nn::Scalar>> result =
      AggregateFlat({{1.0, 2.0}, {1.0}}, {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(AggregateFlat, MeanMatchesFedAvg) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kMean;
  const auto result = AggregateFlat({{1.0, 10.0}, {3.0, 20.0}}, config);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value()[0], 2.0);
  EXPECT_DOUBLE_EQ(result.value()[1], 15.0);
}

TEST(AggregateFlat, CoordinateMedianOddAndEven) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kMedian;
  const auto odd = AggregateFlat({{1.0}, {100.0}, {3.0}}, config);
  ASSERT_TRUE(odd.ok());
  EXPECT_DOUBLE_EQ(odd.value()[0], 3.0);
  const auto even = AggregateFlat({{1.0}, {2.0}, {8.0}, {100.0}}, config);
  ASSERT_TRUE(even.ok());
  EXPECT_DOUBLE_EQ(even.value()[0], 5.0);
}

TEST(AggregateFlat, TrimmedMeanDropsOutliers) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kTrimmedMean;
  config.trim_fraction = 0.2;  // 5 uploads -> trim 1 from each tail
  const auto result = AggregateFlat(
      {{1.0}, {2.0}, {3.0}, {4.0}, {1e9}}, config);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value()[0], 3.0);  // mean of {2, 3, 4}
}

TEST(AggregateFlat, TrimmedMeanAlwaysKeepsAtLeastOneValue) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kTrimmedMean;
  config.trim_fraction = 0.49;
  const auto result = AggregateFlat({{1.0}, {5.0}}, config);
  ASSERT_TRUE(result.ok());  // k clamps to 0: plain mean of both
  EXPECT_DOUBLE_EQ(result.value()[0], 3.0);
}

TEST(AggregateFlat, InvalidTrimFractionIsRejected) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kTrimmedMean;
  config.trim_fraction = 0.5;
  EXPECT_FALSE(AggregateFlat({{1.0}}, config).ok());
}

// ---------------------------------------------------------------------
// Fault-tolerant federated rounds (end to end on the stub model)

FederatedTrainerOptions BaseOptions(int rounds = 30) {
  FederatedTrainerOptions options;
  options.rounds = rounds;
  options.local_epochs = 2;
  options.learning_rate = 0.05;
  return options;
}

TEST(FaultTolerantTrainer, ThirtyPercentDropoutConvergesNearBaseline) {
  auto clients = MakeClients(4, 31);

  FederatedTrainer clean(MakeStub, &clients, BaseOptions());
  clean.Run();
  const double clean_w = dynamic_cast<StubModel*>(clean.global_model())->weight();

  FederatedTrainerOptions faulty_options = BaseOptions();
  faulty_options.faults.dropout_rate = 0.3;
  faulty_options.tolerance.retry.max_retries = 2;
  FederatedTrainer faulty(MakeStub, &clients, faulty_options);
  const FederatedRunResult result = faulty.Run();
  const double faulty_w =
      dynamic_cast<StubModel*>(faulty.global_model())->weight();

  // Both land near the mean client target (driver ids 0..3).
  EXPECT_NEAR(clean_w, 1.5, 0.3);
  EXPECT_NEAR(faulty_w, clean_w, 0.3);
  // The schedule actually injected and the server actually recovered.
  EXPECT_GT(result.faults[kDrops] + result.faults[kRetries], 0);
  EXPECT_GT(result.faults.MeanCohortFraction(), 0.5);
}

TEST(FaultTolerantTrainer, CorruptedUploadsNeverPoisonTheGlobalModel) {
  auto clients = MakeClients(4, 33);
  FederatedTrainerOptions options = BaseOptions(20);
  options.faults.corruption_rate = 0.5;
  // Norm bound + reject: scale/garbage corruption (finite but huge) is
  // screened out alongside NaN/Inf.
  options.tolerance.screen.max_delta_norm = 1.0;
  options.tolerance.screen.norm_policy = ScreenPolicy::kReject;
  FederatedTrainer trainer(MakeStub, &clients, options);
  const FederatedRunResult result = trainer.Run();

  EXPECT_GT(result.faults[kRejectedUploads], 0);
  const auto flat = trainer.global_model()->params().Flatten();
  for (nn::Scalar x : flat) EXPECT_TRUE(std::isfinite(x));
  // Uploads were rejected, never averaged: the weight stays in the sane
  // range spanned by honest client targets.
  const double w = dynamic_cast<StubModel*>(trainer.global_model())->weight();
  EXPECT_GT(w, -2.0);
  EXPECT_LT(w, 5.0);
}

TEST(FaultTolerantTrainer, QuorumMissKeepsPreviousGlobalModel) {
  auto clients = MakeClients(3, 35);
  FederatedTrainerOptions options = BaseOptions(3);
  options.faults.dropout_rate = 1.0;  // nobody ever reports
  options.tolerance.retry.max_retries = 1;
  FederatedTrainer trainer(MakeStub, &clients, options);
  const double before =
      dynamic_cast<StubModel*>(trainer.global_model())->weight();
  const FederatedRunResult result = trainer.Run();
  const double after =
      dynamic_cast<StubModel*>(trainer.global_model())->weight();

  EXPECT_DOUBLE_EQ(before, after);
  EXPECT_EQ(result.faults[kQuorumMisses], 3);
  EXPECT_EQ(result.faults[kReporting], 0);
  EXPECT_EQ(result.faults[kDrops], 3 * 3);
  EXPECT_EQ(result.faults[kRetries], 3 * 3);
  EXPECT_GT(result.faults.simulated_backoff_s, 0.0);
  for (const RoundRecord& record : result.history) {
    EXPECT_FALSE(record.quorum_met);
    EXPECT_EQ(record[kReporting], 0);
  }
}

TEST(FaultTolerantTrainer, QuorumFractionGatesSmallCohorts) {
  auto clients = MakeClients(4, 37);
  FederatedTrainerOptions options = BaseOptions(6);
  options.faults.dropout_rate = 0.6;
  options.tolerance.quorum_fraction = 0.75;  // need 3 of 4 reporting
  FederatedTrainer trainer(MakeStub, &clients, options);
  const FederatedRunResult result = trainer.Run();
  for (const RoundRecord& record : result.history) {
    EXPECT_EQ(record.quorum_met, record[kReporting] >= 3);
  }
  EXPECT_GT(result.faults[kQuorumMisses], 0);
}

TEST(FaultTolerantTrainer, StragglersAreCutOffAtTheDeadline) {
  auto clients = MakeClients(3, 39);
  FederatedTrainerOptions options = BaseOptions(1);
  options.faults.straggler_rate = 1.0;
  options.faults.straggler_slowdown_mean = 1000.0;
  FederatedTrainer trainer(MakeStub, &clients, options);
  const FederatedRunResult result = trainer.Run();
  EXPECT_EQ(result.faults[kStragglers], 3);
  EXPECT_EQ(result.faults[kReporting], 0);
  // Cut off before upload: each straggler's only uplink frame is its
  // pull request, answered by one pull reply; no push crosses the wire.
  const std::string pull_request = transport::EncodeFrame(
      transport::FrameType::kModelPullRequest,
      transport::EncodeModelPullRequest(transport::ModelPullRequest{}));
  EXPECT_EQ(result.comm.bytes_uplink,
            3 * static_cast<int64_t>(pull_request.size()));
  EXPECT_EQ(result.comm.messages, 3 * 2);
  EXPECT_GT(result.comm.bytes_downlink, 0);
  EXPECT_EQ(result.faults[kQuorumMisses], 1);
}

TEST(FaultTolerantTrainer, RobustAggregatorsAreSelectableAndConverge) {
  for (const AggregatorPolicy policy :
       {AggregatorPolicy::kMedian, AggregatorPolicy::kTrimmedMean}) {
    auto clients = MakeClients(4, 41);
    FederatedTrainerOptions options = BaseOptions();
    options.tolerance.aggregator.policy = policy;
    options.tolerance.aggregator.trim_fraction = 0.25;
    FederatedTrainer trainer(MakeStub, &clients, options);
    trainer.Run();
    const double w = dynamic_cast<StubModel*>(trainer.global_model())->weight();
    // Median/trimmed-mean of per-client targets {0,1,2,3} also sits near
    // the centre.
    EXPECT_NEAR(w, 1.5, 0.6) << AggregatorPolicyName(policy);
  }
}

TEST(FaultTolerantTrainer, IdenticalSeedsGiveIdenticalFaultTelemetry) {
  auto run_once = [] {
    auto clients = MakeClients(4, 43);
    FederatedTrainerOptions options = BaseOptions(8);
    options.faults = LossyConfig();
    options.tolerance.retry.max_retries = 2;
    FederatedTrainer trainer(MakeStub, &clients, options);
    return trainer.Run();
  };
  const FederatedRunResult a = run_once();
  const FederatedRunResult b = run_once();
  EXPECT_EQ(a.faults[kDrops], b.faults[kDrops]);
  EXPECT_EQ(a.faults[kRetries], b.faults[kRetries]);
  EXPECT_EQ(a.faults[kStragglers], b.faults[kStragglers]);
  EXPECT_EQ(a.faults[kRejectedUploads], b.faults[kRejectedUploads]);
  EXPECT_EQ(a.faults[kQuorumMisses], b.faults[kQuorumMisses]);
  EXPECT_DOUBLE_EQ(a.faults.simulated_backoff_s, b.faults.simulated_backoff_s);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (size_t r = 0; r < a.history.size(); ++r) {
    EXPECT_EQ(a.history[r][kDrops], b.history[r][kDrops]);
    EXPECT_EQ(a.history[r][kReporting], b.history[r][kReporting]);
    EXPECT_DOUBLE_EQ(a.history[r].mean_train_loss,
                     b.history[r].mean_train_loss);
  }
}

// Every sampled client meets exactly one fate, and each fate has its own
// kCohortPartition column. A run that reaches all six must account for
// every sampled slot of every round, and its run totals must be the sums
// of its history, at any thread count.
TEST(FaultTolerantTrainer, FatesPartitionEverySampledCohort) {
  auto clients = MakeClients(6, 71);
  FederatedTrainerOptions options = BaseOptions(12);
  options.faults = LossyConfig();
  options.faults.corruption_rate = 0.3;
  options.tolerance.retry.max_retries = 1;
  options.tolerance.screen.max_delta_norm = 1.0;
  options.tolerance.screen.norm_policy = ScreenPolicy::kReject;
  options.transport.channel.drop_rate = 0.3;
  options.transport.retry.max_retries = 1;
  options.healing.enabled = true;
  options.healing.reputation.quarantine_threshold = 0.4;
  std::vector<RoundRecord> serial;
  for (const int threads : {1, 8}) {
    options.threads = threads;
    FederatedTrainer trainer(MakeStub, &clients, options);
    const FederatedRunResult result = trainer.Run();
    ASSERT_EQ(result.history.size(), 12u);
    std::vector<int> rounds_with(kNumCounters, 0);
    for (const RoundRecord& record : result.history) {
      int fated = 0;
      for (const Counter fate : kCohortPartition) {
        fated += record[fate];
        if (record[fate] > 0) ++rounds_with[fate];
      }
      EXPECT_EQ(record[kSampled], fated) << "round " << record.round;
    }
    for (const Counter fate : kCohortPartition) {
      EXPECT_GT(rounds_with[fate], 0)
          << kCounters[fate].name << " never fired";
    }
    for (const CounterSpec& counter : kCounters) {
      if (counter.scope != CounterScope::kRun || !counter.per_round) continue;
      int64_t sum = 0;
      for (const RoundRecord& record : result.history) {
        sum += record[counter.id];
      }
      EXPECT_EQ(result.faults[counter.id], sum) << counter.name;
    }
    if (threads == 1) {
      serial = result.history;
    } else {
      EXPECT_EQ(DescribeMismatch(result.history, serial), "");
    }
  }
}

// ---------------------------------------------------------------------
// Acceptance: a 10-round LightTR run under 30% dropout + occasional
// corrupted uploads completes, rejects every non-finite upload, and
// lands within 10% relative validation accuracy of the fault-free run
// with the same seed.

eval::MethodResult RunLightTr(const std::vector<traj::ClientDataset>& clients,
                              const eval::ExperimentEnv& env,
                              bool with_faults, AggregatorPolicy policy) {
  eval::MethodRunOptions options;
  options.fed.rounds = 10;
  options.fed.local_epochs = 1;
  options.max_test_trajectories = 12;
  if (with_faults) {
    options.fed.faults.dropout_rate = 0.3;
    options.fed.faults.corruption_rate = 0.1;
    options.fed.tolerance.retry.max_retries = 2;
    options.fed.tolerance.screen.max_delta_norm = 50.0;
    options.fed.tolerance.screen.norm_policy = ScreenPolicy::kReject;
    options.fed.tolerance.aggregator.policy = policy;
    options.fed.tolerance.aggregator.trim_fraction = 0.25;
  }
  return eval::RunFederatedMethod(env, baselines::ModelKind::kLightTr, clients,
                                  options);
}

TEST(FaultTolerantTrainer, LightTrSurvivesLossyRoundsNearBaseline) {
  eval::ExperimentEnv env(6, 6, 17);
  traj::WorkloadProfile profile = traj::TdriveLikeProfile();
  profile.trajectories_per_client = 8;
  traj::FederatedWorkloadOptions workload;
  workload.num_clients = 4;
  workload.keep_ratio = 0.25;
  const auto clients = env.MakeWorkload(profile, workload, 19);

  const eval::MethodResult clean =
      RunLightTr(clients, env, false, AggregatorPolicy::kMean);
  const double clean_acc = clean.run.history.back().global_valid_accuracy;
  ASSERT_GT(clean_acc, 0.0);

  for (const AggregatorPolicy policy :
       {AggregatorPolicy::kMean, AggregatorPolicy::kMedian,
        AggregatorPolicy::kTrimmedMean}) {
    const eval::MethodResult faulty = RunLightTr(clients, env, true, policy);
    ASSERT_EQ(faulty.run.history.size(), 10u) << AggregatorPolicyName(policy);
    // Faults were injected and handled, and nothing non-finite survived
    // into the aggregate.
    EXPECT_GT(faulty.run.faults[kDrops] + faulty.run.faults[kRetries], 0)
        << AggregatorPolicyName(policy);
    for (const RoundRecord& record : faulty.run.history) {
      EXPECT_LE(record[kReporting], record[kSampled]);
    }
    const double faulty_acc = faulty.run.history.back().global_valid_accuracy;
    EXPECT_NEAR(faulty_acc, clean_acc, 0.1 * clean_acc)
        << AggregatorPolicyName(policy);
  }
}

}  // namespace
}  // namespace lighttr::fl
