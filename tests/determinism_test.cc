// Reproducibility guarantees: every stochastic component is driven by an
// explicit seed, so identical seeds must give bit-identical workloads and
// identical end-to-end experiment results.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "chaos/stub_federation.h"
#include "eval/harness.h"
#include "fl/comm_stats.h"
#include "fl/run_state.h"
#include "lighttr/meta_local_update.h"
#include "lighttr/teacher_training.h"
#include "nn/kernels/kernels.h"
#include "roadnet/generators.h"
#include "fixtures.h"

namespace lighttr {
namespace {

TEST(Determinism, CityGenerationIsSeedDeterministic) {
  Rng rng_a(7);
  Rng rng_b(7);
  roadnet::CityGridOptions options;
  const roadnet::RoadNetwork a = roadnet::GenerateCityGrid(options, &rng_a);
  const roadnet::RoadNetwork b = roadnet::GenerateCityGrid(options, &rng_b);
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_segments(), b.num_segments());
  for (roadnet::SegmentId e = 0; e < a.num_segments(); ++e) {
    EXPECT_EQ(a.segment(e).from, b.segment(e).from);
    EXPECT_EQ(a.segment(e).to, b.segment(e).to);
    EXPECT_DOUBLE_EQ(a.segment(e).length_m, b.segment(e).length_m);
  }
}

TEST(Determinism, WorkloadIsSeedDeterministic) {
  eval::ExperimentEnv env(6, 6, 11);
  traj::WorkloadProfile profile = traj::TdriveLikeProfile();
  profile.trajectories_per_client = 6;
  traj::FederatedWorkloadOptions workload;
  workload.num_clients = 2;
  const auto a = env.MakeWorkload(profile, workload, 13);
  const auto b = env.MakeWorkload(profile, workload, 13);
  ASSERT_EQ(a.size(), b.size());
  for (size_t c = 0; c < a.size(); ++c) {
    ASSERT_EQ(a[c].train.size(), b[c].train.size());
    for (size_t i = 0; i < a[c].train.size(); ++i) {
      const auto& ta = a[c].train[i];
      const auto& tb = b[c].train[i];
      ASSERT_EQ(ta.size(), tb.size());
      EXPECT_EQ(ta.observed, tb.observed);
      for (size_t p = 0; p < ta.size(); ++p) {
        EXPECT_EQ(ta.ground_truth.points[p].position,
                  tb.ground_truth.points[p].position);
      }
    }
  }
}

TEST(Determinism, DifferentSeedsGiveDifferentWorkloads) {
  eval::ExperimentEnv env(6, 6, 11);
  traj::WorkloadProfile profile = traj::TdriveLikeProfile();
  profile.trajectories_per_client = 6;
  traj::FederatedWorkloadOptions workload;
  workload.num_clients = 1;
  const auto a = env.MakeWorkload(profile, workload, 13);
  const auto b = env.MakeWorkload(profile, workload, 14);
  bool any_difference = false;
  for (size_t i = 0; i < a[0].train.size() && !any_difference; ++i) {
    for (size_t p = 0; p < a[0].train[i].size(); ++p) {
      if (!(a[0].train[i].ground_truth.points[p].position ==
            b[0].train[i].ground_truth.points[p].position)) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(Determinism, EndToEndExperimentIsReproducible) {
  auto run_once = [] {
    eval::ExperimentEnv env(6, 6, 17);
    traj::WorkloadProfile profile = traj::TdriveLikeProfile();
    profile.trajectories_per_client = 8;
    traj::FederatedWorkloadOptions workload;
    workload.num_clients = 3;
    workload.keep_ratio = 0.25;
    const auto clients = env.MakeWorkload(profile, workload, 19);
    eval::MethodRunOptions options;
    options.fed.rounds = 2;
    options.fed.local_epochs = 1;
    options.max_test_trajectories = 8;
    return eval::RunFederatedMethod(env, baselines::ModelKind::kLightTr,
                                    clients, options);
  };
  const eval::MethodResult a = run_once();
  const eval::MethodResult b = run_once();
  EXPECT_DOUBLE_EQ(a.metrics.recall, b.metrics.recall);
  EXPECT_DOUBLE_EQ(a.metrics.precision, b.metrics.precision);
  EXPECT_DOUBLE_EQ(a.metrics.mae_km, b.metrics.mae_km);
  EXPECT_DOUBLE_EQ(a.metrics.rmse_km, b.metrics.rmse_km);
  EXPECT_EQ(fl::DescribeMismatch(a.run, b.run), "");
}

TEST(Determinism, FaultScheduleIsSeedDeterministic) {
  fl::FaultInjectionConfig config;
  config.dropout_rate = 0.25;
  config.straggler_rate = 0.15;
  config.corruption_rate = 0.1;
  const fl::FaultModel model(config);
  Rng a(23), b(23);
  for (int i = 0; i < 500; ++i) {
    const fl::FaultDraw da = model.Draw(&a);
    const fl::FaultDraw db = model.Draw(&b);
    ASSERT_EQ(da.type, db.type);
    ASSERT_EQ(da.corruption, db.corruption);
    ASSERT_DOUBLE_EQ(da.simulated_seconds, db.simulated_seconds);
  }
}

TEST(Determinism, FaultyExperimentIsReproducible) {
  auto run_once = [] {
    eval::ExperimentEnv env(6, 6, 17);
    traj::WorkloadProfile profile = traj::TdriveLikeProfile();
    profile.trajectories_per_client = 8;
    traj::FederatedWorkloadOptions workload;
    workload.num_clients = 3;
    workload.keep_ratio = 0.25;
    const auto clients = env.MakeWorkload(profile, workload, 19);
    eval::MethodRunOptions options;
    options.fed.rounds = 3;
    options.fed.local_epochs = 1;
    options.fed.faults.dropout_rate = 0.3;
    options.fed.faults.corruption_rate = 0.2;
    options.fed.tolerance.retry.max_retries = 1;
    options.fed.tolerance.aggregator.policy = fl::AggregatorPolicy::kMedian;
    options.max_test_trajectories = 8;
    return eval::RunFederatedMethod(env, baselines::ModelKind::kLightTr,
                                    clients, options);
  };
  const eval::MethodResult a = run_once();
  const eval::MethodResult b = run_once();
  EXPECT_DOUBLE_EQ(a.metrics.recall, b.metrics.recall);
  EXPECT_DOUBLE_EQ(a.metrics.mae_km, b.metrics.mae_km);
  EXPECT_EQ(fl::DescribeMismatch(a.run, b.run), "");
}

// The determinism contract of the parallel substrate: thread count is a
// pure performance knob. The full pipeline — faults, retries, privacy
// noise, quantization, screening, aggregation — must produce bitwise
// identical results at every width because RNG streams are forked on
// the coordinating thread in canonical selection order and uploads are
// merged in that same order.
TEST(Determinism, FederatedRunIsBitwiseIdenticalAcrossThreadCounts) {
  auto run_with_threads = [](int threads) {
    eval::ExperimentEnv env(6, 6, 17);
    traj::WorkloadProfile profile = traj::TdriveLikeProfile();
    profile.trajectories_per_client = 8;
    traj::FederatedWorkloadOptions workload;
    workload.num_clients = 4;
    workload.keep_ratio = 0.25;
    const auto clients = env.MakeWorkload(profile, workload, 19);
    eval::MethodRunOptions options;
    options.fed.rounds = 3;
    options.fed.local_epochs = 1;
    options.fed.client_fraction = 0.75;
    options.fed.faults.dropout_rate = 0.3;
    options.fed.faults.corruption_rate = 0.2;
    options.fed.faults.straggler_rate = 0.1;
    options.fed.tolerance.retry.max_retries = 1;
    options.fed.privacy.clip_norm = 5.0;
    options.fed.privacy.noise_multiplier = 0.01;
    options.fed.quantize_uploads = true;
    options.fed.threads = threads;
    options.max_test_trajectories = 8;
    return eval::RunFederatedMethod(env, baselines::ModelKind::kLightTr,
                                    clients, options);
  };
  const eval::MethodResult serial = run_with_threads(1);
  for (int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const eval::MethodResult parallel = run_with_threads(threads);
    EXPECT_DOUBLE_EQ(parallel.metrics.recall, serial.metrics.recall);
    EXPECT_DOUBLE_EQ(parallel.metrics.precision, serial.metrics.precision);
    EXPECT_DOUBLE_EQ(parallel.metrics.mae_km, serial.metrics.mae_km);
    EXPECT_DOUBLE_EQ(parallel.metrics.rmse_km, serial.metrics.rmse_km);
    EXPECT_EQ(fl::DescribeMismatch(parallel.run, serial.run), "");
  }
}

// ---------------------------------------------------------------------
// Cached encodings are invisible: a training job whose models expose
// their encoder (every loop then reads each trajectory's encoding from
// the job's own cache) computes the same bits as one whose models hide
// it (every call encodes again), at every thread width.

// Forwards every call to the wrapped model. With `expose_encoder` false
// it hides the encoder, so the loops take the trajectory methods; with
// it true they take the encoded ones. Counts the calls that reach the
// trajectory methods in `trajectory_calls` (shared by all replicas) and
// this replica's forward passes of either kind.
class ForwardingModel : public fl::RecoveryModel {
 public:
  ForwardingModel(std::unique_ptr<fl::RecoveryModel> inner,
                  bool expose_encoder, std::atomic<int>* trajectory_calls)
      : inner_(std::move(inner)),
        expose_encoder_(expose_encoder),
        trajectory_calls_(trajectory_calls) {}

  const std::string& name() const override { return inner_->name(); }
  nn::ParameterSet& params() override { return inner_->params(); }
  const traj::TrajectoryEncoder* encoder() const override {
    return expose_encoder_ ? inner_->encoder() : nullptr;
  }

  fl::ForwardResult Forward(const traj::IncompleteTrajectory& trajectory,
                            bool training, Rng* rng) override {
    ++*trajectory_calls_;
    ++forward_calls_;
    return inner_->Forward(trajectory, training, rng);
  }
  std::vector<roadnet::PointPosition> Recover(
      const traj::IncompleteTrajectory& trajectory) override {
    ++*trajectory_calls_;
    return inner_->Recover(trajectory);
  }
  fl::ForwardResult ForwardEncoded(const traj::EncodedTrajectory& encoded,
                                   const traj::IncompleteTrajectory& trajectory,
                                   bool training, Rng* rng) override {
    ++forward_calls_;
    return inner_->ForwardEncoded(encoded, trajectory, training, rng);
  }
  std::vector<roadnet::PointPosition> RecoverEncoded(
      const traj::EncodedTrajectory& encoded,
      const traj::IncompleteTrajectory& trajectory) override {
    return inner_->RecoverEncoded(encoded, trajectory);
  }

  int forward_calls() const { return forward_calls_; }

 private:
  std::unique_ptr<fl::RecoveryModel> inner_;
  bool expose_encoder_;
  std::atomic<int>* trajectory_calls_;
  std::atomic<int> forward_calls_{0};
};

struct JobOutcome {
  fl::FederatedRunResult run;
  eval::RecoveryMetrics metrics;
  std::string global_params;  // float64 blob
  // Calls that reached a trajectory method inside TrainTeacher and Run.
  int trajectory_calls = 0;
  // Forward passes of the teacher during Run: distillation and nothing
  // else calls the teacher's Forward there.
  int teacher_forwards = 0;
};

// One job as eval::RunFederatedMethod composes it (the LightTR kind:
// Algorithm 1's teacher, then Algorithms 2-3 with MetaLocalUpdate; any
// other kind: plain FedAvg), every model wrapped in a ForwardingModel.
JobOutcome RunForwardedJob(baselines::ModelKind kind, bool expose_encoder,
                           int threads) {
  eval::ExperimentEnv env(6, 6, 17);
  traj::WorkloadProfile profile = traj::GeolifeLikeProfile();
  profile.trajectories_per_client = 8;
  traj::FederatedWorkloadOptions workload;
  workload.num_clients = 4;
  workload.keep_ratio = 0.25;
  const auto clients = env.MakeWorkload(profile, workload, 23);

  std::atomic<int> trajectory_calls{0};
  const fl::ModelFactory inner =
      baselines::MakeFactory(kind, &env.encoder());
  const fl::ModelFactory factory =
      [&](Rng* rng) -> std::unique_ptr<fl::RecoveryModel> {
    return std::make_unique<ForwardingModel>(inner(rng), expose_encoder,
                                             &trajectory_calls);
  };
  fl::FederatedTrainerOptions fed;
  fed.rounds = 3;
  fed.local_epochs = 2;
  fed.learning_rate = 3e-3;
  fed.threads = threads;
  fl::FederatedTrainer trainer(factory, &clients, fed);
  std::unique_ptr<fl::RecoveryModel> teacher;
  std::unique_ptr<fl::LocalUpdateStrategy> strategy;
  if (kind == baselines::ModelKind::kLightTr) {
    core::TeacherTrainingOptions teacher_options;
    teacher_options.learning_rate = fed.learning_rate;
    teacher = core::TrainTeacher(factory, clients, teacher_options);
    core::MetaLocalOptions meta;
    // Guide whenever the teacher is ahead, so the distillation path runs.
    meta.l_t = 1.0;
    strategy = std::make_unique<core::MetaLocalUpdate>(teacher.get(), meta);
  } else {
    strategy = std::make_unique<fl::PlainLocalUpdate>();
  }
  JobOutcome outcome;
  outcome.run = trainer.Run(strategy.get());
  outcome.trajectory_calls = trajectory_calls;
  if (teacher != nullptr) {
    outcome.teacher_forwards =
        static_cast<const ForwardingModel&>(*teacher).forward_calls();
  }
  outcome.metrics = eval::EvaluateRecovery(
      trainer.global_model(), env.network(),
      eval::ExperimentEnv::PooledTestSet(clients, 8));
  outcome.global_params = trainer.global_model()->params().Serialize(
      nn::BlobPrecision::kFloat64);
  return outcome;
}

TEST(Determinism, CachedEncodingsAreBitwiseInvisibleInJobs) {
  for (baselines::ModelKind kind :
       {baselines::ModelKind::kLightTr, baselines::ModelKind::kMTrajRec}) {
    SCOPED_TRACE(baselines::ModelKindName(kind));
    const JobOutcome reference =
        RunForwardedJob(kind, /*expose_encoder=*/false, /*threads=*/1);
    // Hidden encoders: every pass took the trajectory methods.
    EXPECT_GT(reference.trajectory_calls, 0);
    if (kind == baselines::ModelKind::kLightTr) {
      EXPECT_GT(reference.teacher_forwards, 0);  // some epoch was guided
    }
    for (int threads : {1, 2, 8}) {
      for (bool expose_encoder : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " expose_encoder=" + std::to_string(expose_encoder));
        const JobOutcome job = RunForwardedJob(kind, expose_encoder, threads);
        EXPECT_EQ(fl::DescribeMismatch(job.run, reference.run), "");
        EXPECT_EQ(job.metrics.recall, reference.metrics.recall);
        EXPECT_EQ(job.metrics.precision, reference.metrics.precision);
        EXPECT_EQ(job.metrics.mae_km, reference.metrics.mae_km);
        EXPECT_EQ(job.metrics.rmse_km, reference.metrics.rmse_km);
        EXPECT_EQ(job.global_params, reference.global_params);
        EXPECT_EQ(job.teacher_forwards, reference.teacher_forwards);
        if (expose_encoder) {
          // Exposed encoders: TrainTeacher and Run read only the cache.
          EXPECT_EQ(job.trajectory_calls, 0);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Self-healing across thread widths: the health verdicts, rollback
// points, and quarantine decisions are all computed on the coordinating
// thread from canonically ordered observations, so a run that diverges,
// rolls back, and quarantines an offender (client 0, which poisons its
// uploads after 3 clean rounds) must be bitwise identical at every width.

TEST(Determinism, SelfHealingRunIsBitwiseIdenticalAcrossThreadCounts) {
  auto run_with_threads = [](int threads) {
    auto clients = chaos::MakeClients(4, 61);
    fl::FederatedTrainerOptions options = test_util::HealingOptions();
    options.threads = threads;
    fl::FederatedTrainer trainer(chaos::MakeStub, &clients, options);
    chaos::HostileCohortUpdate strategy(/*num_hostile=*/1,
                                        /*clean_updates=*/3, 1e8);
    fl::FederatedRunResult result = trainer.Run(&strategy);
    return std::make_pair(
        result,
        dynamic_cast<chaos::StubModel*>(trainer.global_model())->weight());
  };

  const auto [serial, serial_w] = run_with_threads(1);
  // The scenario actually exercises the healing path.
  ASSERT_GE(serial.faults[fl::kDivergedRounds], 1);
  ASSERT_GE(serial.faults[fl::kRollbacks], 1);
  ASSERT_GE(serial.faults[fl::kQuarantineEvents], 1);

  for (int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto [parallel, parallel_w] = run_with_threads(threads);
    EXPECT_EQ(parallel_w, serial_w);
    EXPECT_EQ(fl::DescribeMismatch(parallel, serial), "");
  }
}

// ---------------------------------------------------------------------
// Hostile network across thread widths and crashes: every channel fault
// is drawn from a per-link Rng forked on the coordinating thread and
// consumed sequentially by that link alone, so the network's "weather" —
// and everything downstream of it (retries, dedups, which client times
// out) — is a pure function of the channel seed, never of scheduling.

fl::FederatedTrainerOptions LossyChannelOptions(int rounds) {
  fl::FederatedTrainerOptions options;
  options.rounds = rounds;
  options.local_epochs = 2;
  options.learning_rate = 0.05;
  options.transport.channel.drop_rate = 0.15;
  options.transport.channel.duplicate_rate = 0.1;
  options.transport.channel.reorder_rate = 0.1;
  options.transport.channel.corrupt_rate = 0.15;
  options.transport.channel.delay_rate = 0.05;
  options.transport.retry.max_retries = 32;
  return options;
}

TEST(Determinism, LossyChannelRunIsBitwiseIdenticalAcrossThreadCounts) {
  auto run_with_threads = [](int threads) {
    auto clients = chaos::MakeClients(4, 67);
    fl::FederatedTrainerOptions options = LossyChannelOptions(10);
    options.threads = threads;
    fl::FederatedTrainer trainer(chaos::MakeStub, &clients, options);
    fl::FederatedRunResult result = trainer.Run();
    return std::make_pair(std::move(result),
                          trainer.global_model()->params().Serialize());
  };

  const auto [serial, serial_params] = run_with_threads(1);
  // The weather actually happened: frames were damaged and retried.
  ASSERT_GT(serial.faults[fl::kNetCrcDrops], 0);
  ASSERT_GT(serial.faults[fl::kNetRetries], 0);

  for (int threads : {2, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto [parallel, parallel_params] = run_with_threads(threads);
    EXPECT_EQ(parallel_params, serial_params);
    EXPECT_EQ(fl::DescribeMismatch(parallel, serial), "");
  }
}

TEST(Determinism, CrashResumeOverLossyChannelIsBitwiseIdentical) {
  // A run killed mid-round over a hostile network must resume to the
  // exact bits of an uninterrupted run: the snapshot carries the channel
  // RNG state, so the replay sees the same network weather.
  auto clients = chaos::MakeClients(4, 71);
  fl::FederatedTrainerOptions baseline_options = LossyChannelOptions(12);
  fl::FederatedTrainer baseline(chaos::MakeStub, &clients, baseline_options);
  const fl::FederatedRunResult expected = baseline.Run();
  ASSERT_GT(expected.faults[fl::kNetCrcDrops], 0);
  const std::string expected_params =
      baseline.global_model()->params().Serialize();

  fl::FederatedTrainerOptions options = LossyChannelOptions(12);
  options.durability.dir = test_util::FreshDir("lossy_crash_resume");
  options.durability.snapshot_every = 3;
  options.durability.crash_point = fl::CrashPoint::kMidRound;
  options.durability.crash_round = 8;

  bool crashed = false;
  {
    fl::FederatedTrainer victim(chaos::MakeStub, &clients, options);
    try {
      victim.Run();
    } catch (const fl::InjectedCrash& crash) {
      crashed = true;
      EXPECT_EQ(crash.round, 8);
    }
  }
  ASSERT_TRUE(crashed);

  options.durability.crash_point = fl::CrashPoint::kNone;
  options.durability.crash_round = 0;
  options.durability.resume = true;
  fl::FederatedTrainer resumed(chaos::MakeStub, &clients, options);
  const fl::FederatedRunResult result = resumed.Run();
  EXPECT_GT(resumed.resumed_round(), 0);
  EXPECT_EQ(resumed.global_model()->params().Serialize(), expected_params);
  EXPECT_EQ(fl::DescribeMismatch(result, expected), "");
}

// The kernel axis of the determinism contract (DESIGN.md §14): for a
// FIXED kernel mode, thread count and crash/resume stay bitwise
// invisible — on AVX2 hardware kAuto runs the vector table, so this
// sweeps a genuinely different reduction order than kScalar. Across
// modes results may differ (FMA rounding), which is exactly why the
// mode is one process-global choice made by the entry point (here, the
// test) rather than sniffed per-thread; no trainer changes it.
TEST(Determinism, LossyChannelRunIsBitwiseIdenticalPerKernelMode) {
  const nn::KernelMode saved = nn::ActiveKernelMode();
  for (nn::KernelMode mode : {nn::KernelMode::kScalar, nn::KernelMode::kAuto}) {
    nn::ActivateKernels(mode);
    auto run_with_threads = [](int threads) {
      auto clients = chaos::MakeClients(4, 67);
      fl::FederatedTrainerOptions options = LossyChannelOptions(6);
      options.threads = threads;
      fl::FederatedTrainer trainer(chaos::MakeStub, &clients, options);
      fl::FederatedRunResult result = trainer.Run();
      return std::make_pair(std::move(result),
                            trainer.global_model()->params().Serialize());
    };
    const auto [serial, serial_params] = run_with_threads(1);
    ASSERT_GT(serial.faults[fl::kNetRetries], 0);
    for (int threads : {2, 8}) {
      const auto [parallel, parallel_params] = run_with_threads(threads);
      EXPECT_EQ(parallel_params, serial_params)
          << "kernel=" << nn::KernelModeName(mode) << " threads=" << threads;
      EXPECT_EQ(fl::DescribeMismatch(parallel, serial), "");
    }

    // Crash mid-run and resume under the same kernel: same final bits.
    auto clients = chaos::MakeClients(4, 67);
    fl::FederatedTrainerOptions options = LossyChannelOptions(6);
    options.durability.dir = test_util::FreshDir(
        std::string("kernel_crash_resume_") + nn::KernelModeName(mode));
    options.durability.snapshot_every = 2;
    options.durability.crash_point = fl::CrashPoint::kMidRound;
    options.durability.crash_round = 4;
    bool crashed = false;
    {
      fl::FederatedTrainer victim(chaos::MakeStub, &clients, options);
      try {
        victim.Run();
      } catch (const fl::InjectedCrash&) {
        crashed = true;
      }
    }
    ASSERT_TRUE(crashed) << nn::KernelModeName(mode);
    options.durability.crash_point = fl::CrashPoint::kNone;
    options.durability.crash_round = 0;
    options.durability.resume = true;
    fl::FederatedTrainer resumed(chaos::MakeStub, &clients, options);
    (void)resumed.Run();
    EXPECT_GT(resumed.resumed_round(), 0);
    EXPECT_EQ(resumed.global_model()->params().Serialize(), serial_params)
        << "kernel=" << nn::KernelModeName(mode);
  }
  nn::ActivateKernels(saved);
}

}  // namespace
}  // namespace lighttr
