// Resilience curves for the fault-tolerant federated loop: sweeps the
// injected dropout rate against the aggregation policy (with a fixed
// background of corrupted uploads) and reports recovery quality plus
// fault telemetry.
//
// Expected shape: with retries + screening, accuracy degrades gently as
// the dropout rate grows; the robust aggregators (median, trimmed mean)
// track the mean closely on clean rounds and beat it when corrupted
// uploads slip past a loose screen.
#include <cstdio>
#include <vector>

#include "bench/bench_output.h"
#include "common/table_printer.h"
#include "eval/harness.h"
#include "lighttr/pipeline.h"

int main() {
  using namespace lighttr;
  const eval::ExperimentScale scale = eval::ExperimentScale::FromEnv();
  std::printf("Fault-tolerance sweep (scale=%s)\n", scale.name.c_str());

  auto env = eval::ExperimentEnv::FromScale(scale);
  const traj::WorkloadProfile profile =
      eval::ScaledProfile(traj::TdriveLikeProfile(), scale);
  const auto clients = env->MakeWorkload(
      profile, eval::DefaultWorkloadOptions(scale, 0.125), scale.seed + 5);

  const std::vector<double> dropout_rates = {0.0, 0.1, 0.3, 0.5};
  const std::vector<fl::AggregatorPolicy> policies = {
      fl::AggregatorPolicy::kMean, fl::AggregatorPolicy::kMedian,
      fl::AggregatorPolicy::kTrimmedMean};

  TablePrinter table({"Dropout", "Aggregator", "Recall", "MAE(km)",
                      "Cohort%", "Drops", "Retries", "Rejected",
                      "QuorumMiss"});
  for (double dropout : dropout_rates) {
    for (fl::AggregatorPolicy policy : policies) {
      eval::MethodRunOptions options = eval::DefaultRunOptions(scale);
      options.fed.faults.dropout_rate = dropout;
      options.fed.faults.corruption_rate = 0.05;
      options.fed.tolerance.retry.max_retries = 2;
      options.fed.tolerance.quorum_fraction = 0.25;
      options.fed.tolerance.screen.max_delta_norm = 50.0;
      options.fed.tolerance.screen.norm_policy = fl::ScreenPolicy::kReject;
      options.fed.tolerance.aggregator.policy = policy;
      options.fed.tolerance.aggregator.trim_fraction = 0.2;
      const eval::MethodResult result = eval::RunFederatedMethod(
          *env, baselines::ModelKind::kLightTr, clients, options);
      const fl::FaultStats& faults = result.run.faults;
      table.AddRow(
          {TablePrinter::Fmt(dropout * 100, 0) + "%",
           fl::AggregatorPolicyName(policy),
           TablePrinter::Fmt(result.metrics.recall),
           TablePrinter::Fmt(result.metrics.mae_km),
           TablePrinter::Fmt(faults.MeanCohortFraction() * 100, 0),
           std::to_string(faults[fl::kDrops]),
           std::to_string(faults[fl::kRetries]),
           std::to_string(faults[fl::kRejectedUploads]),
           std::to_string(faults[fl::kQuorumMisses])});
      std::printf("done: dropout=%.0f%% agg=%s | %s\n", dropout * 100,
                  fl::AggregatorPolicyName(policy),
                  core::SummarizeResilience(result.run).c_str());
      std::fflush(stdout);
    }
  }
  std::printf("%s", table.ToString().c_str());
  (void)lighttr::bench::WriteArtifact(
      lighttr::bench::EnvBenchArgs(), "bench_fault_tolerance.csv", table.ToCsv());
  return 0;
}
