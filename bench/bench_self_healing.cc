// Recovery-under-poisoning sweep for the self-healing layer: the same
// federated LightTR run with a hostile minority of clients uploading
// huge-but-finite weights, with the round health monitor off vs on.
//
// Expected shape: with --health off the poisoned mean drags the global
// model into a blown-up validation loss; with the monitor on the first
// poisoned round is detected as diverged, rolled back, replayed under
// escalated screening (median aggregation), and the offenders end up
// quarantined — the run finishes with a finite model and a validation
// loss close to the clean baseline. A second, clean section measures
// the monitor's overhead when nothing goes wrong (results must be
// bitwise identical with the layer on or off).
//
// Emits a human table plus BENCH_self_healing.json, and exits non-zero
// if the healing layer fails to beat the unprotected run.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/model_zoo.h"
#include "bench/bench_output.h"
#include "chaos/stub_federation.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "eval/harness.h"
#include "fl/federated_trainer.h"
#include "nn/parameter.h"

namespace {

using namespace lighttr;

using bench::JsonSafe;

std::string JsonRow(const std::string& section, bool health, double seconds,
                    double valid_loss, double recall, const fl::FaultStats& f,
                    bool finite, bool gave_up) {
  char buffer[384];
  std::snprintf(
      buffer, sizeof(buffer),
      "  {\"section\": \"%s\", \"health\": %d, \"seconds\": %.3f, "
      "\"valid_loss\": %.6g, \"recall\": %.4f, \"diverged\": %lld, "
      "\"rollbacks\": %lld, \"quarantine\": %lld, \"parole\": %lld, "
      "\"outliers\": %lld, \"finite\": %d, \"gave_up\": %d}",
      section.c_str(), health ? 1 : 0, seconds, JsonSafe(valid_loss), recall,
      static_cast<long long>(f[fl::kDivergedRounds]),
      static_cast<long long>(f[fl::kRollbacks]),
      static_cast<long long>(f[fl::kQuarantineEvents]),
      static_cast<long long>(f[fl::kParoleEvents]),
      static_cast<long long>(f[fl::kOutlierUploads]), finite ? 1 : 0,
      gave_up ? 1 : 0);
  return buffer;
}

struct RunOutcome {
  fl::FederatedRunResult run;
  double valid_loss = 0.0;
  double recall = 0.0;
  double seconds = 0.0;
  bool finite = false;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  if (args.error) return 2;
  const eval::ExperimentScale scale = eval::ExperimentScale::FromEnv();
  std::printf("Self-healing sweep (scale=%s)\n", scale.name.c_str());

  auto env = eval::ExperimentEnv::FromScale(scale);
  const traj::WorkloadProfile profile =
      eval::ScaledProfile(traj::TdriveLikeProfile(), scale);
  const auto clients = env->MakeWorkload(
      profile, eval::DefaultWorkloadOptions(scale, 0.125), scale.seed + 7);
  const std::vector<traj::IncompleteTrajectory> test =
      eval::ExperimentEnv::PooledTestSet(clients, scale.max_test_trajectories);

  // Enough rounds for the loss window to arm (3), the poison to land,
  // and the replayed tail to recover.
  const int rounds = std::max(scale.rounds, 12);
  const int num_hostile = std::max(1, static_cast<int>(clients.size()) / 4);
  const int clean_updates = 4;

  const auto fed_options = [&](bool health) {
    eval::MethodRunOptions base = eval::DefaultRunOptions(scale);
    fl::FederatedTrainerOptions options = base.fed;
    options.rounds = rounds;
    // Screening stays off so the poison reaches the aggregator — turning
    // it back on (escalation) is the healing layer's own countermove.
    options.tolerance.screen.enabled = false;
    options.healing.enabled = health;
    // Below the outlier EWMA's asymptote (0.5), so a repeat norm
    // offender is quarantined after a few flagged rounds.
    options.healing.reputation.quarantine_threshold = 0.4;
    return options;
  };

  const auto run_once = [&](bool health, bool poisoned) {
    fl::FederatedTrainer trainer(
        baselines::MakeFactory(baselines::ModelKind::kLightTr, &env->encoder()),
        &clients, fed_options(health));
    // Finite poison slips past the non-finite screen and, with screening
    // off, drags the mean: the failure the health monitor exists to catch.
    chaos::HostileCohortUpdate hostile(num_hostile, clean_updates, 1e6);
    Stopwatch watch;
    RunOutcome outcome;
    outcome.run = trainer.Run(poisoned ? &hostile : nullptr);
    outcome.seconds = watch.ElapsedSeconds();
    outcome.valid_loss = outcome.run.history.empty()
                             ? 0.0
                             : outcome.run.history.back().valid_loss;
    outcome.finite = true;
    for (const nn::Scalar v : trainer.global_model()->params().Flatten()) {
      if (!std::isfinite(v)) outcome.finite = false;
    }
    outcome.recall =
        eval::EvaluateRecovery(trainer.global_model(), env->network(), test)
            .recall;
    return outcome;
  };

  TablePrinter table({"Section", "Health", "ValidLoss", "Recall", "Diverged",
                      "Rollbacks", "Quarantine", "Finite", "Wall(s)"});
  std::vector<std::string> json_rows;
  const auto report = [&](const std::string& section, bool health,
                          const RunOutcome& outcome) {
    const fl::FaultStats& faults = outcome.run.faults;
    table.AddRow({section, health ? "on" : "off",
                  TablePrinter::Fmt(JsonSafe(outcome.valid_loss)),
                  TablePrinter::Fmt(outcome.recall),
                  std::to_string(faults[fl::kDivergedRounds]),
                  std::to_string(faults[fl::kRollbacks]),
                  std::to_string(faults[fl::kQuarantineEvents]),
                  outcome.finite ? "yes" : "no",
                  TablePrinter::Fmt(outcome.seconds, 2)});
    json_rows.push_back(JsonRow(section, health, outcome.seconds,
                                outcome.valid_loss, outcome.recall, faults,
                                outcome.finite, outcome.run.gave_up));
    std::printf("%s health=%s: valid_loss=%.6g recall=%.4f diverged=%lld "
                "rollbacks=%lld quarantine=%lld finite=%d (%.2fs)\n",
                section.c_str(), health ? "on" : "off",
                outcome.valid_loss, outcome.recall,
                static_cast<long long>(faults[fl::kDivergedRounds]),
                static_cast<long long>(faults[fl::kRollbacks]),
                static_cast<long long>(faults[fl::kQuarantineEvents]),
                outcome.finite ? 1 : 0, outcome.seconds);
    std::fflush(stdout);
  };

  // ---- Section 1: poisoned run, unprotected vs self-healing.
  std::printf("poisoned section: %d/%zu hostile clients, poison after %d "
              "clean updates, %d rounds\n",
              num_hostile, clients.size(), clean_updates, rounds);
  const RunOutcome poisoned_off = run_once(/*health=*/false, /*poisoned=*/true);
  report("poisoned", false, poisoned_off);
  const RunOutcome poisoned_on = run_once(/*health=*/true, /*poisoned=*/true);
  report("poisoned", true, poisoned_on);

  // ---- Section 2: clean run, measuring the monitor's overhead.
  const RunOutcome clean_off = run_once(/*health=*/false, /*poisoned=*/false);
  report("clean", false, clean_off);
  const RunOutcome clean_on = run_once(/*health=*/true, /*poisoned=*/false);
  report("clean", true, clean_on);
  if (clean_on.valid_loss != clean_off.valid_loss) {
    std::printf("ERROR: healing layer perturbed a clean run "
                "(valid_loss %.17g vs %.17g)\n",
                clean_on.valid_loss, clean_off.valid_loss);
    return 1;
  }
  std::printf("clean overhead: %.1f%%\n",
              clean_off.seconds > 0.0
                  ? (clean_on.seconds / clean_off.seconds - 1.0) * 100.0
                  : 0.0);

  std::printf("%s", table.ToString().c_str());
  if (!bench::WriteArtifact(args, "BENCH_self_healing.json",
                            bench::JsonArray(json_rows) + "\n") ||
      !bench::WriteArtifact(args, "bench_self_healing.csv", table.ToCsv())) {
    return 1;
  }

  // The acceptance bar: the protected run must detect, roll back, and
  // end strictly healthier than the unprotected one.
  if (!poisoned_on.finite || poisoned_on.run.gave_up ||
      poisoned_on.run.faults[fl::kDivergedRounds] < 1 ||
      poisoned_on.run.faults[fl::kRollbacks] < 1 ||
      poisoned_on.run.faults[fl::kQuarantineEvents] < 1 ||
      !(JsonSafe(poisoned_on.valid_loss) < JsonSafe(poisoned_off.valid_loss))) {
    std::printf("ERROR: self-healing did not beat the unprotected run\n");
    return 1;
  }
  return 0;
}
