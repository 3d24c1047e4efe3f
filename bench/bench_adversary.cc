// Byzantine-robustness gate for the model-poisoning adversary
// (fl/adversary): the same federated LightTR run with a compromised
// client cohort, defense off (plain mean, no healing) vs defense on
// (Multi-Krum aggregation + the reputation ledger), across all four
// attack types.
//
// Expected shape: undefended, every attack drags (or quietly biases)
// the global model; defended, Multi-Krum keeps the poisoned uploads out
// of the aggregate, the suspicion pass feeds the reputation ledger, and
// the whole attacker cohort — and nobody else — ends quarantined, so
// the tail of the run trains clean and the final validation loss beats
// the undefended run. Two determinism legs re-run one poisoned defended
// scenario across thread widths {1, 2, 8} and across an injected
// crash + resume: final parameters must be bitwise identical (the
// adversary RNG + counters ride in the run-state snapshot).
//
// Emits a human table plus BENCH_adversary.json, and exits non-zero if
// any gate fails. --smoke shrinks the workload to the sanitizer-budget
// tier-1 size without weakening any gate.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/model_zoo.h"
#include "bench/bench_output.h"
#include "common/env.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "eval/harness.h"
#include "fl/adversary.h"
#include "fl/federated_trainer.h"
#include "nn/parameter.h"

namespace {

using namespace lighttr;

using bench::JsonSafe;

constexpr int kNumAttackers = 2;
constexpr char kSnapshotDir[] = "bench-adv";

struct RunOutcome {
  fl::FederatedRunResult run;
  std::vector<nn::Scalar> params;
  std::vector<int> quarantined;
  double valid_loss = 0.0;
  double recall = 0.0;
  double seconds = 0.0;
  bool finite = false;
};

std::string JsonRow(const std::string& attack, const std::string& leg,
                    bool defended, const RunOutcome& o) {
  const fl::FaultStats& f = o.run.faults;
  char buffer[384];
  std::snprintf(
      buffer, sizeof(buffer),
      "  {\"attack\": \"%s\", \"leg\": \"%s\", \"defended\": %d, "
      "\"valid_loss\": %.6g, \"recall\": %.4f, \"poisoned\": %lld, "
      "\"suspected\": %lld, \"quarantine\": %lld, \"finite\": %d, "
      "\"gave_up\": %d, \"seconds\": %.3f}",
      attack.c_str(), leg.c_str(), defended ? 1 : 0, JsonSafe(o.valid_loss),
      o.recall, static_cast<long long>(f[fl::kPoisonedUploads]),
      static_cast<long long>(f[fl::kSuspectedUploads]),
      static_cast<long long>(f[fl::kQuarantineEvents]), o.finite ? 1 : 0,
      o.run.gave_up ? 1 : 0, o.seconds);
  return buffer;
}

std::string JoinInts(const std::vector<int>& v) {
  std::string out;
  for (const int x : v) {
    if (!out.empty()) out += ",";
    out += std::to_string(x);
  }
  return out.empty() ? "-" : out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  if (args.error) return 2;
  eval::ExperimentScale scale = eval::ExperimentScale::FromEnv();
  if (args.smoke) {
    // Tier-1 / sanitizer budget: smallest workload that still leaves a
    // meaningful honest majority and enough rounds to attack, detect,
    // quarantine, and recover. Every gate below still applies.
    scale.name = "smoke";
    scale.grid_rows = 6;
    scale.grid_cols = 6;
    scale.trajectories_per_client = 10;
    scale.local_epochs = 1;
    scale.max_test_trajectories = 24;
  }
  // >= 8 clients keeps f = floor(0.35 * clients) covering the cohort;
  // 12 rounds give the undefended runs time to pay for the poison they
  // keep aggregating after the defended runs have quarantined it.
  scale.num_clients = std::max(scale.num_clients, 8);
  const int rounds = std::max(scale.rounds, 12);
  std::printf("Adversary sweep (scale=%s, %d clients, %d attackers, "
              "%d rounds)\n",
              scale.name.c_str(), scale.num_clients, kNumAttackers, rounds);

  auto env = eval::ExperimentEnv::FromScale(scale);
  const traj::WorkloadProfile profile =
      eval::ScaledProfile(traj::TdriveLikeProfile(), scale);
  const auto clients = env->MakeWorkload(
      profile, eval::DefaultWorkloadOptions(scale, 0.125), scale.seed + 19);
  const std::vector<traj::IncompleteTrajectory> test =
      eval::ExperimentEnv::PooledTestSet(clients, scale.max_test_trajectories);

  const auto fed_options = [&](fl::AttackType attack, bool defended,
                               int threads) {
    fl::FederatedTrainerOptions options = eval::DefaultRunOptions(scale).fed;
    options.rounds = rounds;
    options.threads = threads;
    // Full participation: the attacker cohort reports every round, so
    // quarantine timing (and with it the whole sweep) is deterministic.
    options.client_fraction = 1.0;
    // Attack from round 2 on: round 1 banks honest delta norms, which
    // the stealthy attacks (min-max, norm-matched) size themselves to.
    options.adversary.num_attackers = kNumAttackers;
    options.adversary.attack = attack;
    options.adversary.start_round = 2;
    if (defended) {
      options.tolerance.aggregator.policy = fl::AggregatorPolicy::kMultiKrum;
      // f = floor(0.3 * clients) covers the 2-attacker cohort from 8
      // clients up, and drops to f=1 once quarantine shrinks the cohort
      // to the 6 honest clients — the cheapest selection tax that still
      // provisions for the attackers while they are live.
      options.tolerance.aggregator.byzantine_fraction = 0.3;
      // Detection-only Krum: clean rounds aggregate the plain mean
      // (zero selection tax), attack rounds sit out exactly the
      // flagged uploads.
      options.tolerance.aggregator.exclude_suspected = true;
      options.healing.enabled = true;
      // Below the suspect weight's EWMA asymptote (0.7), so the second
      // consecutive suspicion flag quarantines. It also sits below the
      // outlier asymptote (0.5): only a *persistent* norm outlier could
      // cross on outlier events alone, which honest clients in this
      // workload never are.
      options.healing.reputation.quarantine_threshold = 0.45;
      // No parole inside the sweep: "ends quarantined" is the gate.
      options.healing.reputation.parole_rounds = rounds + 100;
    }
    return options;
  };

  const auto run_once = [&](const fl::FederatedTrainerOptions& options,
                            bool evaluate) {
    fl::FederatedTrainer trainer(
        baselines::MakeFactory(baselines::ModelKind::kLightTr, &env->encoder()),
        &clients, options);
    Stopwatch watch;
    RunOutcome outcome;
    outcome.run = trainer.Run();
    outcome.seconds = watch.ElapsedSeconds();
    outcome.params = trainer.global_model()->params().Flatten();
    outcome.valid_loss = outcome.run.history.empty()
                             ? 0.0
                             : outcome.run.history.back().valid_loss;
    outcome.finite = true;
    for (const nn::Scalar v : outcome.params) {
      if (!std::isfinite(v)) outcome.finite = false;
    }
    if (trainer.reputation() != nullptr) {
      for (int i = 0; i < trainer.num_clients(); ++i) {
        if (trainer.reputation()->IsQuarantined(i)) {
          outcome.quarantined.push_back(i);
        }
      }
    }
    if (evaluate) {
      outcome.recall =
          eval::EvaluateRecovery(trainer.global_model(), env->network(), test)
              .recall;
    }
    return outcome;
  };

  TablePrinter table({"Attack", "Defense", "ValidLoss", "Recall", "Poisoned",
                      "Suspected", "Quarantined", "Finite", "Wall(s)"});
  std::vector<std::string> json_rows;
  const auto report = [&](const std::string& attack, const std::string& leg,
                          bool defended, const RunOutcome& o) {
    table.AddRow({attack, defended ? "on" : "off",
                  TablePrinter::Fmt(JsonSafe(o.valid_loss)),
                  TablePrinter::Fmt(o.recall),
                  std::to_string(o.run.faults[fl::kPoisonedUploads]),
                  std::to_string(o.run.faults[fl::kSuspectedUploads]),
                  JoinInts(o.quarantined), o.finite ? "yes" : "no",
                  TablePrinter::Fmt(o.seconds, 2)});
    json_rows.push_back(JsonRow(attack, leg, defended, o));
    std::printf("%s defense=%s: valid_loss=%.6g poisoned=%lld "
                "suspected=%lld quarantined=[%s] finite=%d (%.2fs)\n",
                attack.c_str(), defended ? "on" : "off", o.valid_loss,
                static_cast<long long>(o.run.faults[fl::kPoisonedUploads]),
                static_cast<long long>(o.run.faults[fl::kSuspectedUploads]),
                JoinInts(o.quarantined).c_str(), o.finite ? 1 : 0, o.seconds);
    std::fflush(stdout);
  };

  std::vector<int> expected_quarantine;
  for (int i = 0; i < kNumAttackers; ++i) expected_quarantine.push_back(i);

  // ---- Gate 1: per attack type, defense-on beats defense-off and
  // quarantines exactly the attacker cohort.
  const fl::AttackType attacks[] = {
      fl::AttackType::kSignFlip, fl::AttackType::kScaledAscent,
      fl::AttackType::kMinMax, fl::AttackType::kNormMatched};
  bool gate_ok = true;
  RunOutcome reference;  // scaled-ascent defended, threads=1
  for (const fl::AttackType attack : attacks) {
    const std::string name = fl::AttackTypeName(attack);
    const RunOutcome off = run_once(
        fed_options(attack, /*defended=*/false, /*threads=*/1), true);
    report(name, "sweep", false, off);
    const RunOutcome on = run_once(
        fed_options(attack, /*defended=*/true, /*threads=*/1), true);
    report(name, "sweep", true, on);
    if (attack == fl::AttackType::kScaledAscent) reference = on;
    if (off.run.faults[fl::kPoisonedUploads] <= 0) {
      std::printf("ERROR[%s]: the attack never fired\n", name.c_str());
      gate_ok = false;
    }
    if (!on.finite || on.run.gave_up) {
      std::printf("ERROR[%s]: defended run did not finish healthy\n",
                  name.c_str());
      gate_ok = false;
    }
    if (!(JsonSafe(on.valid_loss) < JsonSafe(off.valid_loss))) {
      std::printf("ERROR[%s]: defense-on loss %.6g does not beat "
                  "defense-off %.6g\n",
                  name.c_str(), JsonSafe(on.valid_loss),
                  JsonSafe(off.valid_loss));
      gate_ok = false;
    }
    if (on.quarantined != expected_quarantine) {
      std::printf("ERROR[%s]: quarantined [%s], want exactly the attacker "
                  "cohort [%s]\n",
                  name.c_str(), JoinInts(on.quarantined).c_str(),
                  JoinInts(expected_quarantine).c_str());
      gate_ok = false;
    }
  }

  // ---- Gate 2: thread-width determinism on a poisoned defended run.
  for (const int threads : {2, 8}) {
    const RunOutcome wide = run_once(
        fed_options(fl::AttackType::kScaledAscent, /*defended=*/true, threads),
        false);
    report("scaled-ascent", "threads=" + std::to_string(threads), true, wide);
    if (wide.params != reference.params ||
        wide.quarantined != reference.quarantined) {
      std::printf("ERROR: threads=%d diverged bitwise from threads=1\n",
                  threads);
      gate_ok = false;
    }
  }

  // ---- Gate 3: crash/resume determinism with the attack stream live.
  // A zero-fault FaultyFileSystem is a deterministic RAM disk: the
  // snapshots never touch the real disk, and SimulateCrash drops
  // exactly what a power cut would.
  {
    FaultyFileSystem fs{StorageFaultConfig{}};
    fl::FederatedTrainerOptions crashing =
        fed_options(fl::AttackType::kScaledAscent, /*defended=*/true, 1);
    crashing.durability.dir = kSnapshotDir;
    crashing.durability.fs = &fs;
    crashing.durability.crash_point = fl::CrashPoint::kAfterSave;
    crashing.durability.crash_round = rounds / 2;
    RunOutcome resumed;
    bool crash_fired = false;
    {
      fl::FederatedTrainer trainer(
          baselines::MakeFactory(baselines::ModelKind::kLightTr,
                                 &env->encoder()),
          &clients, crashing);
      try {
        trainer.Run();
      } catch (const fl::InjectedCrash&) {
        crash_fired = true;
      }
    }
    if (!crash_fired) {
      std::printf("ERROR: injected crash never fired\n");
      gate_ok = false;
    } else {
      fs.SimulateCrash();
      fl::FederatedTrainerOptions after = crashing;
      after.durability.crash_point = fl::CrashPoint::kNone;
      after.durability.crash_round = 0;
      fl::FederatedTrainer trainer(
          baselines::MakeFactory(baselines::ModelKind::kLightTr,
                                 &env->encoder()),
          &clients, after);
      const Status restore = trainer.ResumeFrom(kSnapshotDir);
      if (!restore.ok()) {
        std::printf("ERROR: resume failed: %s\n",
                    restore.ToString().c_str());
        gate_ok = false;
      } else {
        Stopwatch watch;
        resumed.run = trainer.Run();
        resumed.seconds = watch.ElapsedSeconds();
        resumed.params = trainer.global_model()->params().Flatten();
        resumed.valid_loss = resumed.run.history.empty()
                                 ? 0.0
                                 : resumed.run.history.back().valid_loss;
        resumed.finite = true;
        for (const nn::Scalar v : resumed.params) {
          if (!std::isfinite(v)) resumed.finite = false;
        }
        if (trainer.reputation() != nullptr) {
          for (int i = 0; i < trainer.num_clients(); ++i) {
            if (trainer.reputation()->IsQuarantined(i)) {
              resumed.quarantined.push_back(i);
            }
          }
        }
        report("scaled-ascent", "crash-resume", true, resumed);
        if (resumed.params != reference.params ||
            resumed.quarantined != reference.quarantined) {
          std::printf(
              "ERROR: crash/resume diverged bitwise from uninterrupted\n");
          gate_ok = false;
        }
      }
    }
  }

  std::printf("%s", table.ToString().c_str());
  if (!bench::WriteArtifact(args, "BENCH_adversary.json",
                            bench::JsonArray(json_rows) + "\n") ||
      !bench::WriteArtifact(args, "bench_adversary.csv", table.ToCsv())) {
    return 1;
  }

  if (!gate_ok) {
    std::printf("ERROR: adversary robustness gate failed\n");
    return 1;
  }
  return 0;
}
