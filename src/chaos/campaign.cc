#include "chaos/campaign.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "chaos/stub_federation.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/finite.h"
#include "fl/comm_stats.h"
#include "fl/federated_trainer.h"
#include "fl/run_state.h"

namespace lighttr::chaos {
namespace {

constexpr char kChaosDir[] = "chaos";

fl::FederatedTrainerOptions MakeOptions(const ChaosScenario& s, int threads,
                                        FileSystem* fs, bool with_crash) {
  fl::FederatedTrainerOptions o;
  o.rounds = s.rounds;
  o.client_fraction = s.client_fraction;
  o.local_epochs = 1;
  o.learning_rate = 0.05;
  o.seed = s.seed;
  o.threads = threads;
  o.tolerance.quorum_fraction = s.quorum_fraction;
  o.tolerance.retry.max_retries = 1;
  if (s.client_faults_on) o.faults = s.client_faults;
  if (s.net_on) o.transport.channel = s.net;
  if (s.healing) {
    o.healing.enabled = true;
    o.healing.max_rollbacks = 2;
  }
  if (s.adversary_on) {
    o.adversary = s.adversary;
    // ParseRepro bounds count by clients, but a shrunk candidate can
    // lower `clients` past it; clamp instead of tripping the trainer.
    o.adversary.num_attackers = std::min(o.adversary.num_attackers, s.clients);
    if (s.adversary_defended) {
      // The Byzantine counter-measures: robust aggregation plus the
      // reputation/quarantine layer to evict identified attackers.
      o.tolerance.aggregator.policy = fl::AggregatorPolicy::kMultiKrum;
      o.tolerance.aggregator.byzantine_fraction = 0.4;
      o.tolerance.aggregator.exclude_suspected = true;
      o.healing.enabled = true;
      o.healing.max_rollbacks = 2;
    }
  }
  o.durability.dir = kChaosDir;
  o.durability.fs = fs;
  o.durability.snapshot_every = 2;
  o.durability.keep_snapshots = 2;
  if (with_crash && s.crash_on) {
    o.durability.crash_point = s.crash_point;
    o.durability.crash_round = s.crash_round;
  }
  return o;
}

FaultyFileSystem MakeScenarioFs(const ChaosScenario& s) {
  // storage_on=false still runs on a FaultyFileSystem — with an all-zero
  // config it is a plain deterministic RAM disk, so no scenario ever
  // touches the real disk.
  return FaultyFileSystem(s.storage_on ? s.storage : StorageFaultConfig{});
}

struct RunOutcome {
  fl::FederatedRunResult result;
  std::vector<nn::Scalar> final_params;
  /// Client indices quarantined at the end of the run (empty with the
  /// healing layer off) — the adversary-attribution invariant's input.
  std::vector<int> quarantined;
  bool crash_fired = false;
  bool fresh_restart = false;
};

// One full run segment: train, and when the injected crash fires,
// simulate the machine crash and resume from whatever survived (a
// failed resume falls back to a fresh restart, which must converge to
// the same final model — everything derives from the seed).
RunOutcome RunOnce(const ChaosScenario& s, int threads, bool with_crash,
                   FaultyFileSystem* fs,
                   const std::vector<traj::ClientDataset>* clients) {
  RunOutcome out;
  if (s.plant == PlantedBug::kLeakTmp) {
    fs->set_leak_tmp_on_rename_failure(true);
  }
  auto trainer = std::make_unique<fl::FederatedTrainer>(
      MakeStub, clients, MakeOptions(s, threads, fs, with_crash));
  try {
    out.result = trainer->Run();
  } catch (const fl::InjectedCrash&) {
    out.crash_fired = true;
    fs->SimulateCrash();
    const fl::FederatedTrainerOptions after_crash =
        MakeOptions(s, threads, fs, /*with_crash=*/false);
    trainer =
        std::make_unique<fl::FederatedTrainer>(MakeStub, clients, after_crash);
    const Status resumed = trainer->ResumeFrom(kChaosDir);
    if (!resumed.ok()) {
      // Nothing usable survived (or the resume itself hit storage
      // faults): discard the possibly half-restored trainer and restart
      // from scratch.
      out.fresh_restart = true;
      trainer = std::make_unique<fl::FederatedTrainer>(MakeStub, clients,
                                                       after_crash);
    }
    out.result = trainer->Run();
  }
  out.final_params = trainer->global_model()->params().Flatten();
  if (trainer->reputation() != nullptr) {
    for (int i = 0; i < trainer->num_clients(); ++i) {
      if (trainer->reputation()->IsQuarantined(i)) out.quarantined.push_back(i);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Invariants.
// ---------------------------------------------------------------------------

void AddViolation(ScenarioReport* report, const std::string& label,
                  const std::string& detail) {
  report->violations.push_back(InvariantViolation{label, detail});
}

// Invariant: the final global model is finite, always — no fault axis
// is allowed to push NaN/Inf into the aggregated parameters.
void CheckFiniteModel(const RunOutcome& run, ScenarioReport* report) {
  if (!AllFinite(run.final_params)) {
    AddViolation(report, "finite-global-model",
                 "final global parameters contain NaN/Inf");
  }
}

// Invariant: every sampled client is accounted for by exactly one
// fl::kCohortPartition column, every round.
void CheckRoundConservation(const RunOutcome& run, ScenarioReport* report) {
  for (const fl::RoundRecord& r : run.result.history) {
    int accounted = 0;
    for (const fl::Counter c : fl::kCohortPartition) accounted += r[c];
    if (r[fl::kSampled] != accounted) {
      AddViolation(report, "round-conservation",
                   "round " + std::to_string(r.round) + ": sampled " +
                       std::to_string(r[fl::kSampled]) + " != accounted " +
                       std::to_string(accounted));
    }
  }
}

// Invariant: the quorum verdict matches the arithmetic. quorum_met
// implies enough reporters; too few reporters implies !quorum_met (the
// gap between the two is the deliberate aggregate-failure degrade).
void CheckQuorumAccounting(const ChaosScenario& s, const RunOutcome& run,
                           ScenarioReport* report) {
  for (const fl::RoundRecord& r : run.result.history) {
    const int need = std::max(
        1, static_cast<int>(
               std::ceil(s.quorum_fraction *
                         static_cast<double>(r[fl::kSampled]))));
    const int reporting = r[fl::kReporting];
    if (r.quorum_met && reporting < need) {
      AddViolation(report, "quorum-accounting",
                   "round " + std::to_string(r.round) + ": quorum met with " +
                       std::to_string(reporting) + " < need " +
                       std::to_string(need));
    }
    if (!r.quorum_met && reporting >= need) {
      AddViolation(report, "quorum-accounting",
                   "round " + std::to_string(r.round) +
                       ": quorum missed with " + std::to_string(reporting) +
                       " >= need " + std::to_string(need));
    }
  }
}

// Invariant: run-scoped counter totals equal the per-round history
// sums (quorum misses: the count of rounds that missed quorum).
void CheckCounterConservation(const RunOutcome& run, ScenarioReport* report) {
  const fl::FaultStats& total = run.result.faults;
  const auto check = [&](const char* name, int64_t history, int64_t lifetime) {
    if (history != lifetime) {
      AddViolation(report, "counter-conservation",
                   std::string(name) + ": history sum " +
                       std::to_string(history) + " != lifetime " +
                       std::to_string(lifetime));
    }
  };
  for (const fl::CounterSpec& counter : fl::kCounters) {
    if (counter.scope != fl::CounterScope::kRun || !counter.per_round) {
      continue;
    }
    int64_t sum = 0;
    for (const fl::RoundRecord& r : run.result.history) sum += r[counter.id];
    check(counter.name, sum, total[counter.id]);
  }
  int64_t misses = 0;
  for (const fl::RoundRecord& r : run.result.history) {
    if (!r.quorum_met) ++misses;
  }
  check("quorum_misses", misses, total[fl::kQuorumMisses]);
}

// Invariant: no orphan temp files at quiescence. Litter the fault layer
// planted on purpose is exempt; anything else ending in .tmp is a
// leaked writer temp (the planted leak-tmp bug produces exactly this).
void CheckNoOrphanTemps(const FaultyFileSystem& fs, ScenarioReport* report) {
  for (const std::string& path : fs.AllFiles()) {
    if (path.size() > 4 && path.compare(path.size() - 4, 4, ".tmp") == 0 &&
        !fs.IsInjectedLitter(path)) {
      AddViolation(report, "orphan-temp-file",
                   "leaked writer temp survives at quiescence: " + path);
    }
  }
}

// Invariant: storage-fault attribution reconciles. Without a crash the
// trainer must count exactly what the filesystem injected; across a
// crash the in-memory tail of the counter can be lost (trainer <=
// filesystem), but a clean filesystem always means a zero counter.
void CheckStorageAttribution(const RunOutcome& run,
                             const StorageFaultStats& stats,
                             ScenarioReport* report) {
  const int64_t trainer_count = run.result.faults[fl::kStorageWriteFailures];
  const int64_t injected = stats.WriteFaults();
  if (!run.crash_fired) {
    if (trainer_count != injected) {
      AddViolation(report, "storage-attribution",
                   "trainer counted " + std::to_string(trainer_count) +
                       " storage write failures, filesystem injected " +
                       std::to_string(injected));
    }
    return;
  }
  if (trainer_count > injected) {
    AddViolation(report, "storage-attribution",
                 "trainer counted " + std::to_string(trainer_count) +
                     " storage write failures, more than the " +
                     std::to_string(injected) + " the filesystem injected");
  }
  if (injected == 0 && trainer_count != 0) {
    AddViolation(report, "storage-attribution",
                 "trainer counted " + std::to_string(trainer_count) +
                     " storage write failures on a clean filesystem");
  }
}

// Invariant: poisoning attribution is honest. With the adversary axis
// off the ground-truth poison counter must be zero; with it on, any
// quarantine must land on attackers only. Honest-quarantine is only
// checked when injected client corruption is off — corrupt uploads are
// legitimate (non-adversary) quarantine evidence.
void CheckAdversaryAttribution(const ChaosScenario& s, const RunOutcome& run,
                               ScenarioReport* report) {
  if (!s.adversary_on) {
    if (run.result.faults[fl::kPoisonedUploads] != 0) {
      AddViolation(report, "adversary-attribution",
                   "poisoned_uploads " +
                       std::to_string(run.result.faults[fl::kPoisonedUploads]) +
                       " with the adversary axis off");
    }
    return;
  }
  if (s.client_faults_on && s.client_faults.corruption_rate > 0.0) return;
  for (int client : run.quarantined) {
    if (!s.adversary.IsAttacker(client)) {
      AddViolation(report, "adversary-attribution",
                   "honest client " + std::to_string(client) +
                       " quarantined under a " +
                       std::string(fl::AttackTypeName(s.adversary.attack)) +
                       " attack");
    }
  }
}

// Invariant: a defended run under attack still converges — its final
// validation loss stays inside a lenient envelope of the same scenario
// with the adversary axis off. An undefended poisoning run (reachable
// only through the planted stealth-poison bug or an explicit repro)
// fails exactly this check, which is the campaign's proof that the net
// catches real poisoning. Skipped beyond the Byzantine tolerance bound
// (half the cohort compromised defeats any aggregator).
void CheckAdversaryContainment(const ChaosScenario& s, const RunOutcome& run,
                               const std::vector<traj::ClientDataset>* clients,
                               ScenarioReport* report) {
  if (!s.adversary_on) return;
  if (2 * s.adversary.num_attackers >= s.clients) return;
  if (run.result.history.empty()) return;
  ChaosScenario reference = s;
  reference.adversary_on = false;
  FaultyFileSystem ref_fs = MakeScenarioFs(reference);
  const RunOutcome ref =
      RunOnce(reference, s.threads, /*with_crash=*/true, &ref_fs, clients);
  if (ref.result.history.empty()) return;
  const double attacked = run.result.history.back().valid_loss;
  const double baseline = ref.result.history.back().valid_loss;
  if (!IsFinite(attacked)) {
    AddViolation(report, "adversary-containment",
                 "final validation loss non-finite under attack");
    return;
  }
  // Lenient on purpose: robust aggregation may converge slower than the
  // clean mean, but a successful poisoning blows the loss up by orders
  // of magnitude, not fractions.
  const double bound = std::max(8.0 * std::max(baseline, 0.0), baseline + 2.0);
  if (attacked > bound) {
    AddViolation(report, "adversary-containment",
                 "final validation loss " + std::to_string(attacked) +
                     " under attack exceeds envelope " +
                     std::to_string(bound) + " of the attack-free run (" +
                     std::to_string(baseline) + ")");
  }
}

// Invariant: the run is bitwise identical at a different thread count —
// final model, comm totals, gave_up, lifetime counters and full history
// (wall-clock excluded). Fault filesystems are rebuilt from the same
// seed, and all durability IO runs on the coordinating thread, so even
// the storage fault schedule must match.
void CheckThreadBitwise(const ChaosScenario& s, const RunOutcome& main_run,
                        const std::vector<traj::ClientDataset>* clients,
                        ScenarioReport* report) {
  const int alt_threads = s.threads == 1 ? 2 : 1;
  FaultyFileSystem alt_fs = MakeScenarioFs(s);
  const RunOutcome alt =
      RunOnce(s, alt_threads, /*with_crash=*/true, &alt_fs, clients);
  const std::string tag = " (threads " + std::to_string(s.threads) + " vs " +
                          std::to_string(alt_threads) + ")";
  if (main_run.final_params != alt.final_params) {
    AddViolation(report, "thread-bitwise",
                 "final global parameters differ" + tag);
    return;
  }
  const std::string mismatch =
      fl::DescribeMismatch(main_run.result, alt.result);
  if (!mismatch.empty()) {
    AddViolation(report, "thread-bitwise", mismatch + tag);
  }
}

// Invariant: a crashed-and-resumed (or crashed-and-restarted) run
// converges to the same final model and the same round history,
// bitwise, as the same scenario without the crash. The history only:
// a crash may lose the in-memory tail of the storage-failure counter.
void CheckResumeBitwise(const ChaosScenario& s, const RunOutcome& main_run,
                        const std::vector<traj::ClientDataset>* clients,
                        ScenarioReport* report) {
  ChaosScenario reference = s;
  reference.crash_on = false;
  FaultyFileSystem ref_fs = MakeScenarioFs(reference);
  const RunOutcome ref =
      RunOnce(reference, s.threads, /*with_crash=*/false, &ref_fs, clients);
  if (main_run.final_params != ref.final_params) {
    AddViolation(report, "resume-bitwise",
                 std::string("final global parameters after crash+") +
                     (main_run.fresh_restart ? "restart" : "resume") +
                     " differ from the uninterrupted run");
    return;
  }
  const std::string mismatch =
      fl::DescribeMismatch(main_run.result.history, ref.result.history);
  if (!mismatch.empty()) {
    AddViolation(report, "resume-bitwise",
                 mismatch + " (crash+resume vs uninterrupted)");
  }
}

// ---------------------------------------------------------------------------
// Shrinking.
// ---------------------------------------------------------------------------

bool ViolatesLabel(const ChaosScenario& s, const std::string& label) {
  const ScenarioReport report = RunScenario(s);
  for (const InvariantViolation& violation : report.violations) {
    if (violation.label == label) return true;
  }
  return false;
}

}  // namespace

ScenarioReport RunScenario(const ChaosScenario& scenario) {
  ScenarioReport report;
  report.scenario = scenario;
  // Built fresh per scenario, so scenarios are order-independent; every
  // run segment of the scenario shares the one vector.
  const std::vector<traj::ClientDataset> clients =
      MakeClients(scenario.clients, scenario.seed ^ 0x9E3779B97F4A7C15ull);

  FaultyFileSystem fs = MakeScenarioFs(scenario);
  const RunOutcome main_run =
      RunOnce(scenario, scenario.threads, /*with_crash=*/true, &fs, &clients);
  report.storage_stats = fs.stats();
  report.trainer_storage_failures =
      main_run.result.faults[fl::kStorageWriteFailures];
  report.crash_fired = main_run.crash_fired;
  report.fresh_restart = main_run.fresh_restart;
  report.rounds_completed = static_cast<int>(main_run.result.history.size());
  // The final model, then the telemetry's codec bytes without their CRC
  // trailer: a CRC run over bytes that end in their own CRC comes out
  // the same whatever those bytes hold.
  const std::vector<nn::Scalar>& params = main_run.final_params;
  const std::string telemetry = fl::TelemetryBytes(main_run.result);
  size_t body = 0;
  LIGHTTR_CHECK(CheckCrc32Trailer(telemetry, &body).ok());
  report.digest =
      Crc32Update(Crc32(params.data(), params.size() * sizeof(nn::Scalar)),
                  telemetry.data(), body);

  CheckFiniteModel(main_run, &report);
  CheckRoundConservation(main_run, &report);
  CheckQuorumAccounting(scenario, main_run, &report);
  CheckCounterConservation(main_run, &report);
  CheckNoOrphanTemps(fs, &report);
  CheckStorageAttribution(main_run, fs.stats(), &report);
  CheckAdversaryAttribution(scenario, main_run, &report);
  CheckAdversaryContainment(scenario, main_run, &clients, &report);
  CheckThreadBitwise(scenario, main_run, &clients, &report);
  if (main_run.crash_fired) {
    CheckResumeBitwise(scenario, main_run, &clients, &report);
  }
  return report;
}

ShrinkOutcome ShrinkScenario(const ChaosScenario& failing,
                             const std::string& label) {
  ShrinkOutcome outcome;
  outcome.label = label;
  ChaosScenario current = failing;

  const auto still_fails = [&outcome, &label](const ChaosScenario& candidate) {
    ++outcome.evaluations;
    return ViolatesLabel(candidate, label);
  };

  // Pass 1: remove whole axes, fixed order. Planted bugs stay.
  {
    const auto try_without = [&](void (*disable)(ChaosScenario*)) {
      ChaosScenario candidate = current;
      disable(&candidate);
      if (still_fails(candidate)) current = candidate;
    };
    if (current.healing) {
      try_without([](ChaosScenario* c) { c->healing = false; });
    }
    if (current.net_on) {
      try_without([](ChaosScenario* c) { c->net_on = false; });
    }
    if (current.client_faults_on) {
      try_without([](ChaosScenario* c) { c->client_faults_on = false; });
    }
    if (current.crash_on) {
      try_without([](ChaosScenario* c) { c->crash_on = false; });
    }
    if (current.storage_on && current.plant != PlantedBug::kLeakTmp) {
      try_without([](ChaosScenario* c) { c->storage_on = false; });
    }
    if (current.adversary_on && current.plant != PlantedBug::kStealthPoison) {
      try_without([](ChaosScenario* c) { c->adversary_on = false; });
    }
  }

  // Pass 2: bisect parameters toward their floors, keeping the last
  // failing candidate at every step.
  const auto shrink_int = [&](int ChaosScenario::*field, int floor) {
    while (current.*field > floor) {
      ChaosScenario candidate = current;
      candidate.*field = floor + (current.*field - floor) / 2;
      // Shrinking rounds below the crash round would silently disarm
      // the crash axis; keep them consistent.
      if (candidate.crash_on && candidate.crash_round > candidate.rounds) {
        candidate.crash_round = candidate.rounds;
      }
      if (!still_fails(candidate)) break;
      current = candidate;
    }
  };
  shrink_int(&ChaosScenario::rounds, 2);
  shrink_int(&ChaosScenario::clients, 2);
  shrink_int(&ChaosScenario::threads, 1);
  if (current.crash_on) shrink_int(&ChaosScenario::crash_round, 1);
  // Attacker cohort toward a single attacker (nested field, so the
  // member-pointer helper above cannot reach it).
  while (current.adversary_on && current.adversary.num_attackers > 1) {
    ChaosScenario candidate = current;
    candidate.adversary.num_attackers =
        1 + (current.adversary.num_attackers - 1) / 2;
    if (!still_fails(candidate)) break;
    current = candidate;
  }

  // Rates of the enabled axes, in repro order: try zero outright, else
  // halve a few times. No candidate toggles an axis, so the i-th enabled
  // rate is the same field in every candidate.
  const size_t num_rates = EnabledRates(&current).size();
  for (size_t i = 0; i < num_rates; ++i) {
    const auto rate = [i](ChaosScenario* c) { return EnabledRates(c)[i]; };
    if (*rate(&current) <= 0.0) continue;
    ChaosScenario zeroed = current;
    *rate(&zeroed) = 0.0;
    if (still_fails(zeroed)) {
      current = zeroed;
      continue;
    }
    for (int halving = 0; halving < 4; ++halving) {
      ChaosScenario halved = current;
      *rate(&halved) = *rate(&current) / 2.0;
      if (!still_fails(halved)) break;
      current = halved;
    }
  }
  if (current.storage_on && current.storage.lose_unsynced_on_crash) {
    ChaosScenario kind = current;
    kind.storage.lose_unsynced_on_crash = false;
    if (still_fails(kind)) current = kind;
  }

  outcome.minimal = current;
  return outcome;
}

CampaignResult RunCampaign(const CampaignOptions& options) {
  CampaignResult result;
  Rng rng(options.seed);
  for (int i = 0; i < options.scenarios; ++i) {
    ChaosScenario scenario = SampleScenario(&rng);
    scenario.plant = options.plant;
    if (options.plant == PlantedBug::kLeakTmp) {
      // The planted bug lives on the rename-failure path: force the
      // storage axis hostile enough to actually reach it.
      scenario.storage_on = true;
      if (scenario.storage.rename_fail_rate < 0.2) {
        scenario.storage.rename_fail_rate = 0.2;
      }
    }
    if (options.plant == PlantedBug::kStealthPoison) {
      // The planted bug IS an undefended poisoning run: force the
      // adversary axis on with an aggressive attack and the defense
      // disarmed, so the containment invariant must catch the
      // corrupted model.
      scenario.adversary_on = true;
      scenario.adversary_defended = false;
      scenario.adversary.attack = fl::AttackType::kScaledAscent;
      if (scenario.adversary.ascent_scale < 20.0) {
        scenario.adversary.ascent_scale = 20.0;
      }
      scenario.adversary.start_round = 1;
      scenario.healing = false;
      if (scenario.rounds < 4) scenario.rounds = 4;
    }
    const ScenarioReport report = RunScenario(scenario);
    ++result.scenarios_run;
    if (report.crash_fired) ++result.crashes_fired;
    if (options.progress != nullptr) options.progress(i, report);
    if (!report.ok()) {
      FailingCase failing;
      failing.report = report;
      if (options.shrink) {
        const ShrinkOutcome shrunk =
            ShrinkScenario(scenario, report.violations[0].label);
        failing.minimal = shrunk.minimal;
        failing.shrink_evaluations = shrunk.evaluations;
      } else {
        failing.minimal = scenario;
      }
      result.failures.push_back(failing);
    }
  }
  return result;
}

}  // namespace lighttr::chaos
