// Chaos campaign engine: runs sampled scenarios (chaos/scenario) through
// short federated training on a fault-injecting filesystem, checks a
// library of cross-cutting invariants, and shrinks any violation to a
// minimal replayable repro (axis removal first, then parameter
// bisection) — ddmin in spirit, specialized to the fault-axis space.
#ifndef LIGHTTR_CHAOS_CAMPAIGN_H_
#define LIGHTTR_CHAOS_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "common/env.h"

namespace lighttr::chaos {

/// One invariant violation. `label` is stable (it keys the shrinker's
/// "same bug" predicate); `detail` is free-form diagnosis.
struct InvariantViolation {
  std::string label;
  std::string detail;
};

/// Outcome of running one scenario through the invariant net.
struct ScenarioReport {
  ChaosScenario scenario;
  std::vector<InvariantViolation> violations;
  /// What the fault-injecting filesystem recorded.
  StorageFaultStats storage_stats;
  /// What the trainer attributed to storage (see the attribution
  /// invariant for how the two reconcile).
  int64_t trainer_storage_failures = 0;
  /// The injected crash actually fired (a crash scheduled for a round
  /// that never snapshots is a silent no-op, which is fine).
  bool crash_fired = false;
  /// Resume after the crash failed and the run restarted fresh (must
  /// still converge to the same final model).
  bool fresh_restart = false;
  int rounds_completed = 0;
  /// CRC-32 of the final global model and of fl::TelemetryBytes of the
  /// run (its comm and counter totals and history, wall clock zeroed),
  /// so a drift in any value the run reports moves it.
  uint32_t digest = 0;

  bool ok() const { return violations.empty(); }
};

/// Runs `scenario` end to end: training (with crash + resume when the
/// crash axis fires), then every invariant that applies. Deterministic:
/// the same scenario always yields the same report.
ScenarioReport RunScenario(const ChaosScenario& scenario);

/// Shrinker output: the smallest scenario found that still violates
/// `label`, and how many candidate evaluations it took.
struct ShrinkOutcome {
  ChaosScenario minimal;
  std::string label;
  int evaluations = 0;
};

/// Shrinks `failing` while the violation labeled `label` reproduces:
/// pass 1 removes whole axes (healing, net, client faults, crash,
/// storage — planted bugs are never removed), pass 2 bisects
/// parameters (rounds/clients/threads down, rates toward zero). Every
/// accepted candidate still fails, so the result is always a repro.
ShrinkOutcome ShrinkScenario(const ChaosScenario& failing,
                             const std::string& label);

/// One failing scenario of a campaign, with its shrunk repro.
struct FailingCase {
  ScenarioReport report;
  ChaosScenario minimal;
  int shrink_evaluations = 0;
};

struct CampaignOptions {
  int scenarios = 16;
  uint64_t seed = 7;
  /// Shrink failures to minimal repros (off = report them raw).
  bool shrink = true;
  /// Plant a test-only bug in every scenario (and force the axis it
  /// lives on, so the campaign can actually hit it).
  PlantedBug plant = PlantedBug::kNone;
  /// Optional per-scenario progress hook (the CLI prints a line here;
  /// the library itself never prints).
  void (*progress)(int index, const ScenarioReport& report) = nullptr;
};

struct CampaignResult {
  int scenarios_run = 0;
  /// Scenarios whose injected crash actually fired.
  int crashes_fired = 0;
  std::vector<FailingCase> failures;
};

/// Samples and runs `options.scenarios` scenarios from `options.seed`,
/// shrinking every failure. Deterministic end to end.
CampaignResult RunCampaign(const CampaignOptions& options);

}  // namespace lighttr::chaos

#endif  // LIGHTTR_CHAOS_CAMPAIGN_H_
