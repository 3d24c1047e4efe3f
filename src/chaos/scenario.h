// Chaos scenario description: one fully seeded point in the fault-axis
// product space (storage faults, hostile network, injected crashes,
// client faults, self-healing), plus a flat `key=value` repro grammar so
// any failing scenario replays from a single --chaos-repro string.
#ifndef LIGHTTR_CHAOS_SCENARIO_H_
#define LIGHTTR_CHAOS_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/rng.h"
#include "common/status.h"
#include "fl/adversary.h"
#include "fl/fault_injection.h"
#include "fl/run_state.h"
#include "fl/transport/channel.h"

namespace lighttr::chaos {

/// Test-only bugs the campaign can plant to prove the invariant net
/// catches real defects (and that shrinking reduces them to a minimal
/// repro). Planted bugs are never removed by the shrinker.
enum class PlantedBug {
  kNone = 0,
  /// FaultyFileSystem leaves the temp file behind when an atomic
  /// write's rename fails; the orphan-temp invariant must catch it.
  kLeakTmp,
  /// An undefended model-poisoning run: the adversary axis is forced on
  /// with an aggressive scaled-ascent attack and the Byzantine defense
  /// disarmed. The adversary-containment invariant must catch the
  /// corrupted model (and shrinking must keep the adversary axis).
  kStealthPoison,
};

const char* PlantedBugName(PlantedBug bug);

/// One chaos scenario: the core run shape plus one optional block per
/// fault axis. An axis whose flag is false contributes nothing (its
/// config block is ignored and not serialized).
struct ChaosScenario {
  // Core run shape (always present).
  uint64_t seed = 7;
  int rounds = 6;
  int clients = 5;
  int threads = 1;
  double client_fraction = 1.0;
  double quorum_fraction = 0.25;
  /// Self-healing axis: health verdicts, divergence rollback, client
  /// quarantine. An axis (not a config block) because rollbacks rewind
  /// committed state — prime territory for conservation bugs.
  bool healing = false;

  /// Storage axis: all durability IO through a fault-injecting
  /// filesystem (ENOSPC, rename failures, bit rot, temp-file litter,
  /// lost unsynced data at crash).
  bool storage_on = false;
  StorageFaultConfig storage;

  /// Network axis: hostile wire transport between server and clients.
  bool net_on = false;
  fl::transport::ChannelFaultConfig net;

  /// Client-fault axis: dropouts, stragglers, corrupted uploads.
  bool client_faults_on = false;
  fl::FaultInjectionConfig client_faults;

  /// Crash axis: InjectedCrash at (point, round), SimulateCrash on the
  /// filesystem, then resume from whatever survived.
  bool crash_on = false;
  fl::CrashPoint crash_point = fl::CrashPoint::kMidSave;
  int crash_round = 2;

  /// Adversary axis: compromised clients poison their uploads after
  /// local training (fl/adversary). `adversary_defended` arms the
  /// Byzantine counter-measures (Multi-Krum aggregation + the healing
  /// layer); campaign sampling always defends — an undefended poisoning
  /// run legitimately corrupts the model, which is the planted
  /// stealth-poison bug's job, not a sampled scenario's.
  bool adversary_on = false;
  fl::AdversaryConfig adversary;
  bool adversary_defended = true;

  /// Test-only planted bug (see PlantedBug).
  PlantedBug plant = PlantedBug::kNone;
};

/// Number of enabled fault axes (healing, storage, net, client faults,
/// crash, adversary). The shrinker minimizes this before touching
/// parameters.
int AxisCount(const ChaosScenario& scenario);

/// Pointers into `scenario` to the fault rates of its enabled axes
/// (storage, network, client faults), in repro order: what the shrinker
/// drives toward zero. Which fields it returns depends only on which
/// axes are on.
std::vector<double*> EnabledRates(ChaosScenario* scenario);

/// Serializes to the flat repro grammar, e.g.
///   seed=7 rounds=4 clients=3 threads=1 fraction=1 quorum=0.25
///   healing=0 storage=1 storage.rename=0.2 ... crash=0 plant=leak-tmp
/// The six axis flags always appear; an axis's sub-keys appear only
/// when it is enabled. ParseRepro(FormatRepro(s)) round-trips exactly
/// (doubles use shortest-round-trip formatting).
std::string FormatRepro(const ChaosScenario& scenario);

/// Parses the FormatRepro grammar. Unknown keys, malformed numbers (see
/// common/parse_number.h: a seed is digits only), and out-of-range
/// values yield InvalidArgument.
[[nodiscard]] Result<ChaosScenario> ParseRepro(const std::string& text);

/// Draws one random scenario from `rng`, each axis enabled with
/// moderate probability and its parameters drawn from ranges that keep
/// a short training run meaningful (faults frequent enough to exercise
/// every code path, not so hostile that nothing ever commits).
ChaosScenario SampleScenario(Rng* rng);

}  // namespace lighttr::chaos

#endif  // LIGHTTR_CHAOS_SCENARIO_H_
