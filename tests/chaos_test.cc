// Tests for the chaos campaign engine: the flat repro grammar
// (format/parse round-trip, rejection of malformed input, the pinned
// sampling stream), axis and rate accounting, a clean scenario flowing
// through the full invariant net, crash-axis firing, and the shrinker
// reducing the planted hygiene bug to a minimal replayable repro.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "chaos/scenario.h"
#include "common/rng.h"

namespace lighttr::chaos {
namespace {

ChaosScenario EverythingOnScenario() {
  ChaosScenario s;
  s.seed = 424242;
  s.rounds = 7;
  s.clients = 5;
  s.threads = 2;
  s.client_fraction = 0.8;
  s.quorum_fraction = 1.0 / 3.0;  // not representable in short decimal
  s.healing = true;
  s.storage_on = true;
  s.storage.seed = 17;
  s.storage.enospc_rate = 0.05;
  s.storage.rename_fail_rate = 0.125;
  s.storage.read_bitrot_rate = 0.01;
  s.storage.tmp_litter_rate = 0.2;
  s.storage.lose_unsynced_on_crash = true;
  s.net_on = true;
  s.net.drop_rate = 0.1;
  s.net.duplicate_rate = 0.05;
  s.net.reorder_rate = 0.02;
  s.net.corrupt_rate = 0.01;
  s.net.truncate_rate = 0.03;
  s.net.delay_rate = 0.07;
  s.client_faults_on = true;
  s.client_faults.dropout_rate = 0.2;
  s.client_faults.straggler_rate = 0.1;
  s.client_faults.corruption_rate = 0.05;
  s.crash_on = true;
  s.crash_point = fl::CrashPoint::kAfterSave;
  s.crash_round = 4;
  s.adversary_on = true;
  s.adversary.num_attackers = 2;
  s.adversary.attack = fl::AttackType::kMinMax;
  s.adversary.ascent_scale = 12.5;
  s.adversary.start_round = 3;
  s.adversary.seed = 99;
  s.adversary_defended = false;
  s.plant = PlantedBug::kLeakTmp;
  return s;
}

void ExpectSameScenario(const ChaosScenario& a, const ChaosScenario& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.clients, b.clients);
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.client_fraction, b.client_fraction);
  EXPECT_EQ(a.quorum_fraction, b.quorum_fraction);
  EXPECT_EQ(a.healing, b.healing);
  EXPECT_EQ(a.storage_on, b.storage_on);
  if (a.storage_on && b.storage_on) {
    EXPECT_EQ(a.storage.seed, b.storage.seed);
    EXPECT_EQ(a.storage.enospc_rate, b.storage.enospc_rate);
    EXPECT_EQ(a.storage.rename_fail_rate, b.storage.rename_fail_rate);
    EXPECT_EQ(a.storage.read_bitrot_rate, b.storage.read_bitrot_rate);
    EXPECT_EQ(a.storage.tmp_litter_rate, b.storage.tmp_litter_rate);
    EXPECT_EQ(a.storage.lose_unsynced_on_crash,
              b.storage.lose_unsynced_on_crash);
  }
  EXPECT_EQ(a.net_on, b.net_on);
  if (a.net_on && b.net_on) {
    EXPECT_EQ(a.net.drop_rate, b.net.drop_rate);
    EXPECT_EQ(a.net.duplicate_rate, b.net.duplicate_rate);
    EXPECT_EQ(a.net.reorder_rate, b.net.reorder_rate);
    EXPECT_EQ(a.net.corrupt_rate, b.net.corrupt_rate);
    EXPECT_EQ(a.net.truncate_rate, b.net.truncate_rate);
    EXPECT_EQ(a.net.delay_rate, b.net.delay_rate);
  }
  EXPECT_EQ(a.client_faults_on, b.client_faults_on);
  if (a.client_faults_on && b.client_faults_on) {
    EXPECT_EQ(a.client_faults.dropout_rate, b.client_faults.dropout_rate);
    EXPECT_EQ(a.client_faults.straggler_rate, b.client_faults.straggler_rate);
    EXPECT_EQ(a.client_faults.corruption_rate,
              b.client_faults.corruption_rate);
  }
  EXPECT_EQ(a.crash_on, b.crash_on);
  if (a.crash_on && b.crash_on) {
    EXPECT_EQ(a.crash_point, b.crash_point);
    EXPECT_EQ(a.crash_round, b.crash_round);
  }
  EXPECT_EQ(a.adversary_on, b.adversary_on);
  if (a.adversary_on && b.adversary_on) {
    EXPECT_EQ(a.adversary.num_attackers, b.adversary.num_attackers);
    EXPECT_EQ(a.adversary.attack, b.adversary.attack);
    EXPECT_EQ(a.adversary.ascent_scale, b.adversary.ascent_scale);
    EXPECT_EQ(a.adversary.start_round, b.adversary.start_round);
    EXPECT_EQ(a.adversary.seed, b.adversary.seed);
    EXPECT_EQ(a.adversary_defended, b.adversary_defended);
  }
  EXPECT_EQ(a.plant, b.plant);
}

// ---------------------------------------------------------------------
// Repro grammar

TEST(ChaosRepro, DefaultScenarioRoundTrips) {
  const ChaosScenario s;
  Result<ChaosScenario> parsed = ParseRepro(FormatRepro(s));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectSameScenario(s, parsed.value());
  EXPECT_EQ(FormatRepro(parsed.value()), FormatRepro(s));
}

TEST(ChaosRepro, EverythingOnScenarioRoundTripsBitExactly) {
  const ChaosScenario s = EverythingOnScenario();
  const std::string text = FormatRepro(s);
  Result<ChaosScenario> parsed = ParseRepro(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectSameScenario(s, parsed.value());
  // Idempotence: re-serializing the parse reproduces the exact string
  // (the shortest-round-trip double formatting is what makes this
  // possible for values like 1/3).
  EXPECT_EQ(FormatRepro(parsed.value()), text);
}

TEST(ChaosRepro, SampledScenariosAlwaysRoundTrip) {
  Rng rng(2026);
  for (int i = 0; i < 50; ++i) {
    const ChaosScenario s = SampleScenario(&rng);
    const std::string text = FormatRepro(s);
    Result<ChaosScenario> parsed = ParseRepro(text);
    ASSERT_TRUE(parsed.ok()) << text << " -> " << parsed.status().ToString();
    EXPECT_EQ(FormatRepro(parsed.value()), text) << "sample " << i;
  }
}

TEST(ChaosRepro, MalformedInputIsRejected) {
  const char* bad[] = {
      "",                                  // seed is mandatory
      "rounds=4",                          // still no seed
      "seed=7 bogus=1",                    // unknown key
      "seed=7 rounds=zero",                // malformed number
      "seed=7 rounds=0",                   // below range
      "seed=7 rounds=100000",              // above range
      "seed=7 threads=65",                 // above range
      "seed=7 fraction=0",                 // fraction must be positive
      "seed=7 quorum=1.5",                 // a rate, must stay in [0,1]
      "seed=7 storage=1 storage.rename=2", // rate out of range
      "seed=7 storage=2",                  // flags are strictly 0/1
      "seed=7 crash=1 crash.point=sideways",
      "seed=7 rounds=4 crash=1 crash.round=9",  // crash past the run
      "seed=7 rounds",                     // not key=value
      "seed=-1",                           // a seed is digits only,
      "seed=+7",                           // never -1 read as 2^64 - 1
      "seed=7 storage.seed=-3",
      "seed=7 adversary.seed=-7",
      "seed=7 quorum=0x1p-2",              // numbers are decimal
  };
  for (const char* text : bad) {
    EXPECT_FALSE(ParseRepro(text).ok()) << "accepted: " << text;
  }
}

TEST(ChaosRepro, AxisCountCountsEnabledAxes) {
  ChaosScenario s;
  EXPECT_EQ(AxisCount(s), 0);
  s.healing = true;
  s.storage_on = true;
  EXPECT_EQ(AxisCount(s), 2);
  s.net_on = true;
  s.client_faults_on = true;
  s.crash_on = true;
  EXPECT_EQ(AxisCount(s), 5);
  s.adversary_on = true;
  EXPECT_EQ(AxisCount(s), 6);
}

TEST(ChaosRepro, EnabledRatesAreTheRatesOfEnabledAxesInReproOrder) {
  ChaosScenario s = EverythingOnScenario();
  const std::vector<double*> all = {
      &s.storage.enospc_rate,         &s.storage.rename_fail_rate,
      &s.storage.read_bitrot_rate,    &s.storage.tmp_litter_rate,
      &s.net.drop_rate,               &s.net.duplicate_rate,
      &s.net.reorder_rate,            &s.net.corrupt_rate,
      &s.net.truncate_rate,           &s.net.delay_rate,
      &s.client_faults.dropout_rate,  &s.client_faults.straggler_rate,
      &s.client_faults.corruption_rate};
  EXPECT_EQ(EnabledRates(&s), all);
  s.net_on = false;
  const std::vector<double*> without_net = {
      &s.storage.enospc_rate,        &s.storage.rename_fail_rate,
      &s.storage.read_bitrot_rate,   &s.storage.tmp_litter_rate,
      &s.client_faults.dropout_rate, &s.client_faults.straggler_rate,
      &s.client_faults.corruption_rate};
  EXPECT_EQ(EnabledRates(&s), without_net);
  // quorum is a rate too, but of the run shape, not of an axis.
  s.storage_on = false;
  s.client_faults_on = false;
  EXPECT_TRUE(EnabledRates(&s).empty());
}

// SampleScenario's draw order is part of the campaign's contract: editing
// the key list must not move scenario N of any campaign seed. Seed 17's
// first scenario enables every axis, so it draws and prints every key.
// The text is what libstdc++'s distributions draw.
TEST(ChaosRepro, SampledStreamIsPinned) {
  Rng rng(17);
  EXPECT_EQ(
      FormatRepro(SampleScenario(&rng)),
      "seed=697077185 rounds=4 clients=6 threads=8 fraction=0.8 quorum=0.5 "
      "healing=1 storage=1 storage.seed=316891497 "
      "storage.enospc=0.12622392748982475 "
      "storage.rename=0.07747015917957069 "
      "storage.bitrot=0.03421385710034637 "
      "storage.litter=0.07795698271998741 storage.lossy=1 net=1 "
      "net.drop=0.11086609597457922 net.dup=0.1383257493125286 "
      "net.reorder=0.06392018584020337 net.corrupt=0.13314545297672267 "
      "net.truncate=0.04168893098999591 net.delay=0.09789449800928471 "
      "faults=1 faults.dropout=0.12981166751919257 "
      "faults.straggler=0.10599414492161321 "
      "faults.corruption=0.0702258893888188 crash=1 "
      "crash.point=after-save crash.round=2 adversary=1 adversary.count=2 "
      "adversary.attack=scaled-ascent adversary.scale=11.389866050225145 "
      "adversary.start=2 adversary.seed=748391150 adversary.defended=1");
}

// ---------------------------------------------------------------------
// Scenario execution

std::string FirstViolation(const ScenarioReport& report) {
  if (report.violations.empty()) return "(no violations)";
  return report.violations.front().label + ": " +
         report.violations.front().detail;
}

TEST(ChaosCampaign, CleanScenarioPassesEveryInvariant) {
  ChaosScenario s;
  s.seed = 21;
  s.rounds = 4;
  s.clients = 3;
  const ScenarioReport report = RunScenario(s);
  EXPECT_TRUE(report.ok()) << FirstViolation(report);
  EXPECT_EQ(report.rounds_completed, 4);
  EXPECT_FALSE(report.crash_fired);
  EXPECT_EQ(report.storage_stats.WriteFaults(), 0);
  EXPECT_EQ(report.trainer_storage_failures, 0);
}

TEST(ChaosCampaign, MidRoundCrashFiresAndStillPasses) {
  ChaosScenario s;
  s.seed = 23;
  s.rounds = 5;
  s.clients = 3;
  s.crash_on = true;
  s.crash_point = fl::CrashPoint::kMidRound;  // fires on any round
  s.crash_round = 2;
  const ScenarioReport report = RunScenario(s);
  EXPECT_TRUE(report.crash_fired);
  EXPECT_TRUE(report.ok()) << FirstViolation(report);
  EXPECT_EQ(report.rounds_completed, 5);
}

TEST(ChaosCampaign, ScenarioReportsAreDeterministic) {
  ChaosScenario s;
  s.seed = 29;
  s.rounds = 4;
  s.clients = 3;
  s.storage_on = true;
  s.storage.enospc_rate = 0.15;
  s.storage.rename_fail_rate = 0.15;
  const ScenarioReport a = RunScenario(s);
  const ScenarioReport b = RunScenario(s);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  EXPECT_EQ(a.trainer_storage_failures, b.trainer_storage_failures);
  EXPECT_EQ(a.storage_stats.WriteFaults(), b.storage_stats.WriteFaults());
  EXPECT_EQ(a.storage_stats.rename_failures, b.storage_stats.rename_failures);
}

// ---------------------------------------------------------------------
// The planted bug: caught, shrunk, and the shrunk repro still fails.

TEST(ChaosShrink, PlantedLeakShrinksToMinimalReplayableRepro) {
  ChaosScenario s;
  s.seed = 31;
  s.rounds = 6;
  s.clients = 4;
  s.threads = 2;
  s.storage_on = true;
  s.storage.rename_fail_rate = 0.9;  // snapshot renames fail often
  s.net_on = true;                   // extra axis for the shrinker to drop
  s.net.drop_rate = 0.1;
  s.client_faults_on = true;
  s.client_faults.dropout_rate = 0.2;
  s.plant = PlantedBug::kLeakTmp;

  const ScenarioReport report = RunScenario(s);
  ASSERT_FALSE(report.ok()) << "planted bug was not caught";
  bool saw_orphan = false;
  for (const InvariantViolation& v : report.violations) {
    if (v.label == "orphan-temp-file") saw_orphan = true;
  }
  ASSERT_TRUE(saw_orphan);

  const ShrinkOutcome shrunk = ShrinkScenario(s, "orphan-temp-file");
  EXPECT_GT(shrunk.evaluations, 0);
  EXPECT_EQ(shrunk.label, "orphan-temp-file");
  // Axis-minimal: only the storage axis (which carries the plant)
  // should survive, and the run shape should have been bisected down.
  EXPECT_LE(AxisCount(shrunk.minimal), 2);
  EXPECT_TRUE(shrunk.minimal.storage_on);
  EXPECT_EQ(shrunk.minimal.plant, PlantedBug::kLeakTmp);
  EXPECT_LE(shrunk.minimal.rounds, s.rounds);
  EXPECT_LE(shrunk.minimal.clients, s.clients);
  EXPECT_LE(shrunk.minimal.threads, s.threads);

  // The minimal scenario replays through the repro grammar and still
  // trips the same invariant — the property every shrunk repro in a
  // campaign report must have.
  Result<ChaosScenario> replayed = ParseRepro(FormatRepro(shrunk.minimal));
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  const ScenarioReport rerun = RunScenario(replayed.value());
  bool still_fails = false;
  for (const InvariantViolation& v : rerun.violations) {
    if (v.label == "orphan-temp-file") still_fails = true;
  }
  EXPECT_TRUE(still_fails);
}

}  // namespace
}  // namespace lighttr::chaos
