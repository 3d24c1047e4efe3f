// Tests for the Byzantine layer: the seeded model-poisoning adversary
// engine, the robust aggregation policies (Krum / Multi-Krum /
// norm-bound) with their suspicion certificates, the reputation
// suspected-flag path, and the trainer's end-to-end defense contract
// (attackers quarantined, honest clients untouched, bitwise determinism
// across thread counts and crash/resume).
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "chaos/stub_federation.h"
#include "fl/adversary.h"
#include "fl/aggregation.h"
#include "fl/federated_trainer.h"
#include "fl/privacy.h"
#include "fl/reputation.h"
#include "fl/run_state.h"

namespace lighttr::fl {
namespace {

using chaos::MakeClients;

// ---------------------------------------------------------------------
// AdversaryEngine unit tests
// ---------------------------------------------------------------------

AdversaryConfig BaseConfig(AttackType attack, int attackers = 2) {
  AdversaryConfig config;
  config.num_attackers = attackers;
  config.attack = attack;
  config.start_round = 1;
  return config;
}

TEST(AttackType, NameParseRoundTrip) {
  const AttackType all[] = {AttackType::kNone, AttackType::kSignFlip,
                            AttackType::kScaledAscent, AttackType::kMinMax,
                            AttackType::kNormMatched};
  for (AttackType attack : all) {
    AttackType parsed = AttackType::kNone;
    ASSERT_TRUE(ParseAttackType(AttackTypeName(attack), &parsed))
        << AttackTypeName(attack);
    EXPECT_EQ(parsed, attack);
  }
  AttackType out = AttackType::kSignFlip;
  EXPECT_FALSE(ParseAttackType("gradient-inversion", &out));
  EXPECT_EQ(out, AttackType::kSignFlip);  // untouched on failure
  // CLI shorthand spellings.
  ASSERT_TRUE(ParseAttackType("ascent", &out));
  EXPECT_EQ(out, AttackType::kScaledAscent);
  ASSERT_TRUE(ParseAttackType("stealth", &out));
  EXPECT_EQ(out, AttackType::kNormMatched);
  ASSERT_TRUE(ParseAttackType("minmax", &out));
  EXPECT_EQ(out, AttackType::kMinMax);
}

TEST(AdversaryConfig, EnabledAndAttribution) {
  AdversaryConfig off;
  EXPECT_FALSE(off.Enabled());
  AdversaryConfig on = BaseConfig(AttackType::kSignFlip, 3);
  EXPECT_TRUE(on.Enabled());
  EXPECT_TRUE(on.IsAttacker(0));
  EXPECT_TRUE(on.IsAttacker(2));
  EXPECT_FALSE(on.IsAttacker(3));
  // Attack type kNone disables even with a cohort configured.
  on.attack = AttackType::kNone;
  EXPECT_FALSE(on.Enabled());
  EXPECT_FALSE(on.IsAttacker(0));
}

TEST(AdversaryEngine, InactiveBeforeStartRound) {
  AdversaryConfig config = BaseConfig(AttackType::kSignFlip);
  config.start_round = 5;
  AdversaryEngine engine(config);
  EXPECT_FALSE(engine.ActiveInRound(1));
  EXPECT_FALSE(engine.ActiveInRound(4));
  EXPECT_TRUE(engine.ActiveInRound(5));
  EXPECT_TRUE(engine.ActiveInRound(9));
}

TEST(AdversaryEngine, SignFlipIsExactInverse) {
  AdversaryEngine engine(BaseConfig(AttackType::kSignFlip));
  const std::vector<nn::Scalar> global = {1.0, -2.0, 0.5, 3.0};
  std::vector<nn::Scalar> upload = {1.5, -2.5, 0.25, 3.0};
  engine.BeginRound(1, global.size());
  Rng stream = engine.ForkStream();
  ASSERT_TRUE(engine.Poison(global, &upload, &stream));
  // The flipped upload is exactly global - (honest - global).
  EXPECT_EQ(upload[0], 0.5);
  EXPECT_EQ(upload[1], -1.5);
  EXPECT_EQ(upload[2], 0.75);
  EXPECT_EQ(upload[3], 3.0);
}

TEST(AdversaryEngine, ScaledAscentScalesWithinJitterBand) {
  AdversaryConfig config = BaseConfig(AttackType::kScaledAscent);
  config.ascent_scale = 10.0;
  AdversaryEngine engine(config);
  const std::vector<nn::Scalar> global = {0.0, 0.0};
  std::vector<nn::Scalar> upload = {1.0, -1.0};
  engine.BeginRound(1, global.size());
  Rng stream = engine.ForkStream();
  ASSERT_TRUE(engine.Poison(global, &upload, &stream));
  // upload = global - s * delta with s in [9, 11] (ascent x +-10%).
  const double s = -upload[0];
  EXPECT_GE(s, 9.0);
  EXPECT_LE(s, 11.0);
  EXPECT_EQ(upload[1], s);  // both coordinates share the same draw
}

TEST(AdversaryEngine, MinMaxColludersUploadBitwiseIdentical) {
  AdversaryConfig config = BaseConfig(AttackType::kMinMax);
  AdversaryEngine engine(config);
  // Bank honest norms so TargetNorm has a median to mimic.
  engine.ObserveHonestNorm(1.0);
  engine.ObserveHonestNorm(2.0);
  engine.ObserveHonestNorm(3.0);
  const std::vector<nn::Scalar> global = {0.5, -0.5, 1.0, 0.0};
  engine.BeginRound(1, global.size());
  std::vector<nn::Scalar> a = {0.6, -0.4, 1.2, 0.1};  // distinct honest
  std::vector<nn::Scalar> b = {0.3, -0.7, 0.9, -0.2};  // trainings
  Rng stream_a = engine.ForkStream();
  Rng stream_b = engine.ForkStream();
  ASSERT_TRUE(engine.Poison(global, &a, &stream_a));
  ASSERT_TRUE(engine.Poison(global, &b, &stream_b));
  EXPECT_EQ(a, b);  // the collusion tell the certificate fires on
  // Delta norm lands exactly on 0.9 x the median honest norm.
  EXPECT_NEAR(DeltaNorm(a, global), 0.9 * 2.0, 1e-9);
}

TEST(AdversaryEngine, MinMaxResamplesDriftEveryRound) {
  AdversaryConfig config = BaseConfig(AttackType::kMinMax);
  AdversaryEngine engine(config);
  engine.ObserveHonestNorm(1.0);
  const std::vector<nn::Scalar> global(6, nn::Scalar{0});
  engine.BeginRound(1, global.size());
  std::vector<nn::Scalar> first = global;
  Rng s1 = engine.ForkStream();
  ASSERT_TRUE(engine.Poison(global, &first, &s1));
  engine.BeginRound(2, global.size());
  std::vector<nn::Scalar> second = global;
  Rng s2 = engine.ForkStream();
  ASSERT_TRUE(engine.Poison(global, &second, &s2));
  EXPECT_NE(first, second);  // repeated drift would be a signature
}

TEST(AdversaryEngine, NormMatchedFlipsAndLandsUnderHonestEnvelope) {
  AdversaryConfig config = BaseConfig(AttackType::kNormMatched);
  AdversaryEngine engine(config);
  engine.ObserveHonestNorm(2.0);
  const std::vector<nn::Scalar> global = {0.0, 0.0, 0.0};
  const std::vector<nn::Scalar> honest = {3.0, 4.0, 0.0};  // norm 5
  std::vector<nn::Scalar> upload = honest;
  engine.BeginRound(1, global.size());
  Rng stream = engine.ForkStream();
  ASSERT_TRUE(engine.Poison(global, &upload, &stream));
  // Direction is the exact flip of the honest delta...
  double dot = 0.0;
  for (size_t i = 0; i < global.size(); ++i) dot += upload[i] * honest[i];
  EXPECT_LT(dot, 0.0);
  // ...at a norm inside [0.9, 1.0] x (margin x median honest norm), so
  // it never exceeds what norm screening considers plausible.
  const double norm = DeltaNorm(upload, global);
  EXPECT_GE(norm, 0.9 * 0.9 * 2.0 - 1e-12);
  EXPECT_LE(norm, 0.9 * 2.0 + 1e-12);
}

TEST(AdversaryEngine, TargetNormFallsBackBeforeHistory) {
  AdversaryEngine engine(BaseConfig(AttackType::kNormMatched));
  EXPECT_EQ(engine.honest_norm_history(), 0);
  EXPECT_NEAR(engine.TargetNorm(5.0), 0.9 * 5.0, 1e-12);
  EXPECT_EQ(engine.TargetNorm(0.0), 1.0);  // fully degenerate fallback
  engine.ObserveHonestNorm(10.0);
  EXPECT_EQ(engine.honest_norm_history(), 1);
  EXPECT_NEAR(engine.TargetNorm(5.0), 0.9 * 10.0, 1e-12);
  // Non-finite and negative norms are never banked.
  engine.ObserveHonestNorm(-1.0);
  engine.ObserveHonestNorm(std::nan(""));
  EXPECT_EQ(engine.honest_norm_history(), 1);
}

TEST(AdversaryEngine, SameSeedSamePoisonDifferentSeedDifferent) {
  AdversaryConfig config = BaseConfig(AttackType::kScaledAscent);
  const std::vector<nn::Scalar> global = {0.0, 0.0};
  auto run = [&](uint64_t seed) {
    AdversaryConfig c = config;
    c.seed = seed;
    AdversaryEngine engine(c);
    engine.BeginRound(1, global.size());
    std::vector<nn::Scalar> upload = {1.0, 2.0};
    Rng stream = engine.ForkStream();
    engine.Poison(global, &upload, &stream);
    return upload;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(AdversaryEngine, SerializeStateRoundTripsBitwise) {
  AdversaryConfig config = BaseConfig(AttackType::kMinMax);
  AdversaryEngine engine(config);
  engine.ObserveHonestNorm(1.5);
  engine.ObserveHonestNorm(2.5);
  engine.BeginRound(1, 8);  // consume stream state mid-run
  const std::string blob = engine.SerializeState();

  AdversaryEngine restored(config);
  ASSERT_TRUE(restored.DeserializeState(blob).ok());
  EXPECT_EQ(restored.honest_norm_history(), 2);
  // Replaying the same rounds from the restored state must reproduce
  // the original stream bitwise (drift is regenerated by BeginRound).
  const std::vector<nn::Scalar> global(8, nn::Scalar{0});
  auto next_poison = [&](AdversaryEngine* e) {
    e->BeginRound(2, global.size());
    std::vector<nn::Scalar> upload = global;
    Rng stream = e->ForkStream();
    e->Poison(global, &upload, &stream);
    return upload;
  };
  EXPECT_EQ(next_poison(&engine), next_poison(&restored));
}

TEST(AdversaryEngine, DeserializeRejectsGarbageWithoutMutating) {
  AdversaryEngine engine(BaseConfig(AttackType::kSignFlip));
  engine.ObserveHonestNorm(4.0);
  const std::string good = engine.SerializeState();
  EXPECT_FALSE(engine.DeserializeState("").ok());
  EXPECT_FALSE(engine.DeserializeState("garbage").ok());
  std::string truncated = good.substr(0, good.size() - 3);
  EXPECT_FALSE(engine.DeserializeState(truncated).ok());
  std::string trailing = good + "x";
  EXPECT_FALSE(engine.DeserializeState(trailing).ok());
  // State untouched by the failed loads.
  EXPECT_EQ(engine.honest_norm_history(), 1);
  EXPECT_EQ(engine.SerializeState(), good);
}

// ---------------------------------------------------------------------
// Robust aggregation: policies, edge cases, suspicion certificates
// ---------------------------------------------------------------------

TEST(ParseAggregatorPolicy, StrictSpellings) {
  const AggregatorPolicy all[] = {
      AggregatorPolicy::kMean,     AggregatorPolicy::kMedian,
      AggregatorPolicy::kTrimmedMean, AggregatorPolicy::kKrum,
      AggregatorPolicy::kMultiKrum, AggregatorPolicy::kNormBound};
  for (AggregatorPolicy policy : all) {
    AggregatorPolicy parsed = AggregatorPolicy::kMean;
    ASSERT_TRUE(ParseAggregatorPolicy(AggregatorPolicyName(policy), &parsed))
        << AggregatorPolicyName(policy);
    EXPECT_EQ(parsed, policy);
  }
  AggregatorPolicy out = AggregatorPolicy::kMedian;
  EXPECT_FALSE(ParseAggregatorPolicy("average", &out));
  EXPECT_EQ(out, AggregatorPolicy::kMedian);  // untouched
  ASSERT_TRUE(ParseAggregatorPolicy("trimmed", &out));
  EXPECT_EQ(out, AggregatorPolicy::kTrimmedMean);
  ASSERT_TRUE(ParseAggregatorPolicy("multikrum", &out));
  EXPECT_EQ(out, AggregatorPolicy::kMultiKrum);
  ASSERT_TRUE(ParseAggregatorPolicy("normbound", &out));
  EXPECT_EQ(out, AggregatorPolicy::kNormBound);
}

TEST(Aggregation, TrimmedMeanRejectsEmptySliceLoudly) {
  // Regression: trim_fraction >= 0.5 used to clamp silently and could
  // average an empty slice; it must be a parameter error instead.
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kTrimmedMean;
  config.trim_fraction = 0.5;
  const std::vector<std::vector<nn::Scalar>> uploads = {{1.0}, {2.0}};
  EXPECT_FALSE(AggregateFlat(uploads, config).ok());
  config.trim_fraction = -0.1;
  EXPECT_FALSE(AggregateFlat(uploads, config).ok());
  // A legal fraction on a tiny cohort trims nothing and degrades to
  // the mean rather than failing.
  config.trim_fraction = 0.4;  // k = floor(0.4 * 2) = 0
  Result<std::vector<nn::Scalar>> ok = AggregateFlat(uploads, config);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value()[0], 1.5);
}

TEST(Aggregation, SingleClientRoundIsIdentityForEveryPolicy) {
  const std::vector<std::vector<nn::Scalar>> uploads = {{1.0, -2.0, 3.0}};
  const std::vector<nn::Scalar> reference = {0.0, 0.0, 0.0};
  const AggregatorPolicy all[] = {
      AggregatorPolicy::kMean,     AggregatorPolicy::kMedian,
      AggregatorPolicy::kTrimmedMean, AggregatorPolicy::kKrum,
      AggregatorPolicy::kMultiKrum, AggregatorPolicy::kNormBound};
  for (AggregatorPolicy policy : all) {
    SCOPED_TRACE(AggregatorPolicyName(policy));
    AggregatorConfig config;
    config.policy = policy;
    std::vector<uint8_t> suspected;
    Result<std::vector<nn::Scalar>> out =
        AggregateFlat(uploads, config, &reference, /*norm_bound=*/0.0,
                      &suspected);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out.value(), uploads[0]);
    ASSERT_EQ(suspected.size(), 1u);
    EXPECT_EQ(suspected[0], 0);  // a lone reporter is never suspect
  }
}

TEST(Aggregation, CoordinateMedianAveragesEvenCohortMiddle) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kMedian;
  // Even cohort: median of {1, 2, 4, 100} is (2 + 4) / 2; a duplicated
  // middle value (tie) must still average exactly.
  const std::vector<std::vector<nn::Scalar>> uploads = {
      {1.0, 5.0}, {2.0, 5.0}, {4.0, 5.0}, {100.0, -3.0}};
  Result<std::vector<nn::Scalar>> out = AggregateFlat(uploads, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()[0], 3.0);
  EXPECT_EQ(out.value()[1], 5.0);  // tie: (5 + 5) / 2
}

TEST(Aggregation, KrumSmallCohortFallsBackToMedian) {
  AggregatorConfig krum;
  krum.policy = AggregatorPolicy::kKrum;
  krum.byzantine_fraction = 0.4;
  // m = 2, f = 0, but m < f + 3: Krum cannot score a single neighbor
  // pool, so the result must equal the coordinate median.
  const std::vector<std::vector<nn::Scalar>> uploads = {{1.0, 8.0},
                                                        {3.0, 2.0}};
  Result<std::vector<nn::Scalar>> out = AggregateFlat(uploads, krum);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()[0], 2.0);
  EXPECT_EQ(out.value()[1], 5.0);
}

TEST(Aggregation, KrumPicksHonestCenterAndFlagsOutlier) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kKrum;
  config.byzantine_fraction = 0.25;  // f = 1 of m = 5
  const std::vector<nn::Scalar> reference = {0.0};
  // Honest cluster around 1.0 plus one far outlier. One parameter:
  // both certificates sit out (dimension gates) so this isolates the
  // score rule.
  const std::vector<std::vector<nn::Scalar>> uploads = {
      {0.9}, {1.0}, {1.1}, {1.05}, {25.0}};
  std::vector<uint8_t> suspected;
  Result<std::vector<nn::Scalar>> out =
      AggregateFlat(uploads, config, &reference, 0.0, &suspected);
  ASSERT_TRUE(out.ok());
  // Krum selects exactly one upload, from inside the cluster.
  EXPECT_GE(out.value()[0], 0.9);
  EXPECT_LE(out.value()[0], 1.1);
  ASSERT_EQ(suspected.size(), 5u);
  EXPECT_EQ(suspected[4], 1);  // the outlier
  for (int i = 0; i < 4; ++i) EXPECT_EQ(suspected[i], 0) << i;
}

TEST(Aggregation, MultiKrumAveragesLowestScores) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kMultiKrum;
  config.byzantine_fraction = 0.25;  // f = 1, selected = m - f = 4
  const std::vector<std::vector<nn::Scalar>> uploads = {
      {1.0}, {2.0}, {3.0}, {4.0}, {1000.0}};
  Result<std::vector<nn::Scalar>> out = AggregateFlat(uploads, config);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value()[0], (1.0 + 2.0 + 3.0 + 4.0) / 4.0);
}

TEST(Aggregation, SuspicionAnchorShieldsDegenerateHonestCluster) {
  // The chaos probe scenario: a near-degenerate honest cluster whose
  // median score is ~0. A purely relative rule would flag the cluster's
  // own straggler; the magnitude anchor (median squared distance to the
  // reference) must keep everyone clean.
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kMultiKrum;
  config.byzantine_fraction = 0.25;
  const std::vector<nn::Scalar> reference = {0.0};
  const std::vector<std::vector<nn::Scalar>> uploads = {
      {1.0000}, {1.0001}, {1.0002}, {1.0001}, {1.0040}};  // all honest
  std::vector<uint8_t> suspected;
  Result<std::vector<nn::Scalar>> out =
      AggregateFlat(uploads, config, &reference, 0.0, &suspected);
  ASSERT_TRUE(out.ok());
  for (size_t i = 0; i < suspected.size(); ++i) {
    EXPECT_EQ(suspected[i], 0) << i;
  }
  // Without a reference the anchor is 0 and the relative rule runs
  // alone — the regression this anchor fixed — so the straggler IS
  // flagged; this documents why the trainer always passes the global
  // model as reference.
  std::vector<uint8_t> unanchored;
  ASSERT_TRUE(
      AggregateFlat(uploads, config, nullptr, 0.0, &unanchored).ok());
  EXPECT_EQ(unanchored[4], 1);
}

TEST(Aggregation, CollusionCertificateFlagsIdenticalUploads) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kMultiKrum;
  config.byzantine_fraction = 0.25;
  const std::vector<nn::Scalar> reference = {0.0, 0.0};
  // Two byte-identical colluders hiding INSIDE the honest envelope:
  // their mutual zero distance deflates their Krum scores below the
  // suspicion bar, which is exactly why the certificate exists.
  const std::vector<std::vector<nn::Scalar>> uploads = {
      {0.50, 0.50}, {0.50, 0.50}, {0.60, 0.40}, {0.45, 0.55}, {0.55, 0.62}};
  std::vector<uint8_t> suspected;
  ASSERT_TRUE(
      AggregateFlat(uploads, config, &reference, 0.0, &suspected).ok());
  EXPECT_EQ(suspected[0], 1);
  EXPECT_EQ(suspected[1], 1);
  EXPECT_EQ(suspected[2], 0);
  EXPECT_EQ(suspected[3], 0);
  EXPECT_EQ(suspected[4], 0);
}

TEST(Aggregation, CollusionCertificateDimensionAndDegeneracyGates) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kMultiKrum;
  config.byzantine_fraction = 0.25;
  // One parameter: coinciding scalars are coincidence, not collusion.
  const std::vector<std::vector<nn::Scalar>> scalar_uploads = {
      {0.5}, {0.5}, {0.6}, {0.45}, {0.55}};
  std::vector<uint8_t> suspected;
  ASSERT_TRUE(AggregateFlat(scalar_uploads, config, nullptr, 0.0,
                            &suspected)
                  .ok());
  EXPECT_EQ(suspected[0], 0);
  EXPECT_EQ(suspected[1], 0);
  // Fully degenerate round (every upload identical, max score 0): no
  // pair can be singled out, nobody is flagged.
  const std::vector<std::vector<nn::Scalar>> same(
      5, std::vector<nn::Scalar>{0.5, 0.5});
  ASSERT_TRUE(AggregateFlat(same, config, nullptr, 0.0, &suspected).ok());
  for (size_t i = 0; i < suspected.size(); ++i) {
    EXPECT_EQ(suspected[i], 0) << i;
  }
}

// Builds an anti-alignment scenario: honest uploads step +delta (with
// small per-client wobble) from a zero reference, flipped uploads step
// -delta at the same norm.
std::vector<std::vector<nn::Scalar>> AlignedCohort(size_t dims,
                                                   int honest,
                                                   int flipped) {
  std::vector<std::vector<nn::Scalar>> uploads;
  // The per-client constant keeps every vector distinct (no accidental
  // collusion-certificate hits), the per-coordinate wobble keeps
  // pairwise distances from being a separator.
  for (int c = 0; c < honest; ++c) {
    std::vector<nn::Scalar> u(dims);
    for (size_t i = 0; i < dims; ++i) {
      u[i] = 1.0 + 0.03 * static_cast<double>(c) +
             0.05 * static_cast<double>((c + i) % 3);
    }
    uploads.push_back(u);
  }
  for (int c = 0; c < flipped; ++c) {
    std::vector<nn::Scalar> u(dims);
    for (size_t i = 0; i < dims; ++i) {
      u[i] = -(1.0 + 0.03 * static_cast<double>(honest + c) +
               0.05 * static_cast<double>((c + i) % 3));
    }
    uploads.push_back(u);
  }
  return uploads;
}

TEST(Aggregation, AntiAlignmentCertificateFlagsFlippedDeltas) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kMultiKrum;
  config.byzantine_fraction = 0.25;  // f = 1 of 6
  const std::vector<nn::Scalar> reference(12, nn::Scalar{0});
  // Sign-flipping preserves norms and (for weakly-correlated clients)
  // distance statistics; only the direction test can see it.
  const auto uploads = AlignedCohort(12, /*honest=*/5, /*flipped=*/1);
  std::vector<uint8_t> suspected;
  ASSERT_TRUE(
      AggregateFlat(uploads, config, &reference, 0.0, &suspected).ok());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(suspected[i], 0) << i;
  EXPECT_EQ(suspected[5], 1);
}

TEST(Aggregation, AntiAlignmentCertificateNeedsDimensionsAndReference) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kMultiKrum;
  config.byzantine_fraction = 0.25;
  // 4 < kMinDirectionParams dimensions: a low-dimensional flip is weak
  // evidence, the certificate must not fire. (The honest wobble keeps
  // pairwise distances nonzero so the collusion certificate also stays
  // quiet, and the flipped upload ranks into the selected set under
  // f = 1 so the score rule never examines it.)
  const std::vector<nn::Scalar> small_ref(4, nn::Scalar{0});
  const auto small = AlignedCohort(4, 5, 1);
  std::vector<uint8_t> suspected;
  ASSERT_TRUE(
      AggregateFlat(small, config, &small_ref, 0.0, &suspected).ok());
  // The score rule may still catch a genuinely distant upload; what
  // must NOT happen is a flag on any honest client.
  for (int i = 0; i < 5; ++i) EXPECT_EQ(suspected[i], 0) << i;
  // Without a reference there is no delta direction (and no anchor:
  // the bare score rule may still catch the far-away flip), but no
  // honest client may be flagged by the degraded rule either.
  const auto big = AlignedCohort(12, 5, 1);
  ASSERT_TRUE(AggregateFlat(big, config, nullptr, 0.0, &suspected).ok());
  for (int i = 0; i < 5; ++i) EXPECT_EQ(suspected[i], 0) << i;
}

TEST(Aggregation, ExcludeSuspectedMeansOverUnflaggedUploads) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kMultiKrum;
  config.byzantine_fraction = 0.25;
  config.exclude_suspected = true;
  const std::vector<nn::Scalar> reference(12, nn::Scalar{0});
  const auto uploads = AlignedCohort(12, 5, 1);
  std::vector<uint8_t> suspected;
  Result<std::vector<nn::Scalar>> out =
      AggregateFlat(uploads, config, &reference, 0.0, &suspected);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(suspected[5], 1);
  // The aggregate is the plain mean over the five honest uploads —
  // including the "outer" ones Krum selection would have discarded.
  for (size_t i = 0; i < reference.size(); ++i) {
    nn::Scalar mean{0};
    for (int c = 0; c < 5; ++c) mean += uploads[c][i];
    mean *= nn::Scalar{1} / nn::Scalar{5};  // the aggregator's rounding
    EXPECT_EQ(out.value()[i], mean) << i;
  }
  // Clean round, nothing flagged: exclude_suspected returns the mean
  // of ALL uploads (zero selection tax).
  const auto clean = AlignedCohort(12, 6, 0);
  Result<std::vector<nn::Scalar>> clean_out =
      AggregateFlat(clean, config, &reference, 0.0, &suspected);
  ASSERT_TRUE(clean_out.ok());
  for (uint8_t flag : suspected) EXPECT_EQ(flag, 0);
  for (size_t i = 0; i < reference.size(); ++i) {
    nn::Scalar mean{0};
    for (int c = 0; c < 6; ++c) mean += clean[c][i];
    mean *= nn::Scalar{1} / nn::Scalar{6};
    EXPECT_EQ(clean_out.value()[i], mean) << i;
  }
}

TEST(Aggregation, NormBoundClipsAndFlagsOnlyExtremeDeltas) {
  AggregatorConfig config;
  config.policy = AggregatorPolicy::kNormBound;
  const std::vector<nn::Scalar> reference = {0.0};
  const std::vector<std::vector<nn::Scalar>> uploads = {
      {1.0}, {1.5}, {10.0}};
  // Unarmed bound (<= 0): plain mean, nobody suspected.
  std::vector<uint8_t> suspected;
  Result<std::vector<nn::Scalar>> unarmed =
      AggregateFlat(uploads, config, &reference, 0.0, &suspected);
  ASSERT_TRUE(unarmed.ok());
  EXPECT_NEAR(unarmed.value()[0], (1.0 + 1.5 + 10.0) / 3.0, 1e-12);
  for (uint8_t flag : suspected) EXPECT_EQ(flag, 0);
  // Armed at 2.0: the 10.0 delta is clipped to the bound and, being
  // over 4x the bound, flagged; the 1.5 delta sails through.
  Result<std::vector<nn::Scalar>> armed =
      AggregateFlat(uploads, config, &reference, 2.0, &suspected);
  ASSERT_TRUE(armed.ok());
  EXPECT_NEAR(armed.value()[0], (1.0 + 1.5 + 2.0) / 3.0, 1e-12);
  EXPECT_EQ(suspected[0], 0);
  EXPECT_EQ(suspected[1], 0);
  EXPECT_EQ(suspected[2], 1);
  // NormBound without a reference is a parameter error, not a crash.
  EXPECT_FALSE(AggregateFlat(uploads, config).ok());
}

// ---------------------------------------------------------------------
// Reputation: the suspected-flag path
// ---------------------------------------------------------------------

TEST(Reputation, SuspectedFlagsQuarantineRepeatOffenders) {
  ReputationConfig config;
  config.quarantine_threshold = 0.45;  // the defended-preset value
  ReputationBook book(2, config);
  // First flag: 0.5 * 0.7 = 0.35 < 0.45, still at large.
  EXPECT_FALSE(book.Observe(0, false, false, false, /*suspected=*/true));
  EXPECT_FALSE(book.IsQuarantined(0));
  EXPECT_EQ(book.client(0).suspect_events, 1);
  // Second consecutive flag: 0.525 >= 0.45, quarantined.
  EXPECT_TRUE(book.Observe(0, false, false, false, /*suspected=*/true));
  EXPECT_TRUE(book.IsQuarantined(0));
  // An honest client's clean reports decay toward zero and never
  // approach the threshold.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(book.Observe(1, false, false, false, false));
  }
  EXPECT_FALSE(book.IsQuarantined(1));
  EXPECT_EQ(book.QuarantinedCount(), 1);
}

TEST(Reputation, SuspectWeightOutranksOutlierOnSameUpload) {
  ReputationConfig config;
  ReputationBook book(1, config);
  // suspected + outlier on one upload: the max weight (0.7) wins.
  book.Observe(0, false, false, /*outlier=*/true, /*suspected=*/true);
  EXPECT_NEAR(book.client(0).score, 0.5 * 0.7, 1e-12);
  EXPECT_EQ(book.client(0).suspect_events, 1);
  EXPECT_EQ(book.client(0).outlier_events, 1);
}

// ---------------------------------------------------------------------
// End-to-end: FederatedTrainer under attack
// ---------------------------------------------------------------------

// The shared stub, trained toward a SHARED constant rather than the
// per-client driver_id: honest clients must agree on a consensus
// direction for a Byzantine defense to have something to defend (the
// per-client-target stub models a pathological zero-consensus
// federation where no robust aggregator can distinguish honest
// disagreement from attack).
std::unique_ptr<RecoveryModel> MakeStub(Rng* rng) {
  return std::make_unique<chaos::StubModel>(rng, 1, /*target=*/2.0);
}

// The defended configuration bench_adversary gates on, shrunk for unit
// runtime: Multi-Krum detection with exclusion aggregation, suspicion
// feeding the reputation ledger, quarantine after two flags.
FederatedTrainerOptions DefendedOptions(AttackType attack, int rounds = 10) {
  FederatedTrainerOptions options;
  options.rounds = rounds;
  options.local_epochs = 2;
  options.learning_rate = 0.05;
  options.client_fraction = 1.0;
  options.adversary.num_attackers = 2;
  options.adversary.attack = attack;
  options.adversary.start_round = 2;
  options.tolerance.aggregator.policy = AggregatorPolicy::kMultiKrum;
  options.tolerance.aggregator.byzantine_fraction = 0.3;
  options.tolerance.aggregator.exclude_suspected = true;
  options.healing.enabled = true;
  options.healing.reputation.quarantine_threshold = 0.45;
  options.healing.reputation.parole_rounds = rounds + 100;  // no parole
  return options;
}

TEST(FederatedTrainerAdversary, DisabledEngineIsNullAndCountsZero) {
  auto clients = MakeClients(4, 61);
  FederatedTrainerOptions options;
  options.rounds = 2;
  FederatedTrainer trainer(MakeStub, &clients, options);
  EXPECT_EQ(trainer.adversary(), nullptr);
  const FederatedRunResult result = trainer.Run();
  EXPECT_EQ(result.faults[kPoisonedUploads], 0);
  for (const RoundRecord& record : result.history) {
    EXPECT_EQ(record[kPoisonedUploads], 0);
  }
}

TEST(FederatedTrainerAdversary, QuarantinesAttackersAndOnlyAttackers) {
  auto clients = MakeClients(8, 62);
  FederatedTrainerOptions options = DefendedOptions(AttackType::kScaledAscent);
  FederatedTrainer trainer(MakeStub, &clients, options);
  ASSERT_NE(trainer.adversary(), nullptr);
  const FederatedRunResult result = trainer.Run();
  EXPECT_GT(result.faults[kPoisonedUploads], 0);
  EXPECT_GT(result.faults[kSuspectedUploads], 0);
  const ReputationBook* book = trainer.reputation();
  ASSERT_NE(book, nullptr);
  EXPECT_TRUE(book->IsQuarantined(0));
  EXPECT_TRUE(book->IsQuarantined(1));
  for (int c = 2; c < 8; ++c) {
    EXPECT_FALSE(book->IsQuarantined(c)) << "honest client " << c;
  }
  // Once quarantined, the attackers stop reaching the wire: poisoned
  // uploads must plateau before the run ends.
  EXPECT_GT(result.faults[kQuarantinedSkips], 0);
}

TEST(FederatedTrainerAdversary, AttackSeedIsAnIndependentKnob) {
  // Changing only the adversary seed must leave honest training draws
  // untouched: with zero attackers the seed is fully inert.
  auto clients = MakeClients(4, 63);
  auto run = [&](uint64_t adversary_seed) {
    FederatedTrainerOptions options;
    options.rounds = 3;
    options.local_epochs = 1;
    options.learning_rate = 0.05;
    options.adversary.seed = adversary_seed;
    FederatedTrainer trainer(MakeStub, &clients, options);
    trainer.Run();
    return trainer.global_model()->params().Flatten();
  };
  EXPECT_EQ(run(1), run(999));
}

TEST(FederatedTrainerAdversary, BitwiseIdenticalAcrossThreadCounts) {
  auto clients = MakeClients(8, 64);
  std::vector<nn::Scalar> reference_params;
  std::vector<int> reference_poisoned;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    FederatedTrainerOptions options =
        DefendedOptions(AttackType::kNormMatched, /*rounds=*/6);
    options.threads = threads;
    FederatedTrainer trainer(MakeStub, &clients, options);
    const FederatedRunResult result = trainer.Run();
    std::vector<int> poisoned;
    for (const RoundRecord& record : result.history) {
      poisoned.push_back(record[kPoisonedUploads]);
    }
    const std::vector<nn::Scalar> params =
        trainer.global_model()->params().Flatten();
    if (threads == 1) {
      reference_params = params;
      reference_poisoned = poisoned;
    } else {
      EXPECT_EQ(params, reference_params);
      EXPECT_EQ(poisoned, reference_poisoned);
    }
  }
}

TEST(FederatedTrainerAdversary, CrashResumeReplaysAttackBitwise) {
  auto clients = MakeClients(8, 65);
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "adversary_crash")
          .generic_string();
  std::filesystem::remove_all(dir);

  // Uninterrupted reference run (no durability side effects on state:
  // snapshots observe, they never perturb).
  FederatedTrainerOptions reference_options =
      DefendedOptions(AttackType::kMinMax, /*rounds=*/8);
  FederatedTrainer reference(MakeStub, &clients, reference_options);
  reference.Run();
  const std::vector<nn::Scalar> expected =
      reference.global_model()->params().Flatten();

  // Crash mid-run with the adversary live, then resume: the run-state
  // snapshot must carry the adversary stream so the replayed attack
  // (and therefore the final model) is bitwise identical.
  FederatedTrainerOptions options =
      DefendedOptions(AttackType::kMinMax, /*rounds=*/8);
  options.durability.dir = dir;
  options.durability.snapshot_every = 2;
  options.durability.crash_point = CrashPoint::kAfterSave;
  options.durability.crash_round = 4;
  bool crashed = false;
  {
    FederatedTrainer victim(MakeStub, &clients, options);
    try {
      victim.Run();
    } catch (const InjectedCrash& crash) {
      crashed = true;
      EXPECT_EQ(crash.round, 4);
    }
  }
  ASSERT_TRUE(crashed);

  options.durability.crash_point = CrashPoint::kNone;
  options.durability.crash_round = 0;
  options.durability.resume = true;
  FederatedTrainer resumed(MakeStub, &clients, options);
  resumed.Run();
  EXPECT_GT(resumed.resumed_round(), 0);
  EXPECT_EQ(resumed.global_model()->params().Flatten(), expected);
  // The defense outcome survives the crash too.
  const ReputationBook* book = resumed.reputation();
  ASSERT_NE(book, nullptr);
  for (int c = 2; c < 8; ++c) {
    EXPECT_FALSE(book->IsQuarantined(c)) << "honest client " << c;
  }
}

}  // namespace
}  // namespace lighttr::fl
