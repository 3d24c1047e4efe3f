// Hostile-input tests for the parameter blob codec
// (nn::ParameterSet::Serialize / Deserialize), which carries the model
// on the wire (float32) and inside run-state snapshots (float64).
// Systematic and seeded-random mutations of valid blobs must come back
// as a descriptive Status or as a well-formed decode — never a crash,
// hang, or OOM. The blob has no checksum of its own: damaged values are
// caught by the frame CRC on the wire and the snapshot CRC on disk, and
// a NaN/Inf model is refused where a snapshot is restored (the second
// half of this file). (The sanitizer matrix runs this binary under
// ASan/TSan; see ROADMAP.md.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "chaos/stub_federation.h"
#include "common/binary_io.h"
#include "common/env.h"
#include "common/finite.h"
#include "common/rng.h"
#include "fl/federated_trainer.h"
#include "fl/run_state.h"
#include "nn/parameter.h"
#include "fixtures.h"

namespace lighttr::nn {
namespace {

using test_util::FreshDir;

constexpr BlobPrecision kPrecisions[] = {BlobPrecision::kFloat32,
                                         BlobPrecision::kFloat64};

const char* PrecisionName(BlobPrecision precision) {
  return precision == BlobPrecision::kFloat32 ? "f32" : "f64";
}

ParameterSet MakeParams(double scale = 1.0) {
  ParameterSet params;
  Matrix w1(2, 3);
  Matrix w2(1, 4);
  Matrix b(1, 1);
  for (size_t i = 0; i < w1.size(); ++i) {
    w1.data()[i] = static_cast<Scalar>(scale * (0.25 * static_cast<double>(i) - 0.5));
  }
  for (size_t i = 0; i < w2.size(); ++i) {
    w2.data()[i] = static_cast<Scalar>(scale * (1.0 / (static_cast<double>(i) + 3.0)));
  }
  b(0, 0) = static_cast<Scalar>(scale * 0.125);
  params.Register("encoder.w1", Tensor::Variable(w1));
  params.Register("encoder.w2", Tensor::Variable(w2));
  params.Register("head.bias", Tensor::Variable(b));
  return params;
}

void ExpectParamsEqual(const ParameterSet& a, const ParameterSet& b,
                       double tolerance) {
  const std::vector<Scalar> fa = a.Flatten();
  const std::vector<Scalar> fb = b.Flatten();
  ASSERT_EQ(fa.size(), fb.size());
  for (size_t i = 0; i < fa.size(); ++i) {
    if (tolerance == 0.0) {
      EXPECT_EQ(fa[i], fb[i]);
    } else {
      EXPECT_NEAR(fa[i], fb[i], tolerance);
    }
  }
}

TEST(ParameterBlob, Float32RoundTrips) {
  const ParameterSet original = MakeParams();
  ParameterSet restored = MakeParams(0.0);
  ASSERT_TRUE(restored.Deserialize(original.Serialize()).ok());
  ExpectParamsEqual(original, restored, 1e-6);
}

TEST(ParameterBlob, Float64RoundTripsBitwise) {
  // 1/3 and 1/5 have no float32 representation: only the float64 blob
  // brings them back exactly.
  const ParameterSet original = MakeParams();
  ParameterSet restored = MakeParams(0.0);
  ASSERT_TRUE(
      restored.Deserialize(original.Serialize(BlobPrecision::kFloat64)).ok());
  ExpectParamsEqual(original, restored, 0.0);
}

TEST(ParameterBlob, Float32IsTheWireSizeAndFloat64HoldsTwiceThePayload) {
  const ParameterSet params = MakeParams();
  const std::string narrow = params.Serialize();
  const std::string wide = params.Serialize(BlobPrecision::kFloat64);
  // Magic and count, then per tensor a u32 name length, the name, u32
  // rows and cols, and four bytes per value.
  size_t layout = 8;
  for (size_t i = 0; i < params.size(); ++i) {
    layout += 12 + params.name(i).size() + 4 * params.tensor(i).value().size();
  }
  EXPECT_EQ(narrow.size(), layout);
  EXPECT_EQ(wide.size() - narrow.size(),
            static_cast<size_t>(params.NumScalars()) * sizeof(float));
}

// The decoder moves values; judging them is the caller's job. The wire
// path must not turn an unhealed NaN round into a decode failure, and
// the snapshot path refuses non-finite models in RestoreFromState
// (SnapshotRobustness below).
TEST(ParameterBlob, NonFiniteValuesDecodeForTheCallerToJudge) {
  for (const Scalar poison : {std::numeric_limits<Scalar>::quiet_NaN(),
                              std::numeric_limits<Scalar>::infinity(),
                              -std::numeric_limits<Scalar>::infinity()}) {
    ParameterSet poisoned = MakeParams();
    std::vector<Scalar> flat = poisoned.Flatten();
    flat.back() = poison;
    poisoned.AssignFlat(flat);
    for (const BlobPrecision precision : kPrecisions) {
      SCOPED_TRACE(PrecisionName(precision));
      ParameterSet victim = MakeParams(2.0);
      ASSERT_TRUE(victim.Deserialize(poisoned.Serialize(precision)).ok());
      const Scalar decoded = victim.Flatten().back();
      EXPECT_EQ(IsNan(decoded), IsNan(poison));
      if (!IsNan(poison)) {
        EXPECT_EQ(decoded, poison);
      }
    }
  }
}

// --------------------------------------------------------------------
// Mutation battery, run at both precisions. Every structural mutant
// must yield !ok(), and none may crash.

TEST(ParameterBlobRobustness, EveryTruncationIsRejected) {
  for (const BlobPrecision precision : kPrecisions) {
    SCOPED_TRACE(PrecisionName(precision));
    const std::string blob = MakeParams().Serialize(precision);
    for (size_t keep = 0; keep < blob.size(); ++keep) {
      ParameterSet victim = MakeParams(2.0);
      EXPECT_FALSE(victim.Deserialize(blob.substr(0, keep)).ok())
          << "truncation to " << keep << " bytes was accepted";
    }
  }
}

TEST(ParameterBlobRobustness, HostileStructuralFieldsAreRejected) {
  struct Mutation {
    const char* label;
    size_t offset;
    uint32_t value;
  };
  // Layout: magic(4) count(4) name_len(4) name ...
  const Mutation mutations[] = {
      {"bad magic", 0, 0x31525458u},  // "XTR1"
      {"count 0", 4, 0u},
      {"count huge", 4, 0x7fffffffu},
      {"name_len huge", 8, 0xffffff00u},
      {"name_len past end", 8, 1u << 20},
  };
  for (const BlobPrecision precision : kPrecisions) {
    SCOPED_TRACE(PrecisionName(precision));
    const std::string blob = MakeParams().Serialize(precision);
    for (const Mutation& m : mutations) {
      std::string mutant = blob;
      ASSERT_LE(m.offset + sizeof(uint32_t), mutant.size());
      std::memcpy(mutant.data() + m.offset, &m.value, sizeof(m.value));
      ParameterSet victim = MakeParams(2.0);
      EXPECT_FALSE(victim.Deserialize(mutant).ok()) << m.label;
    }
    ParameterSet victim = MakeParams(2.0);
    EXPECT_FALSE(victim.Deserialize(blob + "extra").ok()) << "trailing bytes";
  }
}

TEST(ParameterBlobRobustness, WrongArchitectureIsRejectedNotLoaded) {
  for (const BlobPrecision precision : kPrecisions) {
    SCOPED_TRACE(PrecisionName(precision));
    const std::string blob = MakeParams().Serialize(precision);

    ParameterSet fewer;
    fewer.Register("encoder.w1", Tensor::Variable(Matrix(2, 3)));
    EXPECT_FALSE(fewer.Deserialize(blob).ok());  // count mismatch

    ParameterSet renamed;
    renamed.Register("encoder.w1", Tensor::Variable(Matrix(2, 3)));
    renamed.Register("decoder.w2", Tensor::Variable(Matrix(1, 4)));
    renamed.Register("head.bias", Tensor::Variable(Matrix(1, 1)));
    EXPECT_FALSE(renamed.Deserialize(blob).ok());  // name mismatch

    ParameterSet reshaped;
    reshaped.Register("encoder.w1", Tensor::Variable(Matrix(3, 2)));
    reshaped.Register("encoder.w2", Tensor::Variable(Matrix(1, 4)));
    reshaped.Register("head.bias", Tensor::Variable(Matrix(1, 1)));
    EXPECT_FALSE(reshaped.Deserialize(blob).ok());  // shape mismatch
  }
}

TEST(ParameterBlobRobustness, EmptyAndTinyInputsAreRejected) {
  for (const std::string& input :
       {std::string(), std::string("L"), std::string("LTR1"),
        std::string("LTRD"), std::string("LTR1\0\0\0\0", 8),
        std::string("LTRD\0\0\0\0", 8), std::string(3, '\xff')}) {
    ParameterSet victim = MakeParams(2.0);
    EXPECT_FALSE(victim.Deserialize(input).ok());
  }
}

// ~20 deterministic pseudo-random mutants per precision with multi-byte
// damage, mirroring what a fuzzer would feed the decoder. Seeded, so
// failures reproduce. A mutant may decode when only value bytes were
// hit, but then it must have kept the blob's exact layout.
TEST(ParameterBlobRobustness, RandomMutantsNeverCrashTheDecoder) {
  lighttr::Rng rng(20240806);
  for (const BlobPrecision precision : kPrecisions) {
    SCOPED_TRACE(PrecisionName(precision));
    const std::string blob = MakeParams().Serialize(precision);
    for (int mutant_index = 0; mutant_index < 20; ++mutant_index) {
      std::string mutant = blob;
      const int edits = static_cast<int>(rng.UniformInt(1, 16));
      for (int e = 0; e < edits; ++e) {
        const auto pos = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutant.size()) - 1));
        mutant[pos] = static_cast<char>(rng.UniformInt(0, 255));
      }
      if (static_cast<int>(rng.UniformInt(0, 3)) == 0 && mutant.size() > 8) {
        mutant.resize(mutant.size() -
                      static_cast<size_t>(rng.UniformInt(1, 8)));
      }
      ParameterSet victim = MakeParams(2.0);
      if (victim.Deserialize(mutant).ok()) {
        EXPECT_EQ(mutant.size(), blob.size()) << "mutant " << mutant_index;
      }
    }
  }
}

// --------------------------------------------------------------------
// Poisoned run-state snapshots. These mutants keep every container CRC
// valid — only the payload carries NaN/Inf or a malformed healing tail —
// so the rejection has to come from payload validation, not checksums.
// ResumeFrom must warn and fall back to the previous snapshot, exactly
// as it does for file-level corruption, and must never install a
// non-finite global model.

fl::FederatedTrainerOptions SnapshotOptions(const std::string& dir,
                                            int rounds = 6) {
  fl::FederatedTrainerOptions options;
  options.rounds = rounds;
  options.local_epochs = 2;
  options.learning_rate = 0.05;
  options.durability.dir = dir;
  options.durability.snapshot_every = 1;
  options.durability.keep_snapshots = 3;
  return options;
}

// Rewrites the global model payload of the snapshot at `round` with a
// float64 parameter blob whose single weight is `poison`. SaveRunState
// re-signs the container, so every CRC stays valid.
void PoisonSnapshotModel(const std::string& dir, int round, Scalar poison) {
  const std::string path = fl::SnapshotPath(dir, round);
  Result<fl::ServerRunState> loaded =
      fl::LoadRunState(RealFileSystemInstance(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  fl::ServerRunState state = loaded.value();
  ParameterSet poisoned;
  poisoned.Register("w", Tensor::Variable(Matrix::Full(1, 1, poison)));
  state.global_params_blob = poisoned.Serialize(BlobPrecision::kFloat64);
  ASSERT_TRUE(fl::SaveRunState(RealFileSystemInstance(), path, state).ok());
}

TEST(SnapshotRobustness, NonFinitePoisonedSnapshotFallsBackToPrevious) {
  auto clients = chaos::MakeClients(4, 63);
  fl::FederatedTrainerOptions baseline_options;
  baseline_options.rounds = 6;
  baseline_options.local_epochs = 2;
  baseline_options.learning_rate = 0.05;
  fl::FederatedTrainer baseline(chaos::MakeStub, &clients, baseline_options);
  baseline.Run();
  const std::vector<Scalar> expected =
      baseline.global_model()->params().Flatten();

  struct Case {
    const char* label;
    Scalar poison;
  };
  const Case cases[] = {
      {"nan", std::numeric_limits<Scalar>::quiet_NaN()},
      {"inf", std::numeric_limits<Scalar>::infinity()},
      {"neg_inf", -std::numeric_limits<Scalar>::infinity()},
  };
  std::string last_dir;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    fl::FederatedTrainerOptions options =
        SnapshotOptions(FreshDir(std::string("poison_snapshot_") + c.label));
    last_dir = options.durability.dir;
    {
      fl::FederatedTrainer first(chaos::MakeStub, &clients, options);
      first.Run();
    }
    PoisonSnapshotModel(options.durability.dir, 6, c.poison);

    options.durability.resume = true;
    fl::FederatedTrainer resumed(chaos::MakeStub, &clients, options);
    ASSERT_TRUE(resumed.ResumeFrom(options.durability.dir).ok());
    EXPECT_EQ(resumed.resumed_round(), 5);
    resumed.Run();
    const std::vector<Scalar> params =
        resumed.global_model()->params().Flatten();
    ASSERT_EQ(params.size(), expected.size());
    for (size_t i = 0; i < params.size(); ++i) {
      EXPECT_TRUE(std::isfinite(params[i]));
    }
    // Replaying the final round from the older snapshot converges to the
    // exact bits of an uninterrupted run.
    EXPECT_EQ(params, expected);
  }

  // When every snapshot is poisoned there is nothing to fall back to:
  // resume reports an error instead of loading a non-finite model, and
  // each refused restore put the model back exactly as it was.
  Result<std::vector<int>> rounds =
      fl::ListSnapshotRounds(RealFileSystemInstance(), last_dir);
  ASSERT_TRUE(rounds.ok());
  for (int round : rounds.value()) {
    PoisonSnapshotModel(last_dir, round,
                        std::numeric_limits<Scalar>::quiet_NaN());
  }
  fl::FederatedTrainerOptions options = SnapshotOptions(last_dir);
  fl::FederatedTrainer stranded(chaos::MakeStub, &clients, options);
  const std::vector<Scalar> before = stranded.global_model()->params().Flatten();
  EXPECT_FALSE(stranded.ResumeFrom(last_dir).ok());
  EXPECT_EQ(stranded.resumed_round(), 0);
  const std::vector<Scalar> after = stranded.global_model()->params().Flatten();
  for (const Scalar v : after) EXPECT_TRUE(std::isfinite(v));
  EXPECT_EQ(after, before);
}

// A CRC-valid snapshot whose first client's Adam state declares a
// 2^31 x 2^30 moment matrix, a byte size that wraps to 0 in 64 bits,
// followed by 4,096 values. Resume must refuse it with a Status (not
// overrun the heap) and fall back to the snapshot before it.
TEST(SnapshotRobustness, HostileAdamDimensionsFallBackToPrevious) {
  auto clients = chaos::MakeClients(4, 67);
  fl::FederatedTrainerOptions options = SnapshotOptions(FreshDir("poison_adam"));
  std::vector<Scalar> expected;
  {
    fl::FederatedTrainer first(chaos::MakeStub, &clients, options);
    first.Run();
    expected = first.global_model()->params().Flatten();
  }
  const std::string path = fl::SnapshotPath(options.durability.dir, 6);
  Result<fl::ServerRunState> loaded =
      fl::LoadRunState(RealFileSystemInstance(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  fl::ServerRunState state = loaded.value();
  ASSERT_FALSE(state.optimizer_blobs.empty());
  BinaryWriter hostile;
  hostile.WriteU8(1);  // Adam kind tag
  hostile.WriteI64(1);
  hostile.WriteU32(1);
  hostile.WriteU32(0x80000000u);
  hostile.WriteU32(0x40000000u);
  for (int i = 0; i < 4096; ++i) hostile.WriteF64(1.0);
  state.optimizer_blobs[0] = hostile.Take();
  ASSERT_TRUE(fl::SaveRunState(RealFileSystemInstance(), path, state).ok());

  options.durability.resume = true;
  fl::FederatedTrainer resumed(chaos::MakeStub, &clients, options);
  ASSERT_TRUE(resumed.ResumeFrom(options.durability.dir).ok());
  EXPECT_EQ(resumed.resumed_round(), 5);
  resumed.Run();
  EXPECT_EQ(resumed.global_model()->params().Flatten(), expected);
}

// A CRC-valid snapshot whose first client's Adam state holds one NaN
// first moment: the library never writes one, and restored it would make
// that client's every upload NaN. Resume falls back a snapshot.
TEST(SnapshotRobustness, PoisonedAdamMomentFallsBackToPrevious) {
  auto clients = chaos::MakeClients(4, 69);
  fl::FederatedTrainerOptions options =
      SnapshotOptions(FreshDir("poison_adam_moment"));
  std::vector<Scalar> expected;
  {
    fl::FederatedTrainer first(chaos::MakeStub, &clients, options);
    first.Run();
    expected = first.global_model()->params().Flatten();
  }
  const std::string path = fl::SnapshotPath(options.durability.dir, 6);
  Result<fl::ServerRunState> loaded =
      fl::LoadRunState(RealFileSystemInstance(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  fl::ServerRunState state = loaded.value();
  ASSERT_FALSE(state.optimizer_blobs.empty());
  // The kind tag, the step count, the matrix count, rows and cols, then
  // the first moment's first value.
  std::string& adam = state.optimizer_blobs[0];
  const size_t first_m = 1 + 8 + 4 + 4 + 4;
  ASSERT_GE(adam.size(), first_m + sizeof(Scalar));
  const Scalar nan = std::numeric_limits<Scalar>::quiet_NaN();
  std::memcpy(&adam[first_m], &nan, sizeof(nan));
  ASSERT_TRUE(fl::SaveRunState(RealFileSystemInstance(), path, state).ok());

  options.durability.resume = true;
  fl::FederatedTrainer resumed(chaos::MakeStub, &clients, options);
  ASSERT_TRUE(resumed.ResumeFrom(options.durability.dir).ok());
  EXPECT_EQ(resumed.resumed_round(), 5);
  resumed.Run();
  EXPECT_EQ(resumed.global_model()->params().Flatten(), expected);
}

// The healing state gets the same treatment: a snapshot whose monitor
// or reputation blob fails validation is rejected as a whole, falling
// back one snapshot per damaged tail.
TEST(SnapshotRobustness, CorruptHealingTailFallsBackToPrevious) {
  auto clients = chaos::MakeClients(4, 65);
  fl::FederatedTrainerOptions options = SnapshotOptions(FreshDir("poison_tail"));
  options.healing.enabled = true;
  {
    fl::FederatedTrainer first(chaos::MakeStub, &clients, options);
    first.Run();
  }
  {
    // Garbage monitor window on the newest snapshot.
    const std::string path = fl::SnapshotPath(options.durability.dir, 6);
    Result<fl::ServerRunState> loaded =
        fl::LoadRunState(RealFileSystemInstance(), path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    fl::ServerRunState state = loaded.value();
    state.monitor_blob = "not a monitor blob";
    ASSERT_TRUE(
        fl::SaveRunState(RealFileSystemInstance(), path, state).ok());
  }
  {
    // Garbage reputation ledger on the one before it.
    const std::string path = fl::SnapshotPath(options.durability.dir, 5);
    Result<fl::ServerRunState> loaded =
        fl::LoadRunState(RealFileSystemInstance(), path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    fl::ServerRunState state = loaded.value();
    state.reputation_blob = "not a ledger";
    ASSERT_TRUE(
        fl::SaveRunState(RealFileSystemInstance(), path, state).ok());
  }

  options.durability.resume = true;
  fl::FederatedTrainer resumed(chaos::MakeStub, &clients, options);
  ASSERT_TRUE(resumed.ResumeFrom(options.durability.dir).ok());
  EXPECT_EQ(resumed.resumed_round(), 4);
}

}  // namespace
}  // namespace lighttr::nn
