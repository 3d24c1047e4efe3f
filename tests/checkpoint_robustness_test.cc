// Hostile-input tests for the v2 checkpoint loader: systematic and
// seeded-random mutations of valid checkpoint files must always come
// back as a descriptive Status — never a crash, hang, OOM, or silently
// garbage parameters. (The sanitizer matrix runs this binary under
// ASan/TSan; see ROADMAP.md.)
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/env.h"
#include "common/rng.h"
#include "fl/federated_trainer.h"
#include "fl/run_state.h"
#include "nn/checkpoint.h"
#include "nn/losses.h"
#include "nn/parameter.h"
#include "roadnet/generators.h"
#include "traj/generator.h"
#include "traj/workload.h"

namespace lighttr::nn {
namespace {

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

TEST(CheckpointV2, Float32RoundTrips) {
  const ParameterSet original = MakeParams();
  ParameterSet restored = MakeParams(0.0);
  ASSERT_TRUE(
      ParseCheckpoint(SerializeCheckpoint(original), &restored).ok());
  ExpectParamsEqual(original, restored, 1e-6);
}

TEST(CheckpointV2, Float64RoundTripsBitwise) {
  const ParameterSet original = MakeParams();
  ParameterSet restored = MakeParams(0.0);
  ASSERT_TRUE(ParseCheckpoint(
                  SerializeCheckpoint(original, CheckpointDtype::kFloat64),
                  &restored)
                  .ok());
  ExpectParamsEqual(original, restored, 0.0);
}

TEST(CheckpointV2, WireFormatBlobsAreNotCheckpoints) {
  // ParameterSet::Serialize ("LTR1", the FL wire format) is not a
  // checkpoint format: only v2 is read.
  const ParameterSet original = MakeParams();
  ParameterSet restored = MakeParams(0.0);
  EXPECT_FALSE(ParseCheckpoint(original.Serialize(), &restored).ok());
}

TEST(CheckpointV2, SaveLoadThroughDiskIsAtomic) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "ckpt_disk").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (std::filesystem::path(dir) / "model.ckpt").string();
  const ParameterSet original = MakeParams();
  ASSERT_TRUE(SaveCheckpoint(RealFileSystemInstance(), path, original).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // temp renamed away
  ParameterSet restored = MakeParams(0.0);
  ASSERT_TRUE(LoadCheckpoint(RealFileSystemInstance(), path, &restored).ok());
  ExpectParamsEqual(original, restored, 1e-6);
}

// --------------------------------------------------------------------
// Mutation battery. Every mutant must yield !ok(), and none may crash.

TEST(CheckpointRobustness, EveryTruncationIsRejected) {
  const std::string blob = SerializeCheckpoint(MakeParams());
  for (size_t keep = 0; keep < blob.size(); keep += 3) {
    ParameterSet victim = MakeParams(2.0);
    EXPECT_FALSE(ParseCheckpoint(blob.substr(0, keep), &victim).ok())
        << "truncation to " << keep << " bytes was accepted";
  }
}

TEST(CheckpointRobustness, SingleByteFlipsAreAlwaysDetected) {
  const std::string blob = SerializeCheckpoint(MakeParams());
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    std::string mutant = blob;
    mutant[pos] = static_cast<char>(mutant[pos] ^ 0x5a);
    ParameterSet victim = MakeParams(2.0);
    EXPECT_FALSE(ParseCheckpoint(mutant, &victim).ok())
        << "byte flip at " << pos << " was accepted";
  }
}

// ~20 deterministic pseudo-random mutants with multi-byte damage,
// mirroring what a fuzzer would feed the loader. Seeded, so failures
// reproduce.
TEST(CheckpointRobustness, RandomMutantsNeverCrashTheLoader) {
  const std::string blob =
      SerializeCheckpoint(MakeParams(), CheckpointDtype::kFloat64);
  lighttr::Rng rng(20240806);
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
    if (mutant == blob) continue;  // the rare identity mutant
    ParameterSet victim = MakeParams(2.0);
    EXPECT_FALSE(ParseCheckpoint(mutant, &victim).ok())
        << "mutant " << mutant_index << " was accepted";
  }
}

// Targeted hostile inputs: each corrupts one structural field and then
// repairs the whole-file CRC so parsing reaches the field validation.
std::string WithFixedCrc(std::string body_without_crc) {
  const uint32_t crc = Crc32(body_without_crc);
  body_without_crc.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return body_without_crc;
}

std::string BodyOf(const std::string& blob) {
  return blob.substr(0, blob.size() - sizeof(uint32_t));
}

TEST(CheckpointRobustness, HostileStructuralFieldsAreRejected) {
  const std::string blob = SerializeCheckpoint(MakeParams());
  struct Mutation {
    const char* label;
    size_t offset;
    uint32_t value;
  };
  // Layout: magic(4) version(4) dtype(1) count(4) name_len(4) ...
  const Mutation mutations[] = {
      {"version 99", 4, 99u},
      {"count 0", 9, 0u},
      {"count huge", 9, 0x7fffffffu},
      {"name_len huge", 13, 0xffffff00u},
      {"name_len past end", 13, 1u << 20},
  };
  for (const Mutation& m : mutations) {
    std::string body = BodyOf(blob);
    ASSERT_LE(m.offset + sizeof(uint32_t), body.size());
    std::memcpy(body.data() + m.offset, &m.value, sizeof(m.value));
    ParameterSet victim = MakeParams(2.0);
    EXPECT_FALSE(ParseCheckpoint(WithFixedCrc(body), &victim).ok()) << m.label;
  }

  // Unknown dtype byte (offset 8).
  std::string body = BodyOf(blob);
  body[8] = static_cast<char>(7);
  ParameterSet victim = MakeParams(2.0);
  EXPECT_FALSE(ParseCheckpoint(WithFixedCrc(body), &victim).ok());

  // Trailing garbage with a repaired CRC.
  ParameterSet victim2 = MakeParams(2.0);
  EXPECT_FALSE(
      ParseCheckpoint(WithFixedCrc(BodyOf(blob) + "extra"), &victim2).ok());
}

TEST(CheckpointRobustness, NonFinitePayloadIsRejected) {
  ParameterSet poisoned = MakeParams();
  std::vector<Scalar> flat = poisoned.Flatten();
  flat[2] = std::numeric_limits<Scalar>::quiet_NaN();
  poisoned.AssignFlat(flat);
  const std::string blob =
      SerializeCheckpoint(poisoned, CheckpointDtype::kFloat64);
  ParameterSet victim = MakeParams(2.0);
  const Status status = ParseCheckpoint(blob, &victim);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("non-finite"), std::string::npos);
}

TEST(CheckpointRobustness, InfinitePayloadIsRejected) {
  for (const Scalar poison : {std::numeric_limits<Scalar>::infinity(),
                              -std::numeric_limits<Scalar>::infinity()}) {
    ParameterSet poisoned = MakeParams();
    std::vector<Scalar> flat = poisoned.Flatten();
    flat.back() = poison;
    poisoned.AssignFlat(flat);
    for (const CheckpointDtype dtype :
         {CheckpointDtype::kFloat32, CheckpointDtype::kFloat64}) {
      ParameterSet victim = MakeParams(2.0);
      const Status status =
          ParseCheckpoint(SerializeCheckpoint(poisoned, dtype), &victim);
      EXPECT_FALSE(status.ok());
      EXPECT_NE(status.message().find("non-finite"), std::string::npos);
    }
  }
}

TEST(CheckpointRobustness, WrongArchitectureIsRejectedNotLoaded) {
  const std::string blob = SerializeCheckpoint(MakeParams());

  ParameterSet fewer;
  fewer.Register("encoder.w1", Tensor::Variable(Matrix(2, 3)));
  EXPECT_FALSE(ParseCheckpoint(blob, &fewer).ok());  // count mismatch

  ParameterSet renamed;
  renamed.Register("encoder.w1", Tensor::Variable(Matrix(2, 3)));
  renamed.Register("decoder.w2", Tensor::Variable(Matrix(1, 4)));
  renamed.Register("head.bias", Tensor::Variable(Matrix(1, 1)));
  EXPECT_FALSE(ParseCheckpoint(blob, &renamed).ok());  // name mismatch

  ParameterSet reshaped;
  reshaped.Register("encoder.w1", Tensor::Variable(Matrix(3, 2)));
  reshaped.Register("encoder.w2", Tensor::Variable(Matrix(1, 4)));
  reshaped.Register("head.bias", Tensor::Variable(Matrix(1, 1)));
  EXPECT_FALSE(ParseCheckpoint(blob, &reshaped).ok());  // shape mismatch
}

TEST(CheckpointRobustness, EmptyAndTinyInputsAreRejected) {
  for (const std::string& input :
       {std::string(), std::string("L"), std::string("LTC2"),
        std::string("LTC2\0\0\0\0", 8), std::string(3, '\xff')}) {
    ParameterSet victim = MakeParams(2.0);
    EXPECT_FALSE(ParseCheckpoint(input, &victim).ok());
  }
}

// --------------------------------------------------------------------
// Poisoned run-state snapshots. These mutants keep every container CRC
// valid — only the payload carries NaN/Inf or a malformed healing tail —
// so the rejection has to come from payload validation, not checksums.
// ResumeFrom must warn and fall back to the previous snapshot, exactly
// as it does for file-level corruption, and must never install a
// non-finite global model.

class SnapshotStubModel : public fl::RecoveryModel {
 public:
  explicit SnapshotStubModel(Rng* rng) {
    w_ = Tensor::Variable(
        Matrix::Full(1, 1, rng != nullptr ? rng->Uniform(-1, 1) : 0.0));
    params_.Register("w", w_);
  }

  const std::string& name() const override { return name_; }
  ParameterSet& params() override { return params_; }

  fl::ForwardResult Forward(const traj::IncompleteTrajectory& trajectory,
                            bool /*training*/, Rng* /*rng*/) override {
    Matrix target(1, 1);
    target(0, 0) = static_cast<Scalar>(trajectory.ground_truth.driver_id);
    fl::ForwardResult result;
    result.loss = MseLoss(w_, target);
    result.representation = w_;
    return result;
  }

  std::vector<roadnet::PointPosition> Recover(
      const traj::IncompleteTrajectory& trajectory) override {
    return std::vector<roadnet::PointPosition>(trajectory.size(),
                                               roadnet::PointPosition{0, 0.0});
  }

 private:
  std::string name_ = "Stub";
  ParameterSet params_;
  Tensor w_;
};

std::unique_ptr<fl::RecoveryModel> MakeSnapshotStub(Rng* rng) {
  return std::make_unique<SnapshotStubModel>(rng);
}

std::vector<traj::ClientDataset> MakeFederatedClients(int n, uint64_t seed) {
  Rng rng(seed);
  roadnet::CityGridOptions options;
  options.rows = 6;
  options.cols = 6;
  static roadnet::RoadNetwork net = roadnet::GenerateCityGrid(options, &rng);
  traj::WorkloadProfile profile = traj::TdriveLikeProfile();
  profile.trajectories_per_client = 6;
  traj::FederatedWorkloadOptions workload;
  workload.num_clients = n;
  return traj::GenerateFederatedWorkload(net, profile, workload, &rng);
}

std::string FreshDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / name).generic_string();
  std::filesystem::remove_all(dir);
  return dir;
}

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
// checkpoint whose single weight is `poison`. SaveRunState re-signs the
// container, so every CRC stays valid.
void PoisonSnapshotModel(const std::string& dir, int round, Scalar poison) {
  const std::string path = fl::SnapshotPath(dir, round);
  Result<fl::ServerRunState> loaded =
      fl::LoadRunState(RealFileSystemInstance(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  fl::ServerRunState state = loaded.value();
  ParameterSet poisoned;
  poisoned.Register("w", Tensor::Variable(Matrix::Full(1, 1, poison)));
  state.global_params_blob =
      SerializeCheckpoint(poisoned, CheckpointDtype::kFloat64);
  ASSERT_TRUE(fl::SaveRunState(RealFileSystemInstance(), path, state).ok());
}

TEST(SnapshotRobustness, NonFinitePoisonedSnapshotFallsBackToPrevious) {
  auto clients = MakeFederatedClients(4, 63);
  fl::FederatedTrainerOptions baseline_options;
  baseline_options.rounds = 6;
  baseline_options.local_epochs = 2;
  baseline_options.learning_rate = 0.05;
  fl::FederatedTrainer baseline(MakeSnapshotStub, &clients, baseline_options);
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
      fl::FederatedTrainer first(MakeSnapshotStub, &clients, options);
      first.Run();
    }
    PoisonSnapshotModel(options.durability.dir, 6, c.poison);

    options.durability.resume = true;
    fl::FederatedTrainer resumed(MakeSnapshotStub, &clients, options);
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
  // resume reports an error instead of loading a non-finite model.
  Result<std::vector<int>> rounds =
      fl::ListSnapshotRounds(RealFileSystemInstance(), last_dir);
  ASSERT_TRUE(rounds.ok());
  for (int round : rounds.value()) {
    PoisonSnapshotModel(last_dir, round,
                        std::numeric_limits<Scalar>::quiet_NaN());
  }
  fl::FederatedTrainerOptions options = SnapshotOptions(last_dir);
  fl::FederatedTrainer stranded(MakeSnapshotStub, &clients, options);
  EXPECT_FALSE(stranded.ResumeFrom(last_dir).ok());
  EXPECT_EQ(stranded.resumed_round(), 0);
  for (const Scalar v : stranded.global_model()->params().Flatten()) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

// The healing state gets the same treatment: a snapshot whose monitor
// or reputation blob fails validation is rejected as a whole, falling
// back one snapshot per damaged tail.
TEST(SnapshotRobustness, CorruptHealingTailFallsBackToPrevious) {
  auto clients = MakeFederatedClients(4, 65);
  fl::FederatedTrainerOptions options = SnapshotOptions(FreshDir("poison_tail"));
  options.healing.enabled = true;
  {
    fl::FederatedTrainer first(MakeSnapshotStub, &clients, options);
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
  fl::FederatedTrainer resumed(MakeSnapshotStub, &clients, options);
  ASSERT_TRUE(resumed.ResumeFrom(options.durability.dir).ok());
  EXPECT_EQ(resumed.resumed_round(), 4);
}

}  // namespace
}  // namespace lighttr::nn
