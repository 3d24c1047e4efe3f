// Model checkpointing: persist a ParameterSet to disk and restore it
// into a same-architecture model (deployment / resume path).
//
// Format v2 ("LTC2") is versioned and checksummed: a file header
// (magic, version, dtype, parameter count), one record per parameter
// (name, shape, payload CRC-32, payload), and a trailing whole-file
// CRC-32. The loader detects truncation, bit flips, oversized declared
// lengths, shape/name mismatches, and non-finite payloads, and returns
// a descriptive Status for each instead of crashing or silently loading
// garbage. Only v2 is read; anything else is rejected.
#ifndef LIGHTTR_NN_CHECKPOINT_H_
#define LIGHTTR_NN_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "common/env.h"
#include "common/status.h"
#include "nn/parameter.h"

namespace lighttr::nn {

/// On-disk element type of a v2 checkpoint. Float32 matches the FL wire
/// format (deployment checkpoints); float64 preserves full Scalar
/// precision (crash-recovery snapshots, where the resumed run must be
/// bitwise-identical to an uninterrupted one).
enum class CheckpointDtype : uint8_t {
  kFloat32 = 0,
  kFloat64 = 1,
};

/// Serializes `params` into a v2 checkpoint blob.
std::string SerializeCheckpoint(const ParameterSet& params,
                                CheckpointDtype dtype = CheckpointDtype::kFloat32);

/// Restores `params` from a v2 blob. Names and shapes must match; every
/// integrity violation yields a non-OK Status with the file left out of
/// the model (params may be partially overwritten on failure — reload a
/// known-good checkpoint before use).
[[nodiscard]] Status ParseCheckpoint(const std::string& bytes,
                                     ParameterSet* params);

/// Atomically writes the parameters to `path` through `fs` (pass
/// RealFileSystemInstance() for the real disk).
[[nodiscard]] Status SaveCheckpoint(
    FileSystem* fs, const std::string& path, const ParameterSet& params,
    CheckpointDtype dtype = CheckpointDtype::kFloat32);

/// Restores parameters from `path` through `fs`; names and shapes must
/// match.
[[nodiscard]] Status LoadCheckpoint(FileSystem* fs, const std::string& path,
                                    ParameterSet* params);

}  // namespace lighttr::nn

#endif  // LIGHTTR_NN_CHECKPOINT_H_
