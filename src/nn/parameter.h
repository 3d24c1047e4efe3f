// Parameter registry: named trainable tensors with flattening and
// (de)serialization — the unit of exchange in federated aggregation.
//
// One blob codec serves every copy of the parameters: the float32 blob
// is the FL wire format (pull replies), the float64 blob is the global
// model inside fl/run_state snapshots. The blob carries no checksum of
// its own; the frame CRC on the wire and the snapshot CRC on disk
// cover it.
#ifndef LIGHTTR_NN_PARAMETER_H_
#define LIGHTTR_NN_PARAMETER_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "nn/tensor.h"

namespace lighttr::nn {

/// Element width of a Serialize() blob. Float32 is the wire format, so
/// communication byte counts are realistic; float64 keeps every Scalar
/// bit, which a resumed run needs to stay bitwise-identical to an
/// uninterrupted one.
enum class BlobPrecision { kFloat32, kFloat64 };

/// An ordered collection of named parameters (trainable leaf tensors).
///
/// Models register their parameters at construction; the FL layer uses
/// Flatten/AssignFlat to average models, and Serialize/Deserialize to
/// move or persist them (see BlobPrecision).
class ParameterSet {
 public:
  ParameterSet() = default;

  /// Registers a parameter under a unique name. The tensor must be a
  /// gradient-requiring leaf (created via Tensor::Variable).
  void Register(std::string name, Tensor tensor);

  size_t size() const { return items_.size(); }
  const std::string& name(size_t i) const { return items_[i].first; }
  const Tensor& tensor(size_t i) const { return items_[i].second; }

  /// Finds a parameter by name; CHECK-fails when missing.
  const Tensor& Get(const std::string& name) const;

  /// Total number of scalar weights.
  int64_t NumScalars() const;

  /// Copies all parameter values into one contiguous vector.
  std::vector<Scalar> Flatten() const;

  /// Writes `flat` back into the parameters (inverse of Flatten).
  void AssignFlat(const std::vector<Scalar>& flat);

  /// Zeroes every parameter gradient.
  void ZeroGrads();

  /// Serializes names, shapes, and values at `precision`; the magic
  /// records the width.
  std::string Serialize(BlobPrecision precision = BlobPrecision::kFloat32) const;

  /// Restores values from Serialize() output of either precision. The
  /// parameter names and shapes must match this set exactly. Values are
  /// written as they are read, so a rejected blob may leave the set
  /// partially overwritten.
  [[nodiscard]] Status Deserialize(const std::string& bytes);

 private:
  std::vector<std::pair<std::string, Tensor>> items_;
};

}  // namespace lighttr::nn

#endif  // LIGHTTR_NN_PARAMETER_H_
