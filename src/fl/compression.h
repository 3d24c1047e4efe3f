// Lossy parameter-upload compression (extension): uniform 8-bit
// quantization of the flattened model, cutting per-round communication
// by ~4x versus the float32 wire format. On-theme with the paper's
// communication-cost reduction goal (Challenge II).
#ifndef LIGHTTR_FL_COMPRESSION_H_
#define LIGHTTR_FL_COMPRESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/arena.h"

namespace lighttr::fl {

/// A quantized parameter blob: per-blob affine int8 code book.
struct QuantizedBlob {
  double min_value = 0.0;
  double max_value = 0.0;
  std::vector<uint8_t> codes;
};

/// Quantizes a flattened parameter vector to 8 bits per weight.
QuantizedBlob QuantizeFlat(const std::vector<nn::Scalar>& flat);

/// Reconstructs the (lossy) parameter vector.
std::vector<nn::Scalar> DequantizeFlat(const QuantizedBlob& blob);

/// Max absolute reconstruction error of the blob's code book — half a
/// quantization step.
double QuantizationStep(const QuantizedBlob& blob);

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_COMPRESSION_H_
