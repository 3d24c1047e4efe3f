#include "baselines/rnn_model.h"

#include "nn/ops.h"

namespace lighttr::baselines {
namespace {

constexpr size_t kHiddenDim = 32;
constexpr size_t kNumLayers = 2;
constexpr double kDropout = 0.2;

}  // namespace

RnnModel::RnnModel(const traj::TrajectoryEncoder* encoder, Rng* rng)
    : PerStepModel(encoder, "RNN+FL") {
  size_t in_dim = traj::TrajectoryEncoder::kFeatureDim;
  for (size_t i = 0; i < kNumLayers; ++i) {
    layers_.push_back(std::make_unique<nn::GruCell>(
        in_dim, kHiddenDim, "gru" + std::to_string(i), &params_, rng));
    in_dim = kHiddenDim;
  }
  BuildHeads(kHiddenDim, rng);
}

std::vector<nn::Tensor> RnnModel::HiddenForMissing(
    const nn::Tensor& inputs, const std::vector<size_t>& missing,
    bool training, Rng* rng) const {
  const size_t steps = inputs.rows();

  // Layer-by-layer unroll.
  std::vector<nn::Tensor> current;
  current.reserve(steps);
  for (size_t t = 0; t < steps; ++t) {
    current.push_back(nn::SliceRows(inputs, t, 1));
  }
  for (const auto& layer : layers_) {
    nn::Tensor h = layer->InitialState();
    for (size_t t = 0; t < steps; ++t) {
      h = layer->Forward(current[t], h);
      current[t] = nn::Dropout(h, kDropout, training, rng);
    }
  }
  std::vector<nn::Tensor> rows;
  rows.reserve(missing.size());
  for (size_t t : missing) rows.push_back(current[t]);
  return rows;
}

}  // namespace lighttr::baselines
