#include "baselines/fc_model.h"

#include "nn/ops.h"

namespace lighttr::baselines {
namespace {

constexpr size_t kHiddenDim = 64;
constexpr size_t kNumLayers = 2;
constexpr double kDropout = 0.2;

}  // namespace

FcModel::FcModel(const traj::TrajectoryEncoder* encoder, Rng* rng)
    : PerStepModel(encoder, "FC+FL") {
  size_t in_dim = traj::TrajectoryEncoder::kFeatureDim;
  for (size_t i = 0; i < kNumLayers; ++i) {
    layers_.push_back(std::make_unique<nn::Dense>(
        in_dim, kHiddenDim, "fc" + std::to_string(i), &params_, rng));
    in_dim = kHiddenDim;
  }
  BuildHeads(kHiddenDim, rng);
}

std::vector<nn::Tensor> FcModel::HiddenForMissing(
    const nn::Tensor& inputs, const std::vector<size_t>& missing,
    bool training, Rng* rng) const {
  nn::Tensor x = inputs;
  for (const auto& layer : layers_) {
    x = nn::Relu(layer->Forward(x));
    x = nn::Dropout(x, kDropout, training, rng);
  }
  std::vector<nn::Tensor> rows;
  rows.reserve(missing.size());
  for (size_t t : missing) rows.push_back(nn::SliceRows(x, t, 1));
  return rows;
}

}  // namespace lighttr::baselines
