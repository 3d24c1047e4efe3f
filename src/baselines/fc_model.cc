#include "baselines/fc_model.h"

#include "common/check.h"
#include "nn/ops.h"

namespace lighttr::baselines {

FcModel::FcModel(const traj::TrajectoryEncoder* encoder,
                 const FcConfig& config, Rng* rng)
    : PerStepModel(encoder, "FC+FL", config.mu), config_(config) {
  LIGHTTR_CHECK_GE(config_.num_layers, 1u);
  size_t in_dim = traj::TrajectoryEncoder::kFeatureDim;
  for (size_t i = 0; i < config_.num_layers; ++i) {
    layers_.push_back(std::make_unique<nn::Dense>(
        in_dim, config_.hidden_dim, "fc" + std::to_string(i), &params_, rng));
    in_dim = config_.hidden_dim;
  }
  BuildHeads(config_.hidden_dim, rng);
}

std::vector<nn::Tensor> FcModel::HiddenForMissing(
    const nn::Tensor& inputs, const std::vector<size_t>& missing,
    bool training, Rng* rng) const {
  nn::Tensor x = inputs;
  for (const auto& layer : layers_) {
    x = nn::Relu(layer->Forward(x));
    x = nn::Dropout(x, config_.dropout, training, rng);
  }
  std::vector<nn::Tensor> rows;
  rows.reserve(missing.size());
  for (size_t t : missing) rows.push_back(nn::SliceRows(x, t, 1));
  return rows;
}

}  // namespace lighttr::baselines
