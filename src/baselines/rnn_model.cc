#include "baselines/rnn_model.h"

#include "common/check.h"
#include "nn/ops.h"

namespace lighttr::baselines {

RnnModel::RnnModel(const traj::TrajectoryEncoder* encoder,
                   const RnnConfig& config, Rng* rng)
    : PerStepModel(encoder, "RNN+FL", config.mu), config_(config) {
  LIGHTTR_CHECK_GE(config_.num_layers, 1u);
  size_t in_dim = traj::TrajectoryEncoder::kFeatureDim;
  for (size_t i = 0; i < config_.num_layers; ++i) {
    layers_.push_back(std::make_unique<nn::GruCell>(
        in_dim, config_.hidden_dim, "gru" + std::to_string(i), &params_,
        rng));
    in_dim = config_.hidden_dim;
  }
  BuildHeads(config_.hidden_dim, rng);
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
      current[t] = nn::Dropout(h, config_.dropout, training, rng);
    }
  }
  std::vector<nn::Tensor> rows;
  rows.reserve(missing.size());
  for (size_t t : missing) rows.push_back(current[t]);
  return rows;
}

}  // namespace lighttr::baselines
