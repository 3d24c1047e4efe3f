// RNN+FL baseline (paper Sec. V-A3): stacked recurrent layers over the
// encoded trajectory with full-vocabulary segment prediction. Captures
// temporal dependencies but lacks the constraint mask and multi-task
// segment-embedding feedback of LightTR.
#ifndef LIGHTTR_BASELINES_RNN_MODEL_H_
#define LIGHTTR_BASELINES_RNN_MODEL_H_

#include <memory>
#include <vector>

#include "baselines/per_step_model.h"
#include "nn/layers.h"
#include "traj/encoding.h"

namespace lighttr::baselines {

/// Stacked-GRU recovery model.
class RnnModel : public PerStepModel {
 public:
  RnnModel(const traj::TrajectoryEncoder* encoder, Rng* rng);

 private:
  std::vector<nn::Tensor> HiddenForMissing(const nn::Tensor& inputs,
                                           const std::vector<size_t>& missing,
                                           bool training,
                                           Rng* rng) const override;

  std::vector<std::unique_ptr<nn::GruCell>> layers_;
};

}  // namespace lighttr::baselines

#endif  // LIGHTTR_BASELINES_RNN_MODEL_H_
