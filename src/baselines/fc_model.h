// FC+FL baseline (paper Sec. V-A3): stacked fully-connected layers
// applied per step, with full-vocabulary segment prediction and no
// temporal recurrence — the weakest baseline in Table IV.
#ifndef LIGHTTR_BASELINES_FC_MODEL_H_
#define LIGHTTR_BASELINES_FC_MODEL_H_

#include <memory>
#include <vector>

#include "baselines/per_step_model.h"
#include "nn/layers.h"
#include "traj/encoding.h"

namespace lighttr::baselines {

/// Per-step MLP recovery model (no sequence modeling).
class FcModel : public PerStepModel {
 public:
  FcModel(const traj::TrajectoryEncoder* encoder, Rng* rng);

 private:
  std::vector<nn::Tensor> HiddenForMissing(const nn::Tensor& inputs,
                                           const std::vector<size_t>& missing,
                                           bool training,
                                           Rng* rng) const override;

  std::vector<std::unique_ptr<nn::Dense>> layers_;
};

}  // namespace lighttr::baselines

#endif  // LIGHTTR_BASELINES_FC_MODEL_H_
