// First-order optimization over ParameterSets: Adam (AdamW-style weight
// decay) behind the Optimizer interface, plus global-norm clipping.
#ifndef LIGHTTR_NN_OPTIMIZER_H_
#define LIGHTTR_NN_OPTIMIZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "nn/parameter.h"

namespace lighttr::nn {

/// Applies accumulated gradients to parameters. Call Step() after
/// Backward(); gradients are zeroed by the optimizer at the end of Step.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Updates every parameter in `params` from its gradient, then zeroes
  /// the gradients.
  virtual void Step(ParameterSet* params) = 0;

  /// Serializes the mutable optimizer state (moment estimates, step
  /// counters) at full Scalar precision for crash-recovery snapshots.
  /// Hyperparameters are NOT included: the restoring side constructs
  /// the optimizer with the same options and then loads the state.
  virtual std::string SerializeState() const = 0;

  /// Restores a blob produced by SerializeState on an optimizer of the
  /// same concrete type. Malformed or mismatched blobs are rejected
  /// with a Status (state may be partially overwritten on failure).
  [[nodiscard]] virtual Status DeserializeState(const std::string& bytes) = 0;
};

/// Adam (Kingma & Ba) with bias correction and optional clipping.
class AdamOptimizer : public Optimizer {
 public:
  explicit AdamOptimizer(Scalar learning_rate, Scalar beta1 = Scalar{0.9},
                         Scalar beta2 = Scalar{0.999},
                         Scalar epsilon = Scalar{1e-8},
                         Scalar clip_norm = Scalar{5},
                         Scalar weight_decay = Scalar{1e-4});

  void Step(ParameterSet* params) override;

  std::string SerializeState() const override;
  [[nodiscard]] Status DeserializeState(const std::string& bytes) override;

 private:
  Scalar learning_rate_;
  Scalar beta1_;
  Scalar beta2_;
  Scalar epsilon_;
  Scalar clip_norm_;
  Scalar weight_decay_;  // decoupled (AdamW-style); 0 disables
  int64_t step_count_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

/// Global-norm gradient clipping: when the L2 norm over ALL parameter
/// gradients in `params` exceeds `max_norm`, every gradient is scaled by
/// max_norm / norm (the standard "clip_grad_norm" rule). A non-finite
/// norm zeroes every gradient (a poisoned step must not reach the
/// optimizer). No-op when max_norm <= 0.
void ClipGradientsByGlobalNorm(ParameterSet* params, Scalar max_norm);

}  // namespace lighttr::nn

#endif  // LIGHTTR_NN_OPTIMIZER_H_
