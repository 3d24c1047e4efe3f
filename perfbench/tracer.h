// Spans for the benchmark's traced runs, recorded from the benchmark's
// own code around each call it makes (or lets the library make) into a
// layer. The library itself is not instrumented: decorators wrap the
// library's extension points (model factory, local-update strategy,
// optimizer) and forward every call unchanged, so a traced run computes
// bitwise the same results as an untraced one.
#ifndef LIGHTTR_PERFBENCH_TRACER_H_
#define LIGHTTR_PERFBENCH_TRACER_H_

#include <array>
#include <cstdint>
#include <vector>

#include "fl/federated_trainer.h"
#include "fl/recovery_model.h"
#include "nn/optimizer.h"

namespace lighttr::perfbench {

/// Monotonic wall-clock seconds.
double NowSeconds();

/// The span kinds: one per layer boundary the benchmark can observe.
enum class Layer : int {
  kForward = 0,  // RecoveryModel::Forward (encoding + loss graph)
  kRecover,      // RecoveryModel::Recover (encoding + greedy decode)
  kLocalUpdate,  // LocalUpdateStrategy::Update (one client, one round)
  kOptimizer,    // Optimizer::Step inside a local update
  kFederated,    // FederatedTrainer::Run (all rounds of one job)
  kEncode,       // encoder probe: inputs + targets + candidates
  kNearby,       // segment-index probe: one radius query
  kRoute,        // route-interpolation probe: one missing step
  kCount,
};

/// Accumulated time of one span kind. `child_seconds` is the part of
/// `seconds` covered by spans opened inside it, so self time is
/// seconds - child_seconds.
struct SpanTotals {
  double seconds = 0.0;
  double child_seconds = 0.0;
  int64_t calls = 0;

  double SelfSeconds() const { return seconds - child_seconds; }
};

/// Keeps the open-span stack and per-kind totals in memory. Single
/// threaded: the benchmark runs the trainer with one executor.
class Tracer {
 public:
  void Begin(Layer layer);
  void End();
  const SpanTotals& totals(Layer layer) const {
    return totals_[static_cast<size_t>(layer)];
  }

 private:
  struct Open {
    Layer layer;
    double start;
    double child_seconds;
  };
  std::vector<Open> open_;
  std::array<SpanTotals, static_cast<size_t>(Layer::kCount)> totals_{};
};

/// Scoped span.
class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) {
    tracer_->Begin(layer);
  }
  ~Span() { tracer_->End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Wraps `factory` so every model it builds records kForward/kRecover
/// spans.
fl::ModelFactory TracedFactory(fl::ModelFactory factory, Tracer* tracer);

/// Wraps a local-update strategy: records a kLocalUpdate span per call
/// and hands the strategy an optimizer that records kOptimizer spans.
class TracedUpdate : public fl::LocalUpdateStrategy {
 public:
  TracedUpdate(fl::LocalUpdateStrategy* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  double Update(int client_index, fl::RecoveryModel* model,
                nn::Optimizer* optimizer, const traj::ClientDataset& data,
                int epochs, Rng* rng) override;

 private:
  fl::LocalUpdateStrategy* inner_;
  Tracer* tracer_;
};

}  // namespace lighttr::perfbench

#endif  // LIGHTTR_PERFBENCH_TRACER_H_
