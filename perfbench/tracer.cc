#include "tracer.h"

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lighttr::perfbench {

namespace {

class TracedModel : public fl::RecoveryModel {
 public:
  TracedModel(std::unique_ptr<fl::RecoveryModel> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const std::string& name() const override { return inner_->name(); }
  nn::ParameterSet& params() override { return inner_->params(); }

  fl::ForwardResult Forward(const traj::IncompleteTrajectory& trajectory,
                            bool training, Rng* rng) override {
    Span span(tracer_, Layer::kForward);
    return inner_->Forward(trajectory, training, rng);
  }

  std::vector<roadnet::PointPosition> Recover(
      const traj::IncompleteTrajectory& trajectory) override {
    Span span(tracer_, Layer::kRecover);
    return inner_->Recover(trajectory);
  }

 private:
  std::unique_ptr<fl::RecoveryModel> inner_;
  Tracer* tracer_;
};

class TracedOptimizer : public nn::Optimizer {
 public:
  TracedOptimizer(nn::Optimizer* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void Step(nn::ParameterSet* params) override {
    Span span(tracer_, Layer::kOptimizer);
    inner_->Step(params);
  }
  std::string SerializeState() const override {
    return inner_->SerializeState();
  }
  [[nodiscard]] Status DeserializeState(const std::string& bytes) override {
    return inner_->DeserializeState(bytes);
  }

 private:
  nn::Optimizer* inner_;
  Tracer* tracer_;
};

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Begin(Layer layer) { open_.push_back({layer, NowSeconds(), 0.0}); }

void Tracer::End() {
  const Open span = open_.back();
  open_.pop_back();
  const double elapsed = NowSeconds() - span.start;
  SpanTotals& totals = totals_[static_cast<size_t>(span.layer)];
  totals.seconds += elapsed;
  totals.child_seconds += span.child_seconds;
  ++totals.calls;
  if (!open_.empty()) open_.back().child_seconds += elapsed;
}

fl::ModelFactory TracedFactory(fl::ModelFactory factory, Tracer* tracer) {
  return [factory = std::move(factory),
          tracer](Rng* rng) -> std::unique_ptr<fl::RecoveryModel> {
    return std::make_unique<TracedModel>(factory(rng), tracer);
  };
}

double TracedUpdate::Update(int client_index, fl::RecoveryModel* model,
                            nn::Optimizer* optimizer,
                            const traj::ClientDataset& data, int epochs,
                            Rng* rng) {
  Span span(tracer_, Layer::kLocalUpdate);
  TracedOptimizer traced(optimizer, tracer_);
  return inner_->Update(client_index, model, &traced, data, epochs, rng);
}

}  // namespace lighttr::perfbench
