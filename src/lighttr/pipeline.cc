#include "lighttr/pipeline.h"

#include <cstdio>

#include "common/check.h"
#include "lighttr/lte_model.h"

namespace lighttr::core {

std::string SummarizeResilience(const fl::FederatedRunResult& run) {
  const fl::FaultStats& faults = run.faults;
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "cohort %.0f%% | drops %lld (retries %lld) | stragglers %lld"
                " | rejected %lld | clipped %lld | quorum misses %lld",
                faults.MeanCohortFraction() * 100.0,
                static_cast<long long>(faults[fl::kDrops]),
                static_cast<long long>(faults[fl::kRetries]),
                static_cast<long long>(faults[fl::kStragglers]),
                static_cast<long long>(faults[fl::kRejectedUploads]),
                static_cast<long long>(faults[fl::kClippedUploads]),
                static_cast<long long>(faults[fl::kQuorumMisses]));
  return std::string(buffer);
}

LightTrPipeline::LightTrPipeline(
    const traj::TrajectoryEncoder* encoder,
    const std::vector<traj::ClientDataset>* clients, LightTrOptions options)
    : encoder_(encoder), clients_(clients), options_(options) {
  LIGHTTR_CHECK(encoder != nullptr);
  LIGHTTR_CHECK(clients != nullptr);
  const traj::TrajectoryEncoder* enc = encoder_;
  factory_ = [enc](Rng* rng) {
    return std::make_unique<LteModel>(enc, rng);
  };
  trainer_ = std::make_unique<fl::FederatedTrainer>(factory_, clients_,
                                                    options_.federated);
}

fl::FederatedRunResult LightTrPipeline::Train() {
  if (options_.use_teacher) {
    teacher_ = TrainTeacher(factory_, *clients_, options_.teacher);
  }
  MetaLocalOptions meta = options_.meta;
  if (meta.clip_norm <= 0.0) meta.clip_norm = options_.federated.clip_norm;
  MetaLocalUpdate strategy(teacher_.get(), meta);
  return trainer_->Run(options_.use_teacher ? &strategy : nullptr);
}

}  // namespace lighttr::core
