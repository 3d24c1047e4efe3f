// End-to-end LightTR training pipeline: teacher pre-training
// (Algorithm 1) followed by meta-knowledge enhanced federated training
// (Algorithms 2 + 3). This is the main entry point of the library.
#ifndef LIGHTTR_LIGHTTR_PIPELINE_H_
#define LIGHTTR_LIGHTTR_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "fl/federated_trainer.h"
#include "lighttr/meta_local_update.h"
#include "lighttr/teacher_training.h"
#include "traj/encoding.h"
#include "traj/workload.h"

namespace lighttr::core {

/// All knobs of a LightTR run. Every model is the default LTE
/// configuration, as baselines::MakeFactory(kLightTr) builds it.
struct LightTrOptions {
  TeacherTrainingOptions teacher;
  MetaLocalOptions meta;
  fl::FederatedTrainerOptions federated;
  bool use_teacher = true;  // false -> w/o_Meta ablation (plain FedAvg)
};

/// One-line human-readable resilience summary of a federated run, e.g.
/// "cohort 87% | drops 12 (retries 9) | stragglers 3 | rejected 2 |
/// quorum misses 0". Benches and examples print this next to accuracy.
std::string SummarizeResilience(const fl::FederatedRunResult& run);

/// Orchestrates a full LightTR training run over decentralized client
/// datasets.
///
/// Example:
///   traj::TrajectoryEncoder encoder(network, index);
///   core::LightTrPipeline pipeline(&encoder, &clients, options);
///   fl::FederatedRunResult result = pipeline.Train();
///   auto recovered = pipeline.global_model()->Recover(trajectory);
class LightTrPipeline {
 public:
  /// `encoder` and `clients` must outlive the pipeline.
  LightTrPipeline(const traj::TrajectoryEncoder* encoder,
                  const std::vector<traj::ClientDataset>* clients,
                  LightTrOptions options);

  /// Runs Algorithm 1 then Algorithms 2+3.
  fl::FederatedRunResult Train();

  /// The aggregated global model (valid after Train()).
  fl::RecoveryModel* global_model() { return trainer_->global_model(); }

  /// The common teacher (null when use_teacher is false or before
  /// Train()).
  fl::RecoveryModel* teacher() { return teacher_.get(); }

 private:
  const traj::TrajectoryEncoder* encoder_;
  const std::vector<traj::ClientDataset>* clients_;
  LightTrOptions options_;
  fl::ModelFactory factory_;
  std::unique_ptr<fl::RecoveryModel> teacher_;
  std::unique_ptr<fl::FederatedTrainer> trainer_;
};

}  // namespace lighttr::core

#endif  // LIGHTTR_LIGHTTR_PIPELINE_H_
