#include "baselines/model_zoo.h"

#include "baselines/fc_model.h"
#include "baselines/mtrajrec_model.h"
#include "baselines/rnn_model.h"
#include "baselines/rntrajrec_model.h"
#include "common/check.h"
#include "lighttr/lte_model.h"

namespace lighttr::baselines {

std::string ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kFc:
      return "FC+FL";
    case ModelKind::kRnn:
      return "RNN+FL";
    case ModelKind::kMTrajRec:
      return "MTrajRec+FL";
    case ModelKind::kRnTrajRec:
      return "RNTrajRec+FL";
    case ModelKind::kLightTr:
      return "LightTR";
  }
  return "unknown";
}

fl::ModelFactory MakeFactory(ModelKind kind,
                             const traj::TrajectoryEncoder* encoder) {
  LIGHTTR_CHECK(encoder != nullptr);
  switch (kind) {
    case ModelKind::kFc:
      return [encoder](Rng* rng) -> std::unique_ptr<fl::RecoveryModel> {
        return std::make_unique<FcModel>(encoder, rng);
      };
    case ModelKind::kRnn:
      return [encoder](Rng* rng) -> std::unique_ptr<fl::RecoveryModel> {
        return std::make_unique<RnnModel>(encoder, rng);
      };
    case ModelKind::kMTrajRec:
      return [encoder](Rng* rng) -> std::unique_ptr<fl::RecoveryModel> {
        return std::make_unique<MTrajRecModel>(encoder, rng);
      };
    case ModelKind::kRnTrajRec:
      return [encoder](Rng* rng) -> std::unique_ptr<fl::RecoveryModel> {
        return std::make_unique<RnTrajRecModel>(encoder, rng);
      };
    case ModelKind::kLightTr:
      return [encoder](Rng* rng) -> std::unique_ptr<fl::RecoveryModel> {
        return std::make_unique<core::LteModel>(encoder, rng);
      };
  }
  LIGHTTR_CHECK(false && "unreachable");
  return nullptr;
}

}  // namespace lighttr::baselines
