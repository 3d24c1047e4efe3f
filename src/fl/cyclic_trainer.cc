#include "fl/cyclic_trainer.h"

#include "common/check.h"
#include "fl/local_trainer.h"

namespace lighttr::fl {

CyclicExchangeTrainer::CyclicExchangeTrainer(
    ModelFactory factory, const std::vector<traj::ClientDataset>* clients,
    CyclicTrainerOptions options)
    : clients_(clients), options_(options), rng_(options.seed) {
  LIGHTTR_CHECK(clients != nullptr);
  LIGHTTR_CHECK(!clients->empty());
  for (size_t i = 0; i < clients->size(); ++i) {
    Rng model_rng = rng_.Fork();
    models_.push_back(factory(&model_rng));
    optimizers_.push_back(std::make_unique<nn::AdamOptimizer>(
        static_cast<nn::Scalar>(options_.learning_rate)));
  }
}

CommStats CyclicExchangeTrainer::Run() {
  CommStats comm;
  const size_t n = models_.size();
  // Each client's train encodings, held for every round of this run.
  std::vector<TrajectoryEncodings> encodings;
  encodings.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    encodings.emplace_back(models_[i]->encoder(), (*clients_)[i].train);
  }
  for (int round = 0; round < options_.rounds; ++round) {
    // Local training on every client.
    for (size_t i = 0; i < n; ++i) {
      LocalTrainOptions local;
      local.epochs = options_.local_epochs;
      Rng update_rng = rng_.Fork();
      TrainLocal(models_[i].get(), optimizers_[i].get(),
                 (*clients_)[i].train, local, &update_rng, &encodings[i]);
    }
    // Ring exchange: client i adopts the parameters client i-1 produced.
    std::vector<std::string> blobs;
    blobs.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      blobs.push_back(models_[i]->params().Serialize());
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t from = (i + n - 1) % n;
      LIGHTTR_CHECK_OK(models_[i]->params().Deserialize(blobs[from]));
      // Peer-to-peer; counted as uplink.
      comm.bytes_uplink += static_cast<int64_t>(blobs[from].size());
      ++comm.messages;
    }
    ++comm.rounds;
  }
  return comm;
}

}  // namespace lighttr::fl
