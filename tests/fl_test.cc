// Tests for the federated substrate: local training, FedAvg rounds,
// client sampling, communication accounting, and cyclic exchange.
#include <gtest/gtest.h>

#include <memory>

#include "chaos/stub_federation.h"
#include "fl/compression.h"
#include "fl/cyclic_trainer.h"
#include "fl/federated_trainer.h"
#include "fl/local_trainer.h"
#include "fl/transport/wire.h"
#include "nn/ops.h"
#include "traj/downsample.h"

namespace lighttr::fl {
namespace {

using chaos::MakeClients;
using chaos::StubModel;

TEST(TrainLocal, ReducesLossOnStub) {
  auto clients = MakeClients(1, 1);
  Rng rng(2);
  StubModel model(&rng);
  nn::AdamOptimizer optimizer(0.05);
  LocalTrainOptions options;
  options.epochs = 1;
  Rng train_rng(3);
  const double first =
      TrainLocal(&model, &optimizer, clients[0].train, options, &train_rng);
  options.epochs = 20;
  const double later =
      TrainLocal(&model, &optimizer, clients[0].train, options, &train_rng);
  EXPECT_LT(later, first);
}

TEST(TrainLocal, DistillationPullsTowardTeacher) {
  auto clients = MakeClients(1, 4);
  Rng rng(5);
  StubModel student(&rng);
  StubModel teacher(nullptr);
  // Teacher fixed at w = driver_id, i.e., already optimal.
  teacher.params().AssignFlat(
      {static_cast<nn::Scalar>(clients[0].train[0].ground_truth.driver_id)});

  nn::AdamOptimizer optimizer(0.05);
  LocalTrainOptions options;
  options.epochs = 30;
  options.teacher = &teacher;
  options.lambda = 10.0;
  Rng train_rng(6);
  TrainLocal(&student, &optimizer, clients[0].train, options, &train_rng);
  EXPECT_NEAR(student.weight(), teacher.weight(), 0.2);
}

TEST(EvaluateSegmentAccuracy, CountsOnlyMissingPoints) {
  auto clients = MakeClients(1, 7);
  Rng rng(8);
  StubModel model(&rng);
  // The stub predicts segment 0 everywhere; accuracy equals the share
  // of missing points whose truth is segment 0.
  int64_t missing = 0;
  int64_t zeros = 0;
  for (const auto& t : clients[0].test) {
    for (size_t i = 0; i < t.size(); ++i) {
      if (t.observed[i]) continue;
      ++missing;
      zeros += t.ground_truth.points[i].position.segment == 0 ? 1 : 0;
    }
  }
  const double accuracy = EvaluateSegmentAccuracy(&model, clients[0].test);
  ASSERT_GT(missing, 0);
  EXPECT_NEAR(accuracy, static_cast<double>(zeros) / missing, 1e-12);
}

TEST(FederatedTrainer, AggregatesTowardClientMean) {
  // Each client pulls w toward its driver_id (= client index); FedAvg
  // must land near the mean of the client targets.
  auto clients = MakeClients(4, 9);
  FederatedTrainerOptions options;
  options.rounds = 30;
  options.local_epochs = 2;
  options.learning_rate = 0.05;
  FederatedTrainer trainer(
      [](Rng* rng) { return std::make_unique<StubModel>(rng); }, &clients,
      options);
  trainer.Run();
  auto* global = dynamic_cast<StubModel*>(trainer.global_model());
  ASSERT_NE(global, nullptr);
  EXPECT_NEAR(global->weight(), (0 + 1 + 2 + 3) / 4.0, 0.3);
}

TEST(FederatedTrainer, CommAccountingMeasuresEncodedFrames) {
  // Comm stats are measured from the bytes actually put on the wire:
  // four frames per contact (pull request, pull reply, update push, push
  // ack), each sized by the encoder.
  auto clients = MakeClients(5, 10);
  FederatedTrainerOptions options;
  options.rounds = 3;
  options.local_epochs = 1;
  options.client_fraction = 0.6;  // -> 3 of 5 clients per round
  FederatedTrainer trainer(
      [](Rng* rng) { return std::make_unique<StubModel>(rng); }, &clients,
      options);
  const FederatedRunResult result = trainer.Run();

  const int64_t contacts = 3 * 3;
  using namespace lighttr::fl::transport;  // NOLINT
  ModelPullRequest req;
  const auto pull_request_frame =
      EncodeFrame(FrameType::kModelPullRequest, EncodeModelPullRequest(req));
  ModelPullReply reply;
  reply.model_blob = trainer.global_model()->params().Serialize();
  const auto pull_reply_frame =
      EncodeFrame(FrameType::kModelPullReply, EncodeModelPullReply(reply));
  UpdatePush push;
  push.kind = PayloadKind::kRawF64;
  push.raw.assign(
      static_cast<size_t>(trainer.global_model()->params().NumScalars()), 0.0);
  const auto push_frame =
      EncodeFrame(FrameType::kUpdatePush, EncodeUpdatePush(push));
  PushAck ack;
  const auto ack_frame = EncodeFrame(FrameType::kPushAck, EncodePushAck(ack));

  EXPECT_EQ(result.comm.rounds, 3);
  EXPECT_EQ(result.history.size(), 3u);
  EXPECT_EQ(result.comm.messages, contacts * 4);
  EXPECT_EQ(result.comm.bytes_uplink,
            contacts * static_cast<int64_t>(pull_request_frame.size() +
                                            push_frame.size()));
  EXPECT_EQ(result.comm.bytes_downlink,
            contacts * static_cast<int64_t>(pull_reply_frame.size() +
                                            ack_frame.size()));
  // A clean channel produces no network-layer incidents.
  EXPECT_EQ(result.faults[kNetRetries], 0);
  EXPECT_EQ(result.faults[kNetTimeouts], 0);
  EXPECT_EQ(result.faults[kNetCrcDrops], 0);
  EXPECT_EQ(result.faults[kNetDedupDrops], 0);
  EXPECT_EQ(result.faults[kNetLost], 0);
}

TEST(FederatedTrainer, TransportIsAFaithfulPipe) {
  // One kMean round over two clients: the server must aggregate exactly
  // what the clients trained, so the new global model is (c0 + c1) * 0.5
  // bitwise (with two terms, summation order cannot matter). Quantized
  // uploads arrive as exactly DequantizeFlat(QuantizeFlat(c)): the wire
  // carries the int8 codes and the f64 min/max unchanged.
  for (const bool quantize : {false, true}) {
    SCOPED_TRACE(quantize ? "quantized" : "raw");
    auto clients = MakeClients(2, 21);
    FederatedTrainerOptions options;
    options.rounds = 1;
    options.local_epochs = 1;
    options.quantize_uploads = quantize;
    FederatedTrainer trainer(
        [](Rng* rng) { return std::make_unique<StubModel>(rng, 16); },
        &clients, options);
    trainer.Run();
    std::vector<std::vector<nn::Scalar>> sent;
    for (int i = 0; i < 2; ++i) {
      const std::vector<nn::Scalar> c =
          trainer.client_model(i)->params().Flatten();
      sent.push_back(quantize ? DequantizeFlat(QuantizeFlat(c)) : c);
      // The quantized case must actually be lossy to prove anything.
      EXPECT_EQ(sent.back() == c, !quantize);
    }
    const std::vector<nn::Scalar> global =
        trainer.global_model()->params().Flatten();
    ASSERT_EQ(global.size(), 16u);
    for (size_t i = 0; i < global.size(); ++i) {
      EXPECT_EQ(global[i], (sent[0][i] + sent[1][i]) * 0.5) << "index " << i;
    }
  }
}

TEST(FederatedTrainer, FractionOneUsesAllClients) {
  auto clients = MakeClients(3, 11);
  FederatedTrainerOptions options;
  options.rounds = 1;
  FederatedTrainer trainer(
      [](Rng* rng) { return std::make_unique<StubModel>(rng); }, &clients,
      options);
  const FederatedRunResult result = trainer.Run();
  // Four transport frames (pull request/reply, push, ack) per contact.
  EXPECT_EQ(result.comm.messages, 3 * 4);
}

TEST(FederatedTrainer, FaultFreeRunHasCleanTelemetry) {
  auto clients = MakeClients(4, 13);
  FederatedTrainerOptions options;
  options.rounds = 2;
  options.local_epochs = 1;
  FederatedTrainer trainer(
      [](Rng* rng) { return std::make_unique<StubModel>(rng); }, &clients,
      options);
  const FederatedRunResult result = trainer.Run();
  EXPECT_EQ(result.faults[kDrops], 0);
  EXPECT_EQ(result.faults[kRetries], 0);
  EXPECT_EQ(result.faults[kStragglers], 0);
  EXPECT_EQ(result.faults[kRejectedUploads], 0);
  EXPECT_EQ(result.faults[kQuorumMisses], 0);
  EXPECT_DOUBLE_EQ(result.faults.MeanCohortFraction(), 1.0);
  for (const RoundRecord& record : result.history) {
    EXPECT_EQ(record[kSampled], 4);
    EXPECT_EQ(record[kReporting], 4);
    EXPECT_TRUE(record.quorum_met);
  }
}

TEST(FederatedTrainer, DroppedOutClientsPutNoFramesOnTheWire) {
  // A dropped-out client never initiates its pull, so however many
  // contact attempts the server makes, nothing crosses the wire.
  auto clients = MakeClients(2, 14);
  FederatedTrainerOptions options;
  options.rounds = 1;
  options.local_epochs = 1;
  options.faults.dropout_rate = 1.0;
  options.tolerance.retry.max_retries = 2;
  FederatedTrainer trainer(
      [](Rng* rng) { return std::make_unique<StubModel>(rng); }, &clients,
      options);
  const FederatedRunResult result = trainer.Run();
  EXPECT_EQ(result.comm.messages, 0);
  EXPECT_EQ(result.comm.bytes_downlink, 0);
  EXPECT_EQ(result.comm.bytes_uplink, 0);
  EXPECT_EQ(result.faults[kDrops], 2);
  EXPECT_EQ(result.faults[kRetries], 2 * 2);
}

TEST(FederatedTrainer, ValidationPoolSpansAllClients) {
  // 8 clients x ~2 validation trajectories: the old pool (first <=40
  // from the first clients in order) always ignored later clients; the
  // sampled pool must produce a valid accuracy without crashing even
  // when the pool spans everyone.
  auto clients = MakeClients(8, 15, /*per_client=*/10);
  size_t total_valid = 0;
  for (const auto& client : clients) total_valid += client.valid.size();
  ASSERT_GT(total_valid, 0u);
  FederatedTrainerOptions options;
  options.rounds = 1;
  options.local_epochs = 1;
  FederatedTrainer trainer(
      [](Rng* rng) { return std::make_unique<StubModel>(rng); }, &clients,
      options);
  const FederatedRunResult result = trainer.Run();
  ASSERT_EQ(result.history.size(), 1u);
  EXPECT_GE(result.history[0].global_valid_accuracy, 0.0);
  EXPECT_LE(result.history[0].global_valid_accuracy, 1.0);
}

TEST(CommStats, SimulatedSeconds) {
  CommStats stats;
  stats.bytes_downlink = 1000;
  stats.bytes_uplink = 1000;
  stats.messages = 4;
  EXPECT_NEAR(stats.SimulatedSeconds(/*bytes_per_second=*/1000.0,
                                     /*latency=*/0.5),
              2.0 + 2.0, 1e-12);
}

TEST(CyclicTrainer, PropagatesParametersAroundRing) {
  auto clients = MakeClients(3, 12);
  CyclicTrainerOptions options;
  options.rounds = 2;
  options.local_epochs = 1;
  options.learning_rate = 0.05;
  CyclicExchangeTrainer trainer(
      [](Rng* rng) { return std::make_unique<StubModel>(rng); }, &clients,
      options);
  const CommStats comm = trainer.Run();
  EXPECT_EQ(comm.rounds, 2);
  EXPECT_EQ(comm.messages, 2 * 3);
  ASSERT_NE(trainer.final_model(), nullptr);
  // Every message is one float32 parameter blob.
  EXPECT_EQ(comm.bytes_uplink,
            2 * 3 * static_cast<int64_t>(
                        trainer.final_model()->params().Serialize().size()));
}

}  // namespace
}  // namespace lighttr::fl
