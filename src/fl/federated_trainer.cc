#include "fl/federated_trainer.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/env.h"
#include "common/finite.h"
#include "common/stopwatch.h"
#include "fl/compression.h"
#include "fl/local_trainer.h"
#include "fl/transport/link.h"

namespace lighttr::fl {

namespace {

// How one sampled client's round ended, decided once by its pool task.
// With the quarantine skips, the fates partition the sampled cohort:
// each lands in exactly one RoundRecord column.
enum class ClientFate {
  kDropped,       // retries exhausted before contact (drops)
  kPullLost,      // link died before the model arrived (net_lost)
  kPushLost,      // trained, link died under the upload (net_lost)
  kStraggler,     // trained, missed the round deadline (stragglers)
  kCorrupt,       // screened out: non-finite scalars (rejected_uploads)
  kNormRejected,  // screened out: delta-norm bound (rejected_uploads)
  kReported,      // screened in: enters aggregation (reporting)
};

// One sampled client's round. Its streams are forked on the coordinating
// thread in canonical selection order BEFORE any task runs: the stream a
// client consumes depends only on its position in the selection, never
// on which executor runs it or when. Exactly one task then writes the
// outcome, and the coordinating thread folds the records in selection
// order, so every floating-point accumulation has a fixed order
// regardless of thread count.
struct ClientRound {
  size_t client_index = 0;
  Rng update_rng{0};  // local-update stream (always forked)
  Rng noise_rng{0};   // privacy stream (forked only when privacy is on)
  Rng fault_rng{0};   // dropout/backoff/corruption (only when injecting)
  Rng net_rng{0};     // channel faults (only when the transport can fault)
  Rng adv_rng{0};     // poison jitter (only for attackers in attack rounds)
  bool poison = false;  // this client is an active attacker
  // The client's run-long train + valid encodings. A client appears at
  // most once per round, so only this task touches them this round.
  ClientEncodings* encodings = nullptr;

  ClientFate fate = ClientFate::kDropped;
  bool clipped = false;   // upload was norm-clipped by screening
  bool poisoned = false;  // upload rewritten by the injected adversary
  int retries = 0;
  double backoff_s = 0.0;
  double loss = 0.0;          // valid when trained()
  double delta_norm = 0.0;    // L2 delta of a reported upload
  transport::LinkStats link;  // exact frame accounting
  std::vector<nn::Scalar> upload;  // valid when reported

  // Ran the local update: the model pull succeeded.
  bool trained() const {
    return fate != ClientFate::kDropped && fate != ClientFate::kPullLost;
  }
};

// Copies the CounterScope::kLifetime totals (healing and storage) from
// `from` into `to`, leaving every other field of `to` alone.
void CopyLifetimeCounters(const FaultStats& from, FaultStats* to) {
  for (const CounterSpec& counter : kCounters) {
    if (counter.scope == CounterScope::kLifetime) {
      (*to)[counter.id] = from[counter.id];
    }
  }
}

}  // namespace

double PlainLocalUpdate::Update(int client_index, RecoveryModel* model,
                                nn::Optimizer* optimizer,
                                const traj::ClientDataset& data, int epochs,
                                Rng* rng) {
  return UpdateEncoded(client_index, model, optimizer, data, nullptr, epochs,
                       rng);
}

double PlainLocalUpdate::UpdateEncoded(int /*client_index*/,
                                       RecoveryModel* model,
                                       nn::Optimizer* optimizer,
                                       const traj::ClientDataset& data,
                                       ClientEncodings* encodings, int epochs,
                                       Rng* rng) {
  LocalTrainOptions options;
  options.epochs = epochs;
  options.clip_norm = clip_norm_;
  return TrainLocal(model, optimizer, data.train, options, rng,
                    encodings != nullptr ? &encodings->train : nullptr);
}

FederatedTrainer::FederatedTrainer(
    ModelFactory factory, const std::vector<traj::ClientDataset>* clients,
    FederatedTrainerOptions options)
    : clients_(clients),
      options_(options),
      pool_(ResolveThreadCount(options.threads)),
      rng_(options.seed),
      fault_rng_(0),
      valid_rng_(0),
      net_rng_(options.transport.channel_seed) {
  LIGHTTR_CHECK(clients != nullptr);
  LIGHTTR_CHECK(!clients->empty());
  LIGHTTR_CHECK_GT(options_.client_fraction, 0.0);
  LIGHTTR_CHECK_LE(options_.client_fraction, 1.0);
  LIGHTTR_CHECK_GE(options_.rounds, 1);
  LIGHTTR_CHECK_GE(options_.local_epochs, 1);
  LIGHTTR_CHECK_GE(options_.tolerance.quorum_fraction, 0.0);
  LIGHTTR_CHECK_LE(options_.tolerance.quorum_fraction, 1.0);
  LIGHTTR_CHECK_GE(options_.tolerance.retry.max_retries, 0);
  LIGHTTR_CHECK_GE(options_.durability.snapshot_every, 1);
  LIGHTTR_CHECK_GE(options_.durability.keep_snapshots, 1);
  LIGHTTR_CHECK_GE(options_.healing.max_rollbacks, 0);
  LIGHTTR_CHECK_GE(options_.clip_norm, 0.0);
  if (options_.healing.enabled) {
    book_ = std::make_unique<ReputationBook>(static_cast<int>(clients->size()),
                                             options_.healing.reputation);
  }
  if (options_.adversary.Enabled()) {
    LIGHTTR_CHECK_LE(options_.adversary.num_attackers,
                     static_cast<int>(clients->size()));
    // Own stream from its own seed (like net_rng_): arming the attack
    // never perturbs honest init, sampling, or local-training draws.
    adversary_ = std::make_unique<AdversaryEngine>(options_.adversary);
  }

  Rng init_rng = rng_.Fork();
  global_model_ = factory(&init_rng);
  LIGHTTR_CHECK(global_model_ != nullptr);
  for (size_t i = 0; i < clients->size(); ++i) {
    Rng client_rng = rng_.Fork();
    client_models_.push_back(factory(&client_rng));
    // All replicas must agree on the parameter layout.
    LIGHTTR_CHECK_EQ(client_models_.back()->params().NumScalars(),
                     global_model_->params().NumScalars());
    client_optimizers_.push_back(std::make_unique<nn::AdamOptimizer>(
        static_cast<nn::Scalar>(options_.learning_rate)));
  }
  // Fork order (init, clients, faults, validation) is the deterministic
  // contract: a resumed trainer re-derives the same streams from the
  // seed, then overwrites rng_/fault_rng_ with the snapshot's states.
  fault_rng_ = rng_.Fork();
  valid_rng_ = rng_.Fork();
}

std::vector<traj::IncompleteTrajectory> FederatedTrainer::SampleValidationPool(
    size_t max_trajectories, Rng* rng) const {
  // Flatten every client's validation set, then sample uniformly so the
  // pool is not biased toward the first clients in enumeration order.
  std::vector<const traj::IncompleteTrajectory*> all;
  size_t total = 0;
  for (const traj::ClientDataset& client : *clients_) total += client.valid.size();
  all.reserve(total);
  for (const traj::ClientDataset& client : *clients_) {
    for (const auto& trajectory : client.valid) all.push_back(&trajectory);
  }
  const size_t want = std::min(max_trajectories, all.size());
  std::vector<size_t> picks = rng->SampleWithoutReplacement(all.size(), want);
  std::sort(picks.begin(), picks.end());  // stable evaluation order
  std::vector<traj::IncompleteTrajectory> pool;
  pool.reserve(want);
  for (size_t index : picks) pool.push_back(*all[index]);
  return pool;
}

ServerRunState FederatedTrainer::CaptureState(int round,
                                              const FederatedRunResult& result) {
  ServerRunState state;
  state.round = round;
  state.rng_state = rng_.SerializeState();
  state.fault_rng_state = fault_rng_.SerializeState();
  state.comm = result.comm;
  state.faults = result.faults;
  CopyLifetimeCounters(lifetime_, &state.faults);
  // Float64 on purpose: the FL wire format is float32, but aggregation
  // runs in Scalar (double); a rounded restore would diverge bitwise.
  state.global_params_blob =
      global_model_->params().Serialize(nn::BlobPrecision::kFloat64);
  state.optimizer_blobs.reserve(client_optimizers_.size());
  for (const auto& optimizer : client_optimizers_) {
    state.optimizer_blobs.push_back(optimizer->SerializeState());
  }
  state.reputation_blob = book_ ? book_->Serialize() : std::string();
  state.monitor_blob = monitor_.SerializeState();
  state.escalated = escalated_;
  state.net_rng_state = net_rng_.SerializeState();
  state.adversary_blob = adversary_ ? adversary_->SerializeState() : std::string();
  state.normbound_blob = WriteFields(
      [&](FieldWriter& io) { RollingWindow::Walk(io, normbound_window_); });
  state.history = result.history;
  return state;
}

Status FederatedTrainer::RestoreFromState(const ServerRunState& state,
                                          bool restore_reputation) {
  // ResumeFrom checks the count; a rollback anchor is this trainer's own.
  LIGHTTR_CHECK_EQ(state.optimizer_blobs.size(), client_optimizers_.size());
  LIGHTTR_RETURN_NOT_OK(rng_.DeserializeState(state.rng_state));
  LIGHTTR_RETURN_NOT_OK(fault_rng_.DeserializeState(state.fault_rng_state));
  // The channel stream rewinds with the round: both resume and rollback
  // replay the same network weather, which the lossy-channel determinism
  // contract requires.
  LIGHTTR_RETURN_NOT_OK(net_rng_.DeserializeState(state.net_rng_state));
  // The model goes in all or nothing: a blob that does not parse, or
  // that carries a NaN/Inf, puts the previous values back, so a
  // poisoned snapshot can never install a non-finite global model.
  nn::ParameterSet& params = global_model_->params();
  const std::vector<nn::Scalar> previous = params.Flatten();
  Status installed = params.Deserialize(state.global_params_blob);
  if (installed.ok() && !AllFinite(params.Flatten())) {
    installed = Status::InvalidArgument("non-finite value in snapshot model");
  }
  if (!installed.ok()) {
    params.AssignFlat(previous);
    return installed;
  }
  for (size_t i = 0; i < client_optimizers_.size(); ++i) {
    LIGHTTR_RETURN_NOT_OK(
        client_optimizers_[i]->DeserializeState(state.optimizer_blobs[i]));
  }
  // The monitor's rolling windows always come back: a rollback must
  // undo the norms the bad round banked.
  LIGHTTR_RETURN_NOT_OK(monitor_.DeserializeState(state.monitor_blob));
  // The adversary stream and the norm-bound window rewind with the
  // round too (a snapshot taken with the adversary off carries no
  // engine state — the fresh one stands in): a rollback or resume must
  // replay the identical attack weather and clip against the identical
  // bound, or bitwise determinism across crash/resume breaks.
  if (adversary_ != nullptr && !state.adversary_blob.empty()) {
    LIGHTTR_RETURN_NOT_OK(adversary_->DeserializeState(state.adversary_blob));
  }
  RollingWindow normbound(kNormWindow);
  LIGHTTR_RETURN_NOT_OK(ReadFields(
      state.normbound_blob, "norm-bound window blob",
      [&](FieldReader& io) { RollingWindow::Walk(io, normbound); }));
  normbound_window_ = std::move(normbound);
  if (restore_reputation) {
    // Cross-process resume: the ledger and the escalation latch come
    // back too. A rollback deliberately skips this branch — offenders
    // stay remembered and escalation stays armed, which is exactly why
    // the replay can end differently.
    if (book_ != nullptr && !state.reputation_blob.empty()) {
      LIGHTTR_RETURN_NOT_OK(book_->Deserialize(state.reputation_blob));
    }
    escalated_ = state.escalated;
  }
  return Status::Ok();
}

FileSystem* FederatedTrainer::DurableFs() const {
  return options_.durability.fs != nullptr ? options_.durability.fs
                                           : RealFileSystemInstance();
}

void FederatedTrainer::SweepTempFiles() {
  FileSystem* fs = DurableFs();
  Result<std::vector<std::string>> names = fs->ListDir(options_.durability.dir);
  if (!names.ok()) return;  // no directory yet: nothing to sweep
  for (const std::string& name : names.value()) {
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      // Best-effort: a temp that cannot be removed is re-swept next run.
      (void)fs->Remove(options_.durability.dir + "/" + name);
    }
  }
}

Status FederatedTrainer::SaveSnapshot(const ServerRunState& state) {
  const DurabilityConfig& durability = options_.durability;
  const int round = state.round;
  const std::string path = SnapshotPath(durability.dir, round);
  FileSystem* fs = DurableFs();
  if (durability.crash_point == CrashPoint::kMidSave &&
      durability.crash_round == round) {
    // Simulate dying inside WriteFileAtomic: the temp file holds half
    // the bytes, the rename never happened, the previous snapshot set
    // is untouched.
    (void)fs->CreateDirs(durability.dir);  // best-effort, like a dying writer
    const std::string encoded = EncodeRunState(state);
    const Status half = fs->WriteFileAtomic(
        path + ".tmp", encoded.substr(0, encoded.size() / 2));
    // A storage fault can hit even the dying write; count it so the
    // attribution ledger stays exact, then crash as scheduled.
    if (!half.ok()) ++lifetime_[kStorageWriteFailures];
    throw InjectedCrash{CrashPoint::kMidSave, round};
  }
  LIGHTTR_RETURN_NOT_OK(SaveRunState(fs, path, state));
  // The snapshot is the durability point: sync so a simulated power
  // loss cannot revert behind it.
  LIGHTTR_RETURN_NOT_OK(fs->SyncAll());
  PruneSnapshots(fs, durability.dir, durability.keep_snapshots);
  return Status::Ok();
}

Status FederatedTrainer::ResumeFrom(const std::string& dir) {
  FileSystem* fs = DurableFs();
  Result<std::vector<int>> rounds = ListSnapshotRounds(fs, dir);
  if (!rounds.ok()) return rounds.status();
  if (rounds.value().empty()) {
    return Status::NotFound("no snapshots in " + dir);
  }
  const std::vector<int>& all = rounds.value();
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    const std::string path = SnapshotPath(dir, *it);
    Result<ServerRunState> loaded = LoadRunState(fs, path);
    Status restored = loaded.status();
    if (restored.ok()) {
      const size_t blobs = loaded.value().optimizer_blobs.size();
      if (blobs != client_optimizers_.size()) {
        // A shape mismatch is a caller error (wrong trainer for this
        // directory), not snapshot corruption: fail hard, do not fall
        // back to an older snapshot that would mismatch identically.
        return Status::InvalidArgument(
            "snapshot has optimizer state for " + std::to_string(blobs) +
            " clients, trainer has " +
            std::to_string(client_optimizers_.size()));
      }
      restored = RestoreFromState(loaded.value(), /*restore_reputation=*/true);
    }
    if (!restored.ok()) {
      // A CRC failure, or a model RestoreFromState refuses (non-finite
      // poison included): warn and fall back.
      std::fprintf(stderr,
                   "[lighttr] warning: snapshot %s rejected (%s); falling "
                   "back to the previous one\n",
                   path.c_str(), restored.ToString().c_str());
      continue;
    }
    const ServerRunState& state = loaded.value();
    // Lifetime counters continue from where the snapshot left off.
    CopyLifetimeCounters(state.faults, &lifetime_);
    start_round_ = state.round;
    resumed_round_ = state.round;
    resume_seed_ = FederatedRunResult{};
    resume_seed_.comm = state.comm;
    resume_seed_.faults = state.faults;
    resume_seed_.history = state.history;
    std::fprintf(stderr, "[lighttr] resumed from %s (round %d complete)\n",
                 path.c_str(), state.round);
    return Status::Ok();
  }
  return Status::IoError("every snapshot in " + dir +
                         " failed its integrity check");
}

FederatedRunResult FederatedTrainer::Run(LocalUpdateStrategy* strategy) {
  PlainLocalUpdate plain(options_.clip_norm);
  if (strategy == nullptr) strategy = &plain;

  const DurabilityConfig& durability = options_.durability;
  if (durability.enabled() && durability.resume && start_round_ == 0) {
    const Status resumed = ResumeFrom(durability.dir);
    if (!resumed.ok() && resumed.code() != StatusCode::kNotFound) {
      // Corruption of *every* snapshot (or a model/shape mismatch) is
      // not silently ignorable; a fresh start would quietly discard the
      // completed rounds the caller asked to keep.
      LIGHTTR_CHECK_OK(resumed);
    }
  }
  // Quiesce the directory: crashed writers (real or injected) may have
  // left `*.tmp` partials behind; readers ignore them, but they must
  // not accumulate forever.
  if (durability.enabled()) SweepTempFiles();

  const int num_clients = static_cast<int>(clients_->size());
  const int sampled = std::max(
      1, static_cast<int>(std::llround(options_.client_fraction *
                                       static_cast<double>(num_clients))));
  const FaultModel fault_model(options_.faults);
  const bool inject = options_.faults.enabled();
  const bool healing = options_.healing.enabled;
  // Config-only conditionality (like `inject`): whether per-task
  // channel streams are forked depends on the fault *configuration*,
  // never on any outcome, so the fork sequence is fixed per round.
  const bool net_faulty = options_.transport.faulty();
  // Sample the validation pool from a *copy* of the stream so Run() is
  // idempotent with respect to valid_rng_ (a resumed trainer draws the
  // identical pool without any state having been persisted for it).
  Rng valid_rng = valid_rng_;
  const std::vector<traj::IncompleteTrajectory> valid_pool =
      SampleValidationPool(/*max_trajectories=*/40, &valid_rng);
  // Every trajectory this run reads is encoded at most once: the pool
  // here, each client's splits in its own pair. The vector is sized
  // before the round loop; ClientRound::encodings points into it.
  TrajectoryEncodings valid_encodings(global_model_->encoder(), valid_pool);
  std::vector<ClientEncodings> client_encodings;
  client_encodings.reserve(clients_->size());
  for (size_t i = 0; i < clients_->size(); ++i) {
    client_encodings.emplace_back(client_models_[i]->encoder(),
                                  (*clients_)[i]);
  }

  FederatedRunResult result = resume_seed_;
  // Rollback anchor: the pre-round-1 (or just-resumed) state counts as
  // healthy, so even a round-1 divergence has somewhere to return to.
  if (healing) last_healthy_ = CaptureState(start_round_, result);
  for (int round = start_round_ + 1; round <= options_.rounds; ++round) {
    Stopwatch watch;
    RoundRecord record;
    record.round = round;
    // Effective tolerance for this round: once a divergence has been
    // seen, screening is forced on and plain-mean aggregation hardens
    // to the coordinate-wise median for the rest of the run.
    FaultToleranceConfig tolerance = options_.tolerance;
    if (escalated_) {
      tolerance.screen.enabled = true;
      if (tolerance.aggregator.policy == AggregatorPolicy::kMean) {
        tolerance.aggregator.policy = AggregatorPolicy::kMedian;
      }
      record.escalated = true;
    }
    // Algorithm 3 line 2: randomly select C clients. The RNG draw is
    // identical with healing on or off; quarantine then filters the
    // cohort without consuming randomness, so the fork sequence below
    // stays aligned with the reputation state (itself deterministic).
    std::vector<size_t> selected = rng_.SampleWithoutReplacement(
        static_cast<size_t>(num_clients), static_cast<size_t>(sampled));
    record[kSampled] = static_cast<int>(selected.size());
    if (healing && book_->QuarantinedCount() > 0) {
      auto keep_end = std::remove_if(
          selected.begin(), selected.end(), [&](size_t client_index) {
            return book_->IsQuarantined(static_cast<int>(client_index));
          });
      record[kQuarantinedSkips] = static_cast<int>(selected.end() - keep_end);
      selected.erase(keep_end, selected.end());
      lifetime_[kQuarantinedSkips] += record[kQuarantinedSkips];
    }

    // Lines 3-10: download, local training, upload — now with faults,
    // run as one pool task per selected client. Every RNG fork happens
    // here, on the coordinating thread, in canonical selection order;
    // each fork is unconditional given the *config* (never conditional
    // on another client's fault outcome), so the streams — and thus the
    // results — are identical for every thread count.
    const std::vector<nn::Scalar> global_flat =
        global_model_->params().Flatten();
    // The round's pull reply is identical for every client: encode the
    // frame once on the coordinating thread and share it read-only.
    transport::ModelPullReply reply;
    reply.round = round;
    reply.model_blob = global_model_->params().Serialize();
    const std::string pull_reply_frame =
        transport::EncodeFrame(transport::FrameType::kModelPullReply,
                               transport::EncodeModelPullReply(reply));
    // Adversary prologue (coordinating thread): resample any colluding
    // drift direction for this round before per-attacker streams fork.
    const bool attack_round =
        adversary_ != nullptr && adversary_->ActiveInRound(round);
    if (adversary_ != nullptr) adversary_->BeginRound(round, global_flat.size());
    std::vector<ClientRound> cohort;
    cohort.reserve(selected.size());
    for (size_t client_index : selected) {
      ClientRound c;
      c.client_index = client_index;
      c.encodings = &client_encodings[client_index];
      c.update_rng = rng_.Fork();
      if (options_.privacy.enabled()) c.noise_rng = rng_.Fork();
      if (inject) c.fault_rng = fault_rng_.Fork();
      if (net_faulty) c.net_rng = net_rng_.Fork();
      if (attack_round &&
          options_.adversary.IsAttacker(static_cast<int>(client_index))) {
        // Attacker membership is pure config + round number — never an
        // outcome — so the fork sequence stays fixed per round.
        c.adv_rng = adversary_->ForkStream();
        c.poison = true;
      }
      cohort.push_back(std::move(c));
    }

    // Each task owns exactly one pre-sized record, and every path
    // through it sets the record's fate once.
    pool_.ParallelFor(cohort.size(), [&](size_t t) {  // lint: shared-state(cohort)
      ClientRound& c = cohort[t];
      const size_t client_index = c.client_index;
      // Contact the client; a dropout burns one attempt of the retry
      // budget and a simulated backoff delay before the next attempt.
      FaultDraw draw;
      for (int attempt = 0;; ++attempt) {
        if (inject) draw = fault_model.Draw(&c.fault_rng);
        if (draw.type != FaultType::kDropout) break;
        if (attempt >= tolerance.retry.max_retries) {
          c.fate = ClientFate::kDropped;
          return;
        }
        ++c.retries;
        c.backoff_s +=
            BackoffDelaySeconds(tolerance.retry, attempt, &c.fault_rng);
      }

      RecoveryModel* client = client_models_[client_index].get();
      // The client's link for this round: both channel directions plus
      // the server endpoint (dedup + the shared pull-reply frame). All
      // state is task-private, so links run concurrently unshared.
      transport::ReliableLink link(
          options_.transport.LinkConfig(static_cast<int>(client_index)),
          options_.transport.retry, round, static_cast<int>(client_index),
          &pull_reply_frame, net_faulty ? &c.net_rng : nullptr);
      Result<std::string> blob = link.PullModelBlob();
      if (!blob.ok()) {
        // The link is down before the client ever saw the model:
        // charged to the network, not the client.
        c.fate = ClientFate::kPullLost;
        c.link = link.stats();
        return;
      }
      LIGHTTR_CHECK_OK(client->params().Deserialize(blob.value()));
      c.loss = strategy->UpdateEncoded(
          static_cast<int>(client_index), client,
          client_optimizers_[client_index].get(), (*clients_)[client_index],
          c.encodings, options_.local_epochs, &c.update_rng);

      if (draw.type == FaultType::kStraggler) {
        // The client computed the update but missed the server's round
        // deadline; the server never receives the upload.
        c.fate = ClientFate::kStraggler;
        c.link = link.stats();
        return;
      }

      std::vector<nn::Scalar> upload = client->params().Flatten();
      if (options_.privacy.enabled()) {
        upload = PrivatizeUpload(upload, global_flat, options_.privacy,
                                 &c.noise_rng);
      }
      if (c.poison) {
        // The compromised client rewrites its upload after local
        // training and privacy but before quantization, wire faults,
        // and screening: the poison traverses the identical path an
        // honest update takes, so every defense sees it where a real
        // deployment would. Poison() is const — safe from workers.
        c.poisoned = adversary_->Poison(global_flat, &upload, &c.adv_rng);
      }
      transport::UpdatePush push;
      push.round = round;
      push.client_id = static_cast<int>(client_index);
      push.msg_id = transport::PushMsgId(round, static_cast<int>(client_index));
      push.train_loss = c.loss;
      if (options_.quantize_uploads && draw.type != FaultType::kCorruption) {
        push.kind = transport::PayloadKind::kQuantizedInt8;
        push.quantized = QuantizeFlat(upload);
      } else {
        if (options_.quantize_uploads) {
          // The client still quantizes; the injected fault then damages
          // the *decoded* scalars, so the frame stays CRC-valid and
          // screening (not the CRC) catches it — client-behaviour
          // corruption must keep scoring against the client, unlike
          // wire damage.
          upload = DequantizeFlat(QuantizeFlat(upload));
        }
        if (draw.type == FaultType::kCorruption) {
          FaultModel::Corrupt(draw.corruption, &c.fault_rng, &upload);
        }
        push.kind = transport::PayloadKind::kRawF64;
        push.raw = upload;
      }
      Result<std::vector<double>> received = link.PushUpdate(push);
      c.link = link.stats();
      if (!received.ok()) {
        c.fate = ClientFate::kPushLost;
        return;
      }
      // Aggregation consumes what the SERVER received (dequantized
      // server-side when the push was quantized).
      upload = std::move(received).value();

      const Status screen =
          ScreenUpload(&upload, global_flat, tolerance.screen, &c.clipped);
      if (!screen.ok()) {
        // InvalidArgument = non-finite scalars; OutOfRange = norm bound.
        c.fate = screen.code() == StatusCode::kInvalidArgument
                     ? ClientFate::kCorrupt
                     : ClientFate::kNormRejected;
        return;
      }
      // Computed here (in parallel) for the fold's observation; per
      // record, so thread count cannot reorder any accumulation.
      c.delta_norm = DeltaNorm(upload, global_flat);
      c.upload = std::move(upload);
      c.fate = ClientFate::kReported;
    });

    // Fold the records in canonical selection order. All floating-point
    // accumulation (losses, backoff seconds) happens here, on one
    // thread, in one fixed order.
    std::vector<std::vector<nn::Scalar>> uploads;
    uploads.reserve(cohort.size());
    // Every upload that reached screening is evidence for the health
    // monitor and the reputation ledger, clean ones included (they
    // decay scores). uploads[u] -> its observation, so the Byzantine
    // aggregator's per-upload suspicion flags map back onto that
    // evidence and the norm-bound window.
    std::vector<UpdateObservation> observations;
    observations.reserve(cohort.size());
    std::vector<size_t> upload_obs;
    double loss_sum = 0.0;
    int loss_count = 0;
    for (ClientRound& c : cohort) {
      // Exact accounting measured from encoded frames: every transmitted
      // copy counts — retransmissions included.
      result.comm.bytes_downlink += c.link.downlink_bytes;
      result.comm.bytes_uplink += c.link.uplink_bytes;
      result.comm.messages += c.link.uplink_frames + c.link.downlink_frames;
      record[kNetRetries] += c.link.retries;
      record[kNetTimeouts] += c.link.timeouts;
      record[kNetCrcDrops] += c.link.crc_drops;
      record[kNetDedupDrops] += c.link.dedup_drops;
      record[kNetLateDrops] += c.link.late_drops;
      result.faults.simulated_backoff_s += c.backoff_s + c.link.backoff_s;
      record[kRetries] += c.retries;
      if (c.trained()) {
        loss_sum += c.loss;
        ++loss_count;
      }
      // Ground truth, counted even when the wire later eats the upload:
      // the adversary DID rewrite it.
      if (c.poisoned) ++record[kPoisonedUploads];
      UpdateObservation obs;
      obs.client_index = static_cast<int>(c.client_index);
      switch (c.fate) {
        case ClientFate::kDropped:
          ++record[kDrops];
          break;
        case ClientFate::kPullLost:
        case ClientFate::kPushLost:
          // Lost to the wire, not to the client: never a drop, straggler,
          // or reputation observation.
          ++record[kNetLost];
          break;
        case ClientFate::kStraggler:
          ++record[kStragglers];
          break;
        case ClientFate::kCorrupt:
        case ClientFate::kNormRejected:
          ++record[kRejectedUploads];
          obs.corrupt = c.fate == ClientFate::kCorrupt;
          obs.norm_rejected = !obs.corrupt;
          observations.push_back(obs);
          break;
        case ClientFate::kReported:
          obs.accepted = true;
          obs.delta_norm = c.delta_norm;
          observations.push_back(obs);
          if (c.clipped) ++result.faults[kClippedUploads];
          // The adaptive adversary eavesdrops on accepted honest norms
          // (the simulator grants it a global view) to size its stealth
          // attacks. Coordinating thread, canonical order: deterministic.
          if (adversary_ != nullptr &&
              !options_.adversary.IsAttacker(obs.client_index)) {
            adversary_->ObserveHonestNorm(c.delta_norm);
          }
          upload_obs.push_back(observations.size() - 1);
          uploads.push_back(std::move(c.upload));
          break;
      }
    }
    record[kReporting] = static_cast<int>(uploads.size());
    // A "mid-round" crash lands after local work but before the round
    // commits anything: on resume the whole round re-executes.
    MaybeInjectCrash(durability, CrashPoint::kMidRound, round);

    // Line 11: theta_s <- aggregate(theta_ci), behind a quorum gate. A
    // round that loses too many clients keeps the previous global model
    // instead of averaging a tiny (or empty) cohort.
    const int quorum_need = std::max(
        1, static_cast<int>(std::ceil(tolerance.quorum_fraction *
                                      static_cast<double>(record[kSampled]))));
    record.quorum_met = record[kReporting] >= quorum_need;
    if (record.quorum_met) {
      // kNormBound clips against the rolling median accepted norm; an
      // empty window (the first rounds) leaves the bound unarmed.
      const double norm_bound =
          tolerance.aggregator.policy == AggregatorPolicy::kNormBound
              ? normbound_window_.Median()
              : 0.0;
      std::vector<uint8_t> suspected;
      Result<std::vector<nn::Scalar>> aggregate = AggregateFlat(
          uploads, tolerance.aggregator, &global_flat, norm_bound, &suspected);
      if (aggregate.ok()) {
        global_model_->params().AssignFlat(aggregate.value());
        for (size_t u = 0; u < suspected.size(); ++u) {
          UpdateObservation& obs = observations[upload_obs[u]];
          if (suspected[u] != 0) {
            // Map the aggregator's verdict back onto the reputation
            // evidence (same canonical order the uploads were folded in)
            // so Observe can score it below.
            ++record[kSuspectedUploads];
            obs.suspected = true;
          } else if (tolerance.aggregator.policy ==
                     AggregatorPolicy::kNormBound) {
            // Only unsuspected accepted norms teach the clip bound; a
            // norm-matched poison must not drag the median upward.
            normbound_window_.Push(obs.delta_norm);
          }
        }
      } else {
        record.quorum_met = false;  // degrade: keep the previous model
      }
    }
    if (!record.quorum_met) ++result.faults[kQuorumMisses];
    ++result.comm.rounds;

    for (const CounterSpec& counter : kCounters) {
      if (counter.scope == CounterScope::kRun && counter.per_round) {
        result.faults[counter.id] += record[counter.id];
      }
    }

    // Telemetry: validation accuracy + loss of the (possibly kept)
    // global model over the run-level unbiased validation pool.
    record.mean_train_loss =
        loss_count > 0 ? loss_sum / static_cast<double>(loss_count) : 0.0;
    record.global_valid_accuracy = EvaluateSegmentAccuracy(
        global_model_.get(), valid_pool, &valid_encodings);
    record.valid_loss =
        EvaluateMeanLoss(global_model_.get(), valid_pool, &valid_encodings);

    // Self-healing: judge the round, book the evidence, and on a
    // diverged verdict roll back to the last healthy state — all on
    // the coordinating thread, before anything is recorded.
    if (healing) {
      RoundHealthReport report = monitor_.Judge(
          &observations, global_model_->params().Flatten(), record.valid_loss);
      record[kVerdict] = static_cast<int>(report.verdict);
      record[kOutlierUploads] = report.outlier_uploads;
      lifetime_[kOutlierUploads] += report.outlier_uploads;
      for (const UpdateObservation& obs : observations) {
        if (book_->Observe(obs.client_index, obs.corrupt, obs.norm_rejected,
                           obs.outlier, obs.suspected)) {
          ++lifetime_[kQuarantineEvents];
        }
      }
      if (report.verdict == HealthVerdict::kDiverged) {
        ++lifetime_[kDivergedRounds];
        escalated_ = true;
        const int anchor = last_healthy_->round;
        const bool roll_back =
            lifetime_[kRollbacks] < options_.healing.max_rollbacks;
        std::fprintf(stderr,
                     "[lighttr] round %d diverged (%s%s%s); %s round %d\n",
                     round, report.global_nonfinite ? "non-finite model " : "",
                     report.loss_nonfinite ? "non-finite loss " : "",
                     report.loss_spike ? "validation-loss spike" : "",
                     roll_back ? "rolling back to"
                               : "rollback budget exhausted; stopping at",
                     anchor);
        if (roll_back) {
          ++lifetime_[kRollbacks];
        } else {
          result.gave_up = true;
        }
        // Either way the run rewinds to its last healthy state. A
        // rollback re-executes the diverged round from there (with
        // escalation and the updated ledger) as if it never happened, so
        // it is neither recorded nor snapshotted; an exhausted budget
        // parks the run there so the caller still gets a finite model.
        LIGHTTR_CHECK_OK(
            RestoreFromState(*last_healthy_, /*restore_reputation=*/false));
        result.comm = last_healthy_->comm;
        result.faults = last_healthy_->faults;
        if (!roll_back) break;
        round = anchor;
        continue;
      }
      // Committed round: advance quarantine clocks (the quarantining
      // round's tick counts toward parole).
      lifetime_[kParoleEvents] += book_->Tick();
      record[kQuarantined] = book_->QuarantinedCount();
    }
    record.wall_seconds = watch.ElapsedSeconds();
    result.history.push_back(record);
    // The committed round, its record included, is the rollback anchor.
    if (healing) last_healthy_ = CaptureState(round, result);

    const bool snapshot_due =
        durability.enabled() && (round % durability.snapshot_every == 0 ||
                                 round == options_.rounds);
    if (snapshot_due) {
      // A failed snapshot is survivable, not fatal: the round already
      // committed in memory and the model is untouched, so the run
      // continues with degraded durability coverage and the failure
      // attributed to the storage counter. (A real deployment pages an
      // operator; aborting training over a full disk would be worse.)
      MaybeInjectCrash(durability, CrashPoint::kBeforeSave, round);
      // Nothing has changed since the rollback anchor was captured, so
      // with healing on it is this round's snapshot too.
      const Status saved = healing ? SaveSnapshot(*last_healthy_)
                                   : SaveSnapshot(CaptureState(round, result));
      if (!saved.ok()) ++lifetime_[kStorageWriteFailures];
      MaybeInjectCrash(durability, CrashPoint::kAfterSave, round);
    }
  }
  // The lifetime totals reach a result only here and in CaptureState:
  // assignment, since they are totals already, and late enough to carry
  // the final snapshot's storage failures.
  CopyLifetimeCounters(lifetime_, &result.faults);
  start_round_ = 0;
  resume_seed_ = FederatedRunResult{};
  return result;
}

}  // namespace lighttr::fl
