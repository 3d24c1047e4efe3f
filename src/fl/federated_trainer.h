// The federated training loop (paper Algorithm 3, Fig. 2(b)):
// server-orchestrated rounds with client sampling, local updates, and
// FedAvg parameter aggregation, with exact communication accounting.
#ifndef LIGHTTR_FL_FEDERATED_TRAINER_H_
#define LIGHTTR_FL_FEDERATED_TRAINER_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/backoff.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "fl/adversary.h"
#include "fl/aggregation.h"
#include "fl/comm_stats.h"
#include "fl/fault_injection.h"
#include "fl/health.h"
#include "fl/privacy.h"
#include "fl/recovery_model.h"
#include "fl/reputation.h"
#include "fl/run_state.h"
#include "fl/trajectory_encodings.h"
#include "fl/transport/channel.h"
#include "nn/optimizer.h"
#include "traj/workload.h"

namespace lighttr::fl {

/// Strategy object for the client-side update of one round. The default
/// performs plain local epochs (FedAvg); LightTR substitutes its
/// meta-knowledge enhanced local training (Algorithm 2).
///
/// Thread-safety contract: with `FederatedTrainerOptions::threads > 1`
/// the trainer invokes UpdateEncoded concurrently for *distinct* clients
/// of the same round (never twice for the same client). `model`,
/// `optimizer`, `data`, `encodings` and `rng` are private to the call;
/// any mutable state shared across calls inside the strategy itself must
/// be internally synchronized, and its values must not depend on the
/// order in which clients run (or determinism across thread counts
/// breaks).
class LocalUpdateStrategy {
 public:
  virtual ~LocalUpdateStrategy() = default;

  /// Runs the local update for client `client_index`; returns the mean
  /// training loss.
  virtual double Update(int client_index, RecoveryModel* model,
                        nn::Optimizer* optimizer,
                        const traj::ClientDataset& data, int epochs,
                        Rng* rng) = 0;

  /// Update with the client's train and valid encodings, which
  /// FederatedTrainer::Run holds for the whole run so that no round
  /// encodes the client's data again. Must give bitwise the result of
  /// Update. The default ignores `encodings` and calls Update.
  virtual double UpdateEncoded(int client_index, RecoveryModel* model,
                               nn::Optimizer* optimizer,
                               const traj::ClientDataset& data,
                               ClientEncodings* /*encodings*/, int epochs,
                               Rng* rng) {
    return Update(client_index, model, optimizer, data, epochs, rng);
  }
};

/// Plain FedAvg local update: `epochs` passes of task-loss SGD.
class PlainLocalUpdate : public LocalUpdateStrategy {
 public:
  /// `clip_norm` > 0 bounds each step's global gradient norm (see
  /// LocalTrainOptions::clip_norm); 0 disables clipping.
  explicit PlainLocalUpdate(double clip_norm = 0.0) : clip_norm_(clip_norm) {}

  double Update(int client_index, RecoveryModel* model,
                nn::Optimizer* optimizer, const traj::ClientDataset& data,
                int epochs, Rng* rng) override;

  double UpdateEncoded(int client_index, RecoveryModel* model,
                       nn::Optimizer* optimizer,
                       const traj::ClientDataset& data,
                       ClientEncodings* encodings, int epochs,
                       Rng* rng) override;

 private:
  double clip_norm_;
};

/// Self-healing policy: round health verdicts (fl/health), per-client
/// reputation + quarantine (fl/reputation), and the rollback protocol
/// applied on a diverged verdict. Off by default (the paper's setting).
struct SelfHealingConfig {
  bool enabled = false;
  ReputationConfig reputation;
  /// How many times a run may roll back to its last healthy state
  /// before it gives up (restores that state once more and stops).
  int max_rollbacks = 3;
};

/// Server-side fault tolerance knobs: how the round survives the faults
/// FaultInjectionConfig injects (or real deployments produce).
struct FaultToleranceConfig {
  /// Retry budget + simulated delay schedule for dropped clients.
  BackoffConfig retry;
  /// Minimum fraction of the sampled cohort that must report for the
  /// round to aggregate; below it the server keeps the previous global
  /// model. A round with zero reporters always degrades this way.
  double quorum_fraction = 0.0;
  /// Upload validation (non-finite rejection + optional norm bound).
  UploadScreenConfig screen;
  /// Aggregation rule over the screened uploads.
  AggregatorConfig aggregator;
};

/// Options for FederatedTrainer.
struct FederatedTrainerOptions {
  int rounds = 10;
  double client_fraction = 1.0;  // fraction sampled per round (Fig. 6)
  int local_epochs = 2;          // E of Algorithm 3
  double learning_rate = 1e-3;   // paper Sec. V-A4
  uint64_t seed = 7;
  /// Optional DP-style upload protection (clip + Gaussian noise).
  PrivacyConfig privacy;
  /// Quantize uploads to 8 bits per weight (4x less uplink traffic).
  bool quantize_uploads = false;
  /// Injected client faults (off by default: the paper's ideal setting).
  FaultInjectionConfig faults;
  /// Server-side tolerance policy (screening is on by default).
  FaultToleranceConfig tolerance;
  /// Crash-safe persistence: periodic snapshots under `durability.dir`,
  /// and optional resume from it (off by default).
  DurabilityConfig durability;
  /// Self-healing layer: health verdicts, divergence rollback, client
  /// quarantine (off by default).
  SelfHealingConfig healing;
  /// Wire-level transport: model pulls and update pushes travel as
  /// CRC32-framed messages over a per-client SimulatedChannel with
  /// idempotent retries, and CommStats is measured from the encoded
  /// frames.
  transport::TransportConfig transport;
  /// Injected model-poisoning adversary (off by default): compromised
  /// clients rewrite their uploads after local training and before
  /// screening/transport, so attacks traverse the full real path. The
  /// engine draws from its own seed (an independent knob, like the
  /// channel seed) — enabling it never perturbs honest training draws.
  AdversaryConfig adversary;
  /// Global-norm gradient clipping inside local training; 0 disables.
  /// Applies to the built-in PlainLocalUpdate strategy (external
  /// strategies read it from their own options, see MetaLocalOptions).
  double clip_norm = 0.0;
  /// Executors for the per-round client loop: 1 = serial reference
  /// path, >1 = that many (clients of one round train concurrently),
  /// 0 = LIGHTTR_THREADS env / hardware concurrency. Results are
  /// bitwise identical for every value — RNG streams are forked on the
  /// coordinating thread in canonical selection order and uploads are
  /// merged in that same order.
  int threads = 0;
};

/// Simulates horizontal federated learning in-process: one global model
/// on the "server", one persistent model + optimizer per client.
class FederatedTrainer {
 public:
  FederatedTrainer(ModelFactory factory,
                   const std::vector<traj::ClientDataset>* clients,
                   FederatedTrainerOptions options);

  /// Runs `options.rounds` rounds with `strategy` (defaults to plain
  /// FedAvg when null). With `options.durability.resume` set, first
  /// restores the newest valid snapshot in `durability.dir` (falling
  /// back to older ones on corruption) and continues from there; the
  /// result then covers the full run, replayed history included.
  FederatedRunResult Run(LocalUpdateStrategy* strategy = nullptr);

  /// Restores server state (global model, RNG streams, client optimizer
  /// state, telemetry, round history) from the newest valid snapshot in
  /// `dir`. A snapshot failing its checksum is skipped with a warning
  /// and the previous one is tried. NotFound when `dir` holds no
  /// snapshot at all (callers treat that as a fresh start).
  [[nodiscard]] Status ResumeFrom(const std::string& dir);

  /// Last completed round restored by ResumeFrom (0 when no resume
  /// happened). Run() continues at resumed_round() + 1.
  int resumed_round() const { return resumed_round_; }

  /// The global model (valid after construction; trained after Run).
  RecoveryModel* global_model() { return global_model_.get(); }

  /// The reputation ledger (null while `options.healing.enabled` is
  /// false); for tests and telemetry.
  const ReputationBook* reputation() const { return book_.get(); }

  /// The poisoning adversary engine (null while `options.adversary` is
  /// not Enabled()); for tests and telemetry.
  const AdversaryEngine* adversary() const { return adversary_.get(); }

  /// Client models (for ablations and tests).
  RecoveryModel* client_model(int i) { return client_models_[i].get(); }
  int num_clients() const { return static_cast<int>(client_models_.size()); }

 private:
  /// Draws up to `max_trajectories` validation trajectories uniformly
  /// across ALL clients (the old pool took the first clients in order,
  /// biasing the telemetry toward their data distribution).
  std::vector<traj::IncompleteTrajectory> SampleValidationPool(
      size_t max_trajectories, Rng* rng) const;

  /// Builds the full ServerRunState after `round` (shared by disk
  /// snapshots and the in-memory rollback anchor), lifetime totals included.
  ServerRunState CaptureState(int round, const FederatedRunResult& result);

  /// Restores trainer state from `state`, whose optimizer count must
  /// match. With `restore_reputation` the reputation ledger + escalation
  /// latch come back too (cross-process resume); without it they survive
  /// (rollback: offenders stay remembered so the replay can differ).
  [[nodiscard]] Status RestoreFromState(const ServerRunState& state,
                                        bool restore_reputation);

  /// Atomically writes `state` (from CaptureState) to the snapshot
  /// directory, honoring kMidSave crash injection.
  [[nodiscard]] Status SaveSnapshot(const ServerRunState& state);

  /// The filesystem durability IO goes through: the configured
  /// `durability.fs`, or the process-wide real one when unset.
  FileSystem* DurableFs() const;

  /// Removes leftover `*.tmp` files from the durability directory
  /// (crashed writers leave them; readers already ignore them). Run at
  /// startup so the chaos orphan-temp invariant holds at quiescence.
  void SweepTempFiles();

  const std::vector<traj::ClientDataset>* clients_;
  FederatedTrainerOptions options_;
  /// Executes the per-round client loop (`options_.threads` wide). Kept
  /// per-trainer (not the global pool) so tests can run trainers with
  /// different widths side by side.
  ThreadPool pool_;
  Rng rng_;
  // Dedicated streams forked at construction (order matters: the fork
  // sequence is part of the deterministic contract, see the ctor).
  Rng fault_rng_;
  Rng valid_rng_;
  /// Channel-fault stream, seeded directly from
  /// `transport.channel_seed` (NOT forked from rng_): the network's
  /// weather is an independent knob, so changing the channel seed never
  /// perturbs model init, client sampling, or local-training draws.
  Rng net_rng_;
  /// Injected poisoning adversary (null unless `options_.adversary` is
  /// Enabled()). Owns its own stream, seeded from `adversary.seed` —
  /// same independence contract as net_rng_.
  std::unique_ptr<AdversaryEngine> adversary_;
  /// Rolling window of accepted, non-suspected delta norms; its median
  /// is the kNormBound aggregator's clip bound. Maintained only when
  /// that policy is configured; snapshotted with the run state.
  RollingWindow normbound_window_{kNormWindow};
  std::unique_ptr<RecoveryModel> global_model_;
  std::vector<std::unique_ptr<RecoveryModel>> client_models_;
  std::vector<std::unique_ptr<nn::Optimizer>> client_optimizers_;
  // Resume bookkeeping: rounds <= start_round_ are already durable and
  // their telemetry is seeded into the result instead of re-run.
  int start_round_ = 0;
  int resumed_round_ = 0;
  FederatedRunResult resume_seed_;
  // Self-healing state (only touched when options_.healing.enabled).
  RoundHealthMonitor monitor_;
  std::unique_ptr<ReputationBook> book_;
  /// Rollback anchor: the newest state that judged non-diverged. Held
  /// in memory so healing works with durability off; with durability on
  /// it mirrors what the newest snapshot would contain.
  std::optional<ServerRunState> last_healthy_;
  /// Screening-escalation latch: once a round diverges, screening is
  /// forced on and kMean aggregation is hardened to kMedian for the
  /// rest of the run.
  bool escalated_ = false;
  /// The CounterScope::kLifetime totals (its other counters stay zero),
  /// merged into FaultStats only by CaptureState and Run's return. Not
  /// reset by rollback: an undone round's quarantine still happened.
  FaultStats lifetime_;
};

}  // namespace lighttr::fl

#endif  // LIGHTTR_FL_FEDERATED_TRAINER_H_
