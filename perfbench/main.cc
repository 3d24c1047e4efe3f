// End-to-end benchmark of the federated trajectory-recovery system.
//
//   lighttr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each workload is a closed loop with one caller, which sends its next
// operation when the previous one returns. The road network is one fixed
// city (a deployment has one map); --seed draws everything that runs on
// it: the client data of every federation, the serving requests and the
// training seeds. The program only sees the generated inputs.
//
//   train_lighttr   op = one LightTR training job through
//                   eval::RunFederatedMethod: teacher pre-training
//                   (Algorithm 1), federated rounds whose local updates
//                   run two epochs, the second guided by the teacher
//                   (Algorithms 2-3), and the test-set evaluation, on
//                   Geolife-like clients.
//   train_mtrajrec  op = one MTrajRec+FL job (plain FedAvg) through the
//                   same harness on Tdrive-like clients: no teacher and a
//                   larger model, so backward and Adam weigh more.
//   serve_recover   op = one Recover call of a trained LightTR model on a
//                   held-out incomplete trajectory: encoding, candidate
//                   generation and the forward pass, no training.
//
// Training jobs cycle over kFederations federations and serving over
// kRequestClients * kRequestsPerClient requests, so one run times many
// client datasets rather than one dataset's quirks.
//
// --trace 0 measures the end-to-end metrics: p50_ms and p90_ms, the
// median and 90th percentile of one operation's time across the inputs;
// items_per_s, local-update steps (training) or recoveries (serving) per
// second; setup_s, the time to build the inputs (and, for serving, to
// train the served model); all at a reference host speed (see
// kProbeReferenceSeconds). --trace 1 runs the same work with spans
// around every call into a layer, checks that the traced results are
// bitwise equal to the untraced library path, and reports the cost of
// one call into each layer.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/model_zoo.h"
#include "common/finite.h"
#include "common/thread_pool.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "lighttr/meta_local_update.h"
#include "lighttr/pipeline.h"
#include "lighttr/teacher_training.h"
#include "nn/kernels/kernels.h"
#include "tracer.h"

namespace lighttr::perfbench {
namespace {

enum class Kind { kTrain, kServe };

struct Workload {
  const char* name;
  Kind kind;
  baselines::ModelKind model;
  traj::WorkloadProfile (*profile)();
};

constexpr Workload kWorkloads[] = {
    {"train_lighttr", Kind::kTrain, baselines::ModelKind::kLightTr,
     traj::GeolifeLikeProfile},
    {"train_mtrajrec", Kind::kTrain, baselines::ModelKind::kMTrajRec,
     traj::TdriveLikeProfile},
    {"serve_recover", Kind::kServe, baselines::ModelKind::kLightTr,
     traj::GeolifeLikeProfile},
};

constexpr int kGridSize = 8;
constexpr uint64_t kCitySeed = 7;
constexpr double kKeepRatio = 0.125;
// Small federations, so that a run times the job of each of its
// kFederations at least once, while each job still crosses every layer
// (teacher, guided local updates, wire, aggregation, validation, test
// evaluation).
constexpr int kClients = 3;
constexpr int kTrajectoriesPerClient = 8;
// Algorithm 2 guides a local epoch only where the teacher beats the
// student on the client's validation data. In federations this small
// that first happens in the third round: about one second epoch in seven
// is guided.
constexpr int kRounds = 3;
// E of Algorithm 3, as the library default and the paper's setting. With
// one epoch Algorithm 2 never guides: it sets the teacher's weight after
// an epoch, for the next one.
constexpr int kLocalEpochs = 2;
constexpr int kMaxTestTrajectories = 20;
// Distinct federations a training run cycles over: enough that ten of
// them lie beyond the 90th percentile (see AddEndToEndMetrics).
constexpr int kFederations = 100;
// Distinct serving requests, recovered in a cycle.
constexpr int kRequestClients = 8;
constexpr int kRequestsPerClient = 100;
// Floor on the share of missing road segments the trained models of one
// run recover, averaged over its federations or pooled over its
// requests. A single tiny job can legitimately fall below it.
constexpr double kMinRecall = 0.3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool has_workload = false, has_seed = false, has_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      has_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      has_seed = end != value && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      has_seconds = end != value && *end == '\0' && args->seconds > 0.0;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && has_workload && has_seed && has_seconds;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

eval::MethodRunOptions JobOptions(uint64_t seed) {
  eval::MethodRunOptions options;
  options.fed.rounds = kRounds;
  options.fed.local_epochs = kLocalEpochs;
  options.fed.learning_rate = 3e-3;
  options.fed.seed = seed + 3;
  options.fed.threads = 1;
  options.teacher.learning_rate = options.fed.learning_rate;
  options.max_test_trajectories = kMaxTestTrajectories;
  return options;
}

// Everything set-up builds. Heap-allocated and never moved: the pipeline
// keeps pointers to the encoder and to federations[0].
struct Fixture {
  std::unique_ptr<eval::ExperimentEnv> env;
  std::vector<std::vector<traj::ClientDataset>> federations;
  std::vector<traj::IncompleteTrajectory> requests;  // serve only
  std::unique_ptr<core::LightTrPipeline> pipeline;   // serve only: the model
};

std::unique_ptr<Fixture> SetUp(const Workload& workload, uint64_t seed) {
  auto fixture = std::make_unique<Fixture>();
  fixture->env =
      std::make_unique<eval::ExperimentEnv>(kGridSize, kGridSize, kCitySeed);
  traj::WorkloadProfile profile = workload.profile();
  profile.trajectories_per_client = kTrajectoriesPerClient;
  traj::FederatedWorkloadOptions options;
  options.num_clients = kClients;
  options.keep_ratio = kKeepRatio;
  const int federations = workload.kind == Kind::kTrain ? kFederations : 1;
  const uint64_t base = seed * 1000;
  for (int f = 0; f < federations; ++f) {
    fixture->federations.push_back(
        fixture->env->MakeWorkload(profile, options, base + f));
  }
  if (workload.kind == Kind::kTrain) return fixture;

  // Serving: train the model the requests go to (the library's LightTR
  // entry point, as eval::RunFederatedMethod drives it), then draw
  // requests from clients the model never saw.
  const eval::MethodRunOptions run = JobOptions(seed);
  core::LightTrOptions pipeline_options;
  pipeline_options.teacher = run.teacher;
  pipeline_options.meta = run.meta;
  pipeline_options.federated = run.fed;
  fixture->pipeline = std::make_unique<core::LightTrPipeline>(
      &fixture->env->encoder(), &fixture->federations[0], pipeline_options);
  (void)fixture->pipeline->Train();
  profile.trajectories_per_client = kRequestsPerClient;
  options.num_clients = kRequestClients;
  for (traj::ClientDataset& client :
       fixture->env->MakeWorkload(profile, options, base + 999)) {
    for (auto* split : {&client.train, &client.valid, &client.test}) {
      for (traj::IncompleteTrajectory& t : *split) {
        fixture->requests.push_back(std::move(t));
      }
    }
  }
  return fixture;
}

// Local-update steps of one job (one optimizer step per trajectory).
int64_t StepsPerJob(const std::vector<traj::ClientDataset>& clients) {
  int64_t trajectories = 0;
  for (const traj::ClientDataset& client : clients) {
    trajectories += static_cast<int64_t>(client.train.size());
  }
  return trajectories * kRounds * kLocalEpochs;
}

bool JobOk(const eval::RecoveryMetrics& metrics,
           const fl::FederatedRunResult& run) {
  if (static_cast<int>(run.history.size()) != kRounds) return false;
  for (const fl::RoundRecord& record : run.history) {
    if (!record.quorum_met || !IsFinite(record.valid_loss)) return false;
  }
  return metrics.recovered_points > 0 && metrics.recall >= 0.0 &&
         metrics.recall <= 1.0 && IsFinite(metrics.mae_km) &&
         IsFinite(metrics.rmse_km);
}

// The first job on each federation, which every later job on it must
// reproduce bitwise, and the recall of those first jobs.
class FirstJobs {
 public:
  explicit FirstJobs(size_t federations) : fingerprints_(federations) {}

  bool Seen(size_t f) const { return !fingerprints_[f].empty(); }

  // Records the job when it is the first on federation `f`; otherwise
  // returns whether it matches the first.
  bool Match(size_t f, const eval::RecoveryMetrics& metrics,
             const fl::FederatedRunResult& run) {
    std::vector<double> fingerprint = {
        metrics.recall, metrics.precision, metrics.mae_km, metrics.rmse_km,
        static_cast<double>(metrics.recovered_points),
        static_cast<double>(run.comm.TotalBytes())};
    for (const fl::RoundRecord& record : run.history) {
      fingerprint.push_back(record.mean_train_loss);
      fingerprint.push_back(record.valid_loss);
    }
    if (Seen(f)) return fingerprint == fingerprints_[f];
    fingerprints_[f] = std::move(fingerprint);
    recall_ += metrics.recall;
    ++count_;
    return true;
  }

  // Whether the first jobs recovered enough missing segments on average.
  bool RecallOk() const {
    return count_ > 0 && recall_ >= kMinRecall * static_cast<double>(count_);
  }

 private:
  std::vector<std::vector<double>> fingerprints_;
  double recall_ = 0.0;
  int count_ = 0;
};

// A recovery keeps every observed point verbatim and puts every missing
// one on a real segment.
bool RecoveryOk(const traj::IncompleteTrajectory& request,
                const std::vector<roadnet::PointPosition>& recovered,
                int num_segments) {
  if (recovered.size() != request.size()) return false;
  for (size_t t = 0; t < recovered.size(); ++t) {
    const roadnet::PointPosition& p = recovered[t];
    if (p.segment < 0 || p.segment >= num_segments || !(p.ratio >= 0.0) ||
        !(p.ratio <= 1.0)) {
      return false;
    }
    if (request.observed[t] &&
        !(p == request.ground_truth.points[t].position)) {
      return false;
    }
  }
  return true;
}

// eval::RunFederatedMethod's training half, composed from the same
// library calls in the same order, with every model built through
// TracedFactory and every local update wrapped in TracedUpdate. Only the
// two model kinds the workloads use are mirrored; the traced run checks
// its results against the library path bitwise.
struct TrainedJob {
  std::unique_ptr<fl::FederatedTrainer> trainer;
  std::unique_ptr<fl::RecoveryModel> teacher;
  fl::FederatedRunResult run;
};

TrainedJob TrainTraced(const eval::ExperimentEnv& env,
                       baselines::ModelKind kind,
                       const std::vector<traj::ClientDataset>& clients,
                       const eval::MethodRunOptions& options, Tracer* tracer) {
  const fl::ModelFactory factory =
      TracedFactory(baselines::MakeFactory(kind, &env.encoder()), tracer);
  TrainedJob job;
  job.trainer =
      std::make_unique<fl::FederatedTrainer>(factory, &clients, options.fed);
  std::unique_ptr<fl::LocalUpdateStrategy> strategy;
  if (kind == baselines::ModelKind::kLightTr) {
    job.teacher = core::TrainTeacher(factory, clients, options.teacher);
    core::MetaLocalOptions meta = options.meta;
    if (meta.clip_norm <= 0.0) meta.clip_norm = options.fed.clip_norm;
    strategy = std::make_unique<core::MetaLocalUpdate>(job.teacher.get(), meta);
  } else {
    strategy = std::make_unique<fl::PlainLocalUpdate>(options.fed.clip_norm);
  }
  TracedUpdate update(strategy.get(), tracer);
  Span span(tracer, Layer::kFederated);
  job.run = job.trainer->Run(&update);
  return job;
}

std::vector<const traj::IncompleteTrajectory*> AllTrajectories(
    const Fixture& fixture) {
  std::vector<const traj::IncompleteTrajectory*> all;
  for (const auto& federation : fixture.federations) {
    for (const traj::ClientDataset& client : federation) {
      for (const auto* split : {&client.train, &client.valid, &client.test}) {
        for (const traj::IncompleteTrajectory& t : *split) all.push_back(&t);
      }
    }
  }
  for (const traj::IncompleteTrajectory& t : fixture.requests) {
    all.push_back(&t);
  }
  return all;
}

// Standalone calls into the encoder and the road-network layers under
// it, on the workload's own trajectories: the per-step work every model
// forward repeats.
size_t ProbeEncoder(const Fixture& fixture, Tracer* tracer) {
  const eval::ExperimentEnv& env = *fixture.env;
  const traj::TrajectoryEncoder& encoder = env.encoder();
  const double radius = encoder.options().candidate_radius_m;
  size_t sink = 0;
  for (const traj::IncompleteTrajectory* trajectory : AllTrajectories(fixture)) {
    const std::vector<size_t> missing = trajectory->MissingIndices();
    {
      Span span(tracer, Layer::kEncode);
      sink += encoder.EncodeInputs(*trajectory).rows();
      sink += encoder.EncodeTargets(*trajectory).size();
      for (size_t t : missing) {
        sink += encoder.CandidatesForStep(*trajectory, t).segments.size();
      }
    }
    for (size_t t : missing) {
      geo::GeoPoint point;
      {
        Span span(tracer, Layer::kRoute);
        point = encoder.InterpolatedPoint(*trajectory, t);
      }
      Span span(tracer, Layer::kNearby);
      sink += env.index().Nearby(point, radius).size();
    }
  }
  return sink;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;

  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(position);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (position - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// Calls op(k) for k = 0, 1, ... until `seconds` have passed and at least
// `min_ops` ops ran. `between()` runs before each op and the time it
// takes extends the deadline, so the ops always get the full `seconds`.
template <typename Op, typename Between>
void Repeat(double seconds, size_t min_ops, Op op, Between between) {
  double deadline = NowSeconds() + seconds;
  for (size_t k = 0; k < min_ops || NowSeconds() < deadline; ++k) {
    const double start = NowSeconds();
    between();
    deadline += NowSeconds() - start;
    op(k);
  }
}

using Recovery = std::vector<roadnet::PointPosition>;

// Recovers every request once with `model`, checking each result, and
// returns the outputs later passes must reproduce. Clears `correct` when
// the model recovers too few of the missing segments.
std::vector<Recovery> ReferencePass(const Fixture& fixture,
                                    fl::RecoveryModel* model, Outcome* out) {
  const int segments = fixture.env->network().num_segments();
  std::vector<Recovery> reference;
  int64_t hits = 0;
  int64_t truth = 0;
  for (const traj::IncompleteTrajectory& request : fixture.requests) {
    reference.push_back(model->Recover(request));
    out->Check(RecoveryOk(request, reference.back(), segments));
    const eval::SetCounts counts =
        eval::SegmentSetCounts(request, reference.back());
    hits += counts.intersection;
    truth += counts.truth;
  }
  if (truth == 0 || static_cast<double>(hits) <
                        kMinRecall * static_cast<double>(truth)) {
    out->correct = false;
  }
  return reference;
}

// Serves request `r`, checks the answer against the reference pass and
// returns the seconds the Recover call took.
double ServeOne(const Fixture& fixture, fl::RecoveryModel* model,
                const std::vector<Recovery>& reference, size_t r,
                Outcome* out) {
  const traj::IncompleteTrajectory& request = fixture.requests[r];
  const double start = NowSeconds();
  const Recovery recovered = model->Recover(request);
  const double seconds = NowSeconds() - start;
  out->Check(RecoveryOk(request, recovered,
                        fixture.env->network().num_segments()) &&
             recovered == reference[r]);
  return seconds;
}

// A fixed piece of work that uses nothing from the repository (a sort, a
// hash-table count, a small dense matrix product and a shortest-path
// search over a grid), built with this package's own flags. Its time
// tracks how fast the shared host runs at the moment. It allocates
// nothing after its first call, and it runs twice back to back and times
// the second run, so the heap and cache state the benchmarked operation
// leaves behind does not reach its time.
double ProbeSeconds() {
  constexpr int kKeys = 4096;
  constexpr int kDim = 32;
  constexpr int kGrid = 24;
  static constexpr uint32_t kSlots = 8192;  // open addressing, a power of two
  static constexpr uint32_t kEmpty = 0xffffffffu;
  using Entry = std::pair<double, int>;
  struct Buffers {
    std::vector<uint32_t> keys = std::vector<uint32_t>(kKeys);
    std::vector<uint32_t> sorted = std::vector<uint32_t>(kKeys);
    std::vector<uint32_t> slot_keys = std::vector<uint32_t>(kSlots);
    std::vector<uint32_t> slot_counts = std::vector<uint32_t>(kSlots);
    std::vector<double> a = std::vector<double>(kDim * kDim, 0.5);
    std::vector<double> b = std::vector<double>(kDim * kDim, 0.25);
    std::vector<double> c = std::vector<double>(kDim * kDim);
    std::vector<double> dist = std::vector<double>(kGrid * kGrid);
    std::vector<Entry> frontier;  // a binary heap; every push relaxes an edge
  };
  static Buffers m = [] {
    Buffers made;
    uint32_t x = 12345;
    for (uint32_t& v : made.keys) {
      x = x * 1664525u + 1013904223u;
      v = x;
    }
    made.frontier.reserve(1 + 4 * kGrid * kGrid);
    return made;
  }();

  const auto slot_of = [](uint32_t key) {
    uint32_t s = (key * 2654435761u) & (kSlots - 1);
    while (m.slot_keys[s] != kEmpty && m.slot_keys[s] != key) {
      s = (s + 1) & (kSlots - 1);
    }
    return s;
  };
  // Returns whether the results make sense; they feed a check, so the
  // work cannot be optimised away.
  const auto run = [&slot_of]() {
    std::copy(m.keys.begin(), m.keys.end(), m.sorted.begin());
    std::sort(m.sorted.begin(), m.sorted.end());
    std::fill(m.slot_keys.begin(), m.slot_keys.end(), kEmpty);
    std::fill(m.slot_counts.begin(), m.slot_counts.end(), 0u);
    for (int i = 0; i < kKeys / 2; ++i) {
      const uint32_t s = slot_of(m.keys[i] & 0xffffu);
      m.slot_keys[s] = m.keys[i] & 0xffffu;
      ++m.slot_counts[s];
    }
    uint64_t hits = 0;
    for (uint32_t key : m.keys) hits += m.slot_counts[slot_of(key & 0xffffu)];

    std::fill(m.c.begin(), m.c.end(), 0.0);
    for (int rep = 0; rep < 6; ++rep) {
      for (int i = 0; i < kDim; ++i) {
        for (int k = 0; k < kDim; ++k) {
          const double aik = m.a[i * kDim + k];
          for (int j = 0; j < kDim; ++j) {
            m.c[i * kDim + j] += aik * m.b[k * kDim + j];
          }
        }
      }
    }

    std::fill(m.dist.begin(), m.dist.end(), 1e300);
    m.frontier.clear();
    m.dist[0] = 0.0;
    m.frontier.push_back({0.0, 0});
    while (!m.frontier.empty()) {
      std::pop_heap(m.frontier.begin(), m.frontier.end(), std::greater<>());
      const auto [d, u] = m.frontier.back();
      m.frontier.pop_back();
      if (d > m.dist[u]) continue;
      const int row = u / kGrid;
      const int col = u % kGrid;
      const int next[4] = {row > 0 ? u - kGrid : -1,
                           row < kGrid - 1 ? u + kGrid : -1,
                           col > 0 ? u - 1 : -1, col < kGrid - 1 ? u + 1 : -1};
      for (int v : next) {
        if (v < 0) continue;
        const double w = 1.0 + static_cast<double>(m.keys[v] % 7);
        if (d + w < m.dist[v]) {
          m.dist[v] = d + w;
          m.frontier.push_back({d + w, v});
          std::push_heap(m.frontier.begin(), m.frontier.end(),
                         std::greater<>());
        }
      }
    }
    return hits > 0 && m.sorted.front() <= m.sorted.back() && m.c[0] > 0.0 &&
           m.dist.back() < 1e300;
  };

  bool ok = run();
  const double start = NowSeconds();
  ok = run() && ok;
  const double elapsed = NowSeconds() - start;
  if (!ok) {
    std::fprintf(stderr, "perfbench: probe computed nonsense\n");
    std::exit(1);
  }
  return elapsed;
}

// The probe's 5th-percentile time on a quiet 4-vCPU Xeon host. The host
// that runs the benchmark is shared: its speed drifts by 30-75% for
// minutes at a time, longer than a run, and by tens of percent within
// one. Each run therefore times the probe next to its operations and
// reports every time at the reference speed, scaled by this over the
// probe time that applies: for a set-up or a training job, which run
// only a few times, the mean of the probes just before and just after
// it; for a request, of which the fastest of many runs counts, the run's
// 5th-percentile probe time.
constexpr double kProbeReferenceSeconds = 0.36e-3;

// Timed operations of one run: op k ran on input `input[k]` (a
// federation or a request), completed `items[k]` work items, and is
// brought to the reference speed with the probe time `probe[k]`.
struct Samples {
  std::vector<double> seconds;
  std::vector<double> probe;
  std::vector<size_t> input;
  std::vector<int64_t> items;

  void Add(double s, double p, size_t in, int64_t n) {
    seconds.push_back(s);
    probe.push_back(p);
    input.push_back(in);
    items.push_back(n);
  }
};

// Interference from the rest of the machine only ever adds time, and on
// a shared host it moves single operations and whole-run medians by tens
// of percent. Each input (a request or a federation) runs at least once
// and again as long as the run lasts (a request some fifty times, a
// federation once or twice), and its fastest run at the reference speed
// is taken as its cost; that removes the bursts repeated operations
// catch. The latency metrics are the median and 90th percentile of those
// costs across the inputs (at least 100, so ten or more lie beyond the
// 90th), and the rate is the work of one pass over all inputs divided by
// their summed cost.
void AddEndToEndMetrics(const Samples& samples, size_t inputs,
                        const std::vector<double>& setup_costs,
                        const std::vector<double>& probe_seconds,
                        Outcome* out) {
  std::vector<double> best(inputs, 0.0);
  std::vector<int64_t> items(inputs, 0);
  for (size_t k = 0; k < samples.seconds.size(); ++k) {
    const size_t i = samples.input[k];
    const double cost =
        samples.seconds[k] * kProbeReferenceSeconds / samples.probe[k];
    if (items[i] == 0 || cost < best[i]) best[i] = cost;
    items[i] = samples.items[k];
  }
  double pass_items = 0.0;
  double pass_seconds = 0.0;
  for (size_t i = 0; i < inputs; ++i) {
    pass_items += static_cast<double>(items[i]);
    pass_seconds += best[i];
  }
  std::fprintf(stderr,
               "perfbench: %zu ops on %zu inputs (the latency sample "
               "count), %zu set-ups, %zu probes (p5 %.4f ms, median "
               "%.4f ms)\n",
               samples.seconds.size(), inputs, setup_costs.size(),
               probe_seconds.size(), Quantile(probe_seconds, 0.05) * 1e3,
               Quantile(probe_seconds, 0.5) * 1e3);
  out->metrics = {
      {"p50_ms", Quantile(best, 0.5) * 1e3, "ms"},
      {"p90_ms", Quantile(best, 0.9) * 1e3, "ms"},
      {"items_per_s", pass_items / pass_seconds, "1/s"},
      {"setup_s", Quantile(setup_costs, 0.5), "s"},
  };
}

Outcome RunTimed(const Workload& workload, const Args& args) {
  Outcome out;
  // Set-up repeats at even intervals through the run and reports its
  // median. Every repeat must build the same serving model.
  std::vector<double> setup_costs;
  std::vector<nn::Scalar> first_model;
  const auto time_setup = [&]() {
    const double before = ProbeSeconds();
    const double start = NowSeconds();
    std::unique_ptr<Fixture> fixture = SetUp(workload, args.seed);
    const double seconds = NowSeconds() - start;
    setup_costs.push_back(seconds * kProbeReferenceSeconds /
                          (0.5 * (before + ProbeSeconds())));
    if (fixture->pipeline != nullptr) {
      std::vector<nn::Scalar> model =
          fixture->pipeline->global_model()->params().Flatten();
      if (!AllFinite(model) ||
          (!first_model.empty() && model != first_model)) {
        out.correct = false;
      }
      if (first_model.empty()) first_model = std::move(model);
    }
    return fixture;
  };
  const std::unique_ptr<Fixture> fixture = time_setup();
  const double setup_interval =
      args.seconds / (workload.kind == Kind::kTrain ? 32.0 : 8.0);
  double next_setup = 0.0;
  // Runs between operations: the probe before every eighth request (a
  // training job brings its own), and a set-up whenever one is due.
  std::vector<double> probe_seconds;
  size_t gaps = 0;
  const auto between_ops = [&]() {
    if (workload.kind == Kind::kServe && gaps++ % 8 == 0) {
      probe_seconds.push_back(ProbeSeconds());
    }
    if (NowSeconds() < next_setup) return;
    (void)time_setup();
    next_setup = NowSeconds() + setup_interval;
  };

  Samples samples;
  size_t inputs = 0;
  if (workload.kind == Kind::kTrain) {
    const eval::MethodRunOptions options = JobOptions(args.seed);
    inputs = fixture->federations.size();
    FirstJobs first(inputs);
    // One untimed job warms the allocators.
    (void)eval::RunFederatedMethod(*fixture->env, workload.model,
                                   fixture->federations[0], options);
    probe_seconds.push_back(ProbeSeconds());
    next_setup = NowSeconds() + setup_interval;
    Repeat(
        args.seconds, inputs,
        [&](size_t k) {
          const size_t f = k % inputs;
          const auto& clients = fixture->federations[f];
          const double before = probe_seconds.back();
          const double start = NowSeconds();
          const eval::MethodResult result = eval::RunFederatedMethod(
              *fixture->env, workload.model, clients, options);
          const double seconds = NowSeconds() - start;
          probe_seconds.push_back(ProbeSeconds());
          samples.Add(seconds, 0.5 * (before + probe_seconds.back()), f,
                      StepsPerJob(clients));
          out.Check(JobOk(result.metrics, result.run) &&
                    first.Match(f, result.metrics, result.run));
        },
        between_ops);
    if (!first.RecallOk()) out.correct = false;
  } else {
    fl::RecoveryModel* model = fixture->pipeline->global_model();
    const std::vector<Recovery> reference =
        ReferencePass(*fixture, model, &out);
    inputs = fixture->requests.size();
    next_setup = NowSeconds() + setup_interval;
    Repeat(
        args.seconds, inputs,
        [&](size_t k) {
          const size_t r = k % inputs;
          samples.Add(ServeOne(*fixture, model, reference, r, &out), 0.0, r,
                      1);
        },
        between_ops);
    std::fill(samples.probe.begin(), samples.probe.end(),
              Quantile(probe_seconds, 0.05));
  }
  AddEndToEndMetrics(samples, inputs, setup_costs, probe_seconds, &out);
  return out;
}

Outcome RunTraced(const Workload& workload, const Args& args) {
  Outcome out;
  Tracer tracer;
  const std::unique_ptr<Fixture> fixture = SetUp(workload, args.seed);
  const eval::ExperimentEnv& env = *fixture->env;
  const eval::MethodRunOptions options = JobOptions(args.seed);
  int64_t rounds = 0;
  int64_t wire_bytes = 0;
  const auto no_setup = [] {};

  if (workload.kind == Kind::kTrain) {
    FirstJobs first(fixture->federations.size());
    Repeat(
        args.seconds, 1,
        [&](size_t k) {
          const size_t f = k % fixture->federations.size();
          const auto& clients = fixture->federations[f];
          if (!first.Seen(f)) {
            // The untraced library path sets what the traced job must
            // reproduce.
            const eval::MethodResult result = eval::RunFederatedMethod(
                env, workload.model, clients, options);
            out.Check(JobOk(result.metrics, result.run) &&
                      first.Match(f, result.metrics, result.run));
          }
          const TrainedJob job =
              TrainTraced(env, workload.model, clients, options, &tracer);
          const eval::RecoveryMetrics metrics = eval::EvaluateRecovery(
              job.trainer->global_model(), env.network(),
              eval::ExperimentEnv::PooledTestSet(
                  clients, options.max_test_trajectories));
          out.Check(JobOk(metrics, job.run) && first.Match(f, metrics, job.run));
          rounds += job.run.comm.rounds;
          wire_bytes += job.run.comm.TotalBytes();
        },
        no_setup);
    if (!first.RecallOk()) out.correct = false;
  } else {
    // The traced model is trained like the set-up's pipeline model and
    // must equal it bitwise; it then serves the requests.
    const TrainedJob job = TrainTraced(
        env, workload.model, fixture->federations[0], options, &tracer);
    rounds = job.run.comm.rounds;
    wire_bytes = job.run.comm.TotalBytes();
    fl::RecoveryModel* traced = job.trainer->global_model();
    fl::RecoveryModel* library = fixture->pipeline->global_model();
    if (traced->params().Flatten() != library->params().Flatten()) {
      out.correct = false;
    }
    const std::vector<Recovery> reference =
        ReferencePass(*fixture, library, &out);
    const size_t n = fixture->requests.size();
    Repeat(
        args.seconds, 1,
        [&](size_t k) {
          (void)ServeOne(*fixture, traced, reference, k % n, &out);
        },
        no_setup);
  }
  if (ProbeEncoder(*fixture, &tracer) == 0) out.correct = false;

  const auto per_call_us = [&tracer](Layer layer) {
    const SpanTotals& totals = tracer.totals(layer);
    return totals.seconds * 1e6 /
           static_cast<double>(std::max<int64_t>(1, totals.calls));
  };
  const double steps = static_cast<double>(
      std::max<int64_t>(1, tracer.totals(Layer::kOptimizer).calls));
  const double round_count = static_cast<double>(std::max<int64_t>(1, rounds));
  out.metrics = {
      {"forward_us", per_call_us(Layer::kForward), "us"},
      {"recover_us", per_call_us(Layer::kRecover), "us"},
      // Local-update time outside forward, recover and optimizer calls:
      // autograd backward plus loss bookkeeping, per training step.
      {"backward_us",
       tracer.totals(Layer::kLocalUpdate).SelfSeconds() * 1e6 / steps, "us"},
      {"optimizer_us", per_call_us(Layer::kOptimizer), "us"},
      // Federated-loop time outside model calls and local updates: model
      // (de)serialization, wire frames and CRC, screening, aggregation.
      {"exchange_us",
       tracer.totals(Layer::kFederated).SelfSeconds() * 1e6 / round_count,
       "us"},
      {"encode_us", per_call_us(Layer::kEncode), "us"},
      {"route_us", per_call_us(Layer::kRoute), "us"},
      {"nearby_us", per_call_us(Layer::kNearby), "us"},
      {"wire_kib_per_round",
       static_cast<double>(wire_bytes) / round_count / 1024.0, "KiB"},
  };
  return out;
}

void PrintOutcome(const Outcome& out) {
  bool finite = true;
  for (const Metric& metric : out.metrics) {
    finite = finite && IsFinite(metric.value);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              out.correct && out.failed == 0 && finite ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& metric = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name,
                IsFinite(metric.value) ? metric.value : 0.0, metric.unit);
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: lighttr_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:");
  for (const Workload& workload : kWorkloads) {
    std::fprintf(stderr, " %s", workload.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace lighttr::perfbench

int main(int argc, char** argv) {
  using namespace lighttr::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) return Usage();
  // One executor everywhere: the serial reference path, which is also the
  // steadiest to time. Kernels resolve to AVX2+FMA where the CPU has it.
  lighttr::SetGlobalThreadCount(1);
  lighttr::nn::ActivateKernels(lighttr::nn::KernelMode::kAuto);
  const Outcome out =
      args.trace ? RunTraced(*workload, args) : RunTimed(*workload, args);
  PrintOutcome(out);
  return 0;
}
