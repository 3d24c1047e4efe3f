// Command-line experiment runner: train any method on any workload
// configuration without writing code.
//
//   ./build/examples/run_experiment --method=lighttr --dataset=geolife
//       --keep=0.125 --clients=8 --rounds=5 --epochs=2 --seed=42
//
// Methods: fc | rnn | mtrajrec | rntrajrec | lighttr | centralized
// Datasets: geolife | tdrive
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>

#include "common/parse_number.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "eval/harness.h"
#include "fl/adversary.h"
#include "fl/aggregation.h"
#include "fl/comm_stats.h"
#include "nn/kernels/kernels.h"

namespace {

using namespace lighttr;

// Every flag run_experiment reads. A boolean one stands bare or takes
// one of kBoolValues.
constexpr const char* kValueFlags[] = {
    "method", "dataset", "keep", "lr", "fraction", "clients", "rounds",
    "epochs", "traj-per-client", "grid", "seed", "checkpoint-dir",
    "checkpoint-every", "threads", "kernel", "quarantine-threshold",
    "clip-norm", "max-rollbacks", "net-drop", "net-corrupt", "net-delay",
    "net-dup", "net-reorder", "net-truncate", "net-retries", "net-seed",
    "aggregation", "byzantine-fraction", "adversary-count",
    "adversary-attack", "adversary-scale", "adversary-start",
    "adversary-seed"};
constexpr const char* kBoolFlags[] = {"resume", "health", "exclude-suspected"};
constexpr const char* kBoolValues[] = {"1", "true", "0", "false"};

// True when every argument is one of those flags: a misspelt one
// ("--round=3", "--helth", "--health=yes") is a usage error, not a run
// on the defaults.
bool AllFlagsKnown(int argc, char** argv) {
  const auto listed = [](const auto& list, const std::string& word) {
    return std::find(std::begin(list), std::end(list), word) !=
           std::end(list);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const bool bare = eq == std::string::npos;
    const std::string key = arg.substr(0, eq);
    const std::string name = key.rfind("--", 0) == 0 ? key.substr(2) : "";
    const bool known =
        listed(kBoolFlags, name)
            ? bare || listed(kBoolValues, arg.substr(eq + 1))
            : !bare && listed(kValueFlags, name);
    if (!known) {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return false;
    }
  }
  return true;
}

// Minimal --key=value parser (no external flag library). The first
// spelling of a repeated flag wins.
std::string FlagValue(int argc, char** argv, const std::string& key,
                      const std::string& fallback) {
  const std::string prefix = "--" + key + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

// Bare boolean flag: present as "--key" (or "--key=1" / "--key=true").
bool HasFlag(int argc, char** argv, const std::string& key) {
  const std::string bare = "--" + key;
  for (int i = 1; i < argc; ++i) {
    if (bare == argv[i]) return true;
  }
  const std::string value = FlagValue(argc, argv, key, "0");
  return value == "1" || value == "true";
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: run_experiment [--method=lighttr|fc|rnn|mtrajrec|rntrajrec|"
      "centralized]\n"
      "                      [--dataset=geolife|tdrive] [--keep=0.125]\n"
      "                      [--clients=8] [--rounds=5] [--epochs=2]\n"
      "                      [--traj-per-client=20] [--grid=9] [--seed=42]\n"
      "                      [--lr=0.003] [--fraction=1.0]\n"
      "                      [--checkpoint-dir=DIR] [--checkpoint-every=1]\n"
      "                      [--resume] [--threads=0] [--kernel=auto]\n"
      "                      [--health] [--quarantine-threshold=0.6]\n"
      "                      [--max-rollbacks=3] [--clip-norm=0]\n"
      "                      [--net-drop=0] [--net-corrupt=0] [--net-delay=0]\n"
      "                      [--net-dup=0] [--net-reorder=0]\n"
      "                      [--net-truncate=0] [--net-retries=3]\n"
      "                      [--net-seed=1592639710]\n"
      "                      [--aggregation=mean|median|trimmed|krum|\n"
      "                       multikrum|normbound] [--byzantine-fraction=0.25]\n"
      "                      [--exclude-suspected]\n"
      "                      [--adversary-count=0] [--adversary-attack=\n"
      "                       sign-flip|scaled-ascent|min-max|norm-matched]\n"
      "                      [--adversary-scale=10] [--adversary-start=1]\n"
      "                      [--adversary-seed=2915761665]\n"
      "\n"
      "Durability: --checkpoint-dir enables crash-safe snapshots under DIR\n"
      "every --checkpoint-every rounds, each carrying the round history so\n"
      "far; --resume restarts an interrupted run from the newest valid\n"
      "snapshot in DIR (federated methods only).\n"
      "\n"
      "Parallelism: --threads=N (at most 1024) trains the clients of each\n"
      "round on N executors and parallelizes large matrix products;\n"
      "results are bitwise identical for every N. --threads=1 forces the\n"
      "serial path; --threads=0 (default) uses LIGHTTR_THREADS or the\n"
      "hardware core count.\n"
      "\n"
      "Kernels: --kernel selects the math microkernels for GEMM and\n"
      "activation sweeps. auto (default) uses AVX2+FMA when the CPU\n"
      "supports it, else the scalar reference; scalar forces the\n"
      "reference loops; avx2 requests the vector path (falls back to\n"
      "scalar on machines without AVX2+FMA). Results are bitwise\n"
      "reproducible across runs and thread counts for a fixed kernel.\n"
      "\n"
      "Self-healing: --health turns on the round health monitor (divergence\n"
      "rollback + client quarantine, federated methods only);\n"
      "--quarantine-threshold sets the reputation score that quarantines a\n"
      "client; --max-rollbacks bounds divergence rollbacks before the run\n"
      "parks on its last healthy state. --clip-norm=C clips each local\n"
      "gradient to global L2 norm C before the optimizer step (0 = off).\n"
      "\n"
      "Transport: federated traffic travels as CRC32-framed messages over\n"
      "a simulated per-client channel with idempotent retries. --net-drop/\n"
      "--net-corrupt/--net-delay/--net-dup/--net-reorder/--net-truncate\n"
      "set per-frame fault probabilities in [0,1); --net-retries bounds\n"
      "retransmissions per exchange; --net-seed re-rolls the network's\n"
      "weather without touching any training draw.\n"
      "\n"
      "Byzantine robustness: --aggregation selects the server rule over\n"
      "screened uploads (federated methods only; mean is the paper's\n"
      "FedAvg). krum/multikrum assume --byzantine-fraction of each round's\n"
      "cohort is hostile and flag suspected poison; with\n"
      "--exclude-suspected the aggregate is the plain mean over the\n"
      "unflagged uploads instead of the Krum selection. Suspected flags\n"
      "feed the --health reputation ledger.\n"
      "\n"
      "Adversary (simulation only): --adversary-count compromises clients\n"
      "0..N-1, which train honestly and then rewrite their uploads with\n"
      "--adversary-attack from round --adversary-start on;\n"
      "--adversary-scale is the scaled-ascent multiplier.\n"
      "--adversary-seed re-rolls the attack weather without touching any\n"
      "training draw.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (!AllFlagsKnown(argc, argv)) return Usage();
  const std::string method = FlagValue(argc, argv, "method", "lighttr");
  const std::string dataset = FlagValue(argc, argv, "dataset", "geolife");
  const std::string checkpoint_dir =
      FlagValue(argc, argv, "checkpoint-dir", "");
  const bool resume = HasFlag(argc, argv, "resume");
  const bool health = HasFlag(argc, argv, "health");
  const bool exclude_suspected = HasFlag(argc, argv, "exclude-suspected");
  double keep = 0.0;
  double lr = 0.0;
  double fraction = 0.0;
  double quarantine_threshold = 0.0;
  double clip_norm = 0.0;
  int64_t clients_in = 0;
  int64_t rounds_in = 0;
  int64_t epochs_in = 0;
  int64_t traj_in = 0;
  int64_t grid_in = 0;
  uint64_t seed = 0;
  int64_t checkpoint_every_in = 0;
  int64_t threads_in = 0;
  int64_t max_rollbacks_in = 0;
  double net_drop = 0.0;
  double net_corrupt = 0.0;
  double net_delay = 0.0;
  double net_dup = 0.0;
  double net_reorder = 0.0;
  double net_truncate = 0.0;
  int64_t net_retries_in = 0;
  uint64_t net_seed = 0;
  double byzantine_fraction = 0.0;
  double adversary_scale = 0.0;
  int64_t adversary_count_in = 0;
  int64_t adversary_start_in = 0;
  uint64_t adversary_seed = 0;
  // Every number goes through the strict parser for its variable's type.
  const auto number = [argc, argv](const char* key, const char* fallback,
                                   auto* out) {
    return ParseNumber(FlagValue(argc, argv, key, fallback), out);
  };
  if (!number("keep", "0.125", &keep) || !number("lr", "0.003", &lr) ||
      !number("fraction", "1.0", &fraction) ||
      !number("clients", "8", &clients_in) ||
      !number("rounds", "5", &rounds_in) ||
      !number("epochs", "2", &epochs_in) ||
      !number("traj-per-client", "20", &traj_in) ||
      !number("grid", "9", &grid_in) || !number("seed", "42", &seed) ||
      !number("checkpoint-every", "1", &checkpoint_every_in) ||
      !number("threads", "0", &threads_in) ||
      !number("quarantine-threshold", "0.6", &quarantine_threshold) ||
      !number("clip-norm", "0", &clip_norm) ||
      !number("max-rollbacks", "3", &max_rollbacks_in) ||
      !number("net-drop", "0", &net_drop) ||
      !number("net-corrupt", "0", &net_corrupt) ||
      !number("net-delay", "0", &net_delay) ||
      !number("net-dup", "0", &net_dup) ||
      !number("net-reorder", "0", &net_reorder) ||
      !number("net-truncate", "0", &net_truncate) ||
      !number("net-retries", "3", &net_retries_in) ||
      !number("net-seed", "1592639710", &net_seed) ||
      !number("byzantine-fraction", "0.25", &byzantine_fraction) ||
      !number("adversary-scale", "10", &adversary_scale) ||
      !number("adversary-count", "0", &adversary_count_in) ||
      !number("adversary-start", "1", &adversary_start_in) ||
      !number("adversary-seed", "2915761665", &adversary_seed)) {
    return Usage();
  }
  // Strict spellings: an unknown aggregation rule or attack name is a
  // usage error, never a silent fallback to the default.
  fl::AggregatorPolicy aggregation = fl::AggregatorPolicy::kMean;
  if (!fl::ParseAggregatorPolicy(
          FlagValue(argc, argv, "aggregation", "mean"), &aggregation)) {
    std::fprintf(stderr, "unknown --aggregation value '%s'\n",
                 FlagValue(argc, argv, "aggregation", "mean").c_str());
    return Usage();
  }
  fl::AttackType adversary_attack = fl::AttackType::kSignFlip;
  const std::string attack_text =
      FlagValue(argc, argv, "adversary-attack", "sign-flip");
  if (!fl::ParseAttackType(attack_text, &adversary_attack)) {
    std::fprintf(stderr, "unknown --adversary-attack value '%s'\n",
                 attack_text.c_str());
    return Usage();
  }
  // Every range check states what is valid, so NaN fails it too. Fault
  // probabilities live in [0,1): a rate of exactly 1.0 on every frame
  // can never complete a round, which is a test scenario, not an
  // experiment. Integer flags are checked before they narrow to int, so
  // a value past INT_MAX is rejected rather than wrapped into another
  // experiment.
  const auto valid_rate = [](double rate) { return rate >= 0.0 && rate < 1.0; };
  const auto valid_int = [](int64_t value, int64_t min) {
    return value >= min && value <= INT_MAX;
  };
  const bool valid =
      keep > 0.0 && keep <= 1.0 && lr > 0.0 && fraction > 0.0 &&
      fraction <= 1.0 && valid_int(clients_in, 1) && valid_int(rounds_in, 1) &&
      valid_int(epochs_in, 1) && valid_int(traj_in, 1) &&
      valid_int(grid_in, 3) && valid_int(checkpoint_every_in, 1) &&
      valid_int(threads_in, 0) && threads_in <= kMaxThreads &&
      quarantine_threshold > 0.0 &&
      quarantine_threshold <= 1.0 && clip_norm >= 0.0 &&
      valid_int(max_rollbacks_in, 0) && valid_rate(net_drop) &&
      valid_rate(net_corrupt) && valid_rate(net_delay) &&
      valid_rate(net_dup) && valid_rate(net_reorder) &&
      valid_rate(net_truncate) && valid_int(net_retries_in, 0) &&
      byzantine_fraction >= 0.0 && byzantine_fraction < 1.0 &&
      adversary_scale > 0.0 && valid_int(adversary_count_in, 0) &&
      adversary_count_in <= clients_in && valid_int(adversary_start_in, 1);
  if (!valid) return Usage();
  const int clients_n = static_cast<int>(clients_in);
  const int rounds = static_cast<int>(rounds_in);
  const int epochs = static_cast<int>(epochs_in);
  const int traj_per_client = static_cast<int>(traj_in);
  const int grid = static_cast<int>(grid_in);
  const int checkpoint_every = static_cast<int>(checkpoint_every_in);
  const int threads = static_cast<int>(threads_in);
  const int max_rollbacks = static_cast<int>(max_rollbacks_in);
  nn::KernelMode kernel_mode;
  if (!nn::ParseKernelMode(FlagValue(argc, argv, "kernel", "auto"),
                           &kernel_mode)) {
    return Usage();
  }
  // The kernel mode is process-global and only entry points select it;
  // the library never changes it.
  nn::ActivateKernels(kernel_mode);
  // Size the global pool (GEMM row splits) to match the request; the
  // federated trainer gets its own pool via options.fed.threads.
  SetGlobalThreadCount(ResolveThreadCount(threads));
  if ((resume || checkpoint_every != 1) && checkpoint_dir.empty()) {
    std::fprintf(stderr,
                 "--resume/--checkpoint-every need --checkpoint-dir\n");
    return Usage();
  }

  baselines::ModelKind kind;
  bool centralized = false;
  if (method == "fc") {
    kind = baselines::ModelKind::kFc;
  } else if (method == "rnn") {
    kind = baselines::ModelKind::kRnn;
  } else if (method == "mtrajrec") {
    kind = baselines::ModelKind::kMTrajRec;
  } else if (method == "rntrajrec") {
    kind = baselines::ModelKind::kRnTrajRec;
  } else if (method == "lighttr") {
    kind = baselines::ModelKind::kLightTr;
  } else if (method == "centralized") {
    kind = baselines::ModelKind::kMTrajRec;
    centralized = true;
  } else {
    return Usage();
  }

  traj::WorkloadProfile profile;
  if (dataset == "geolife") {
    profile = traj::GeolifeLikeProfile();
  } else if (dataset == "tdrive") {
    profile = traj::TdriveLikeProfile();
  } else {
    return Usage();
  }
  profile.trajectories_per_client = traj_per_client;

  std::printf("method=%s dataset=%s keep=%.4f clients=%d rounds=%d "
              "epochs=%d grid=%dx%d seed=%llu\n",
              method.c_str(), dataset.c_str(), keep, clients_n, rounds,
              epochs, grid, grid, static_cast<unsigned long long>(seed));

  eval::ExperimentEnv env(grid, grid, seed);
  traj::FederatedWorkloadOptions workload;
  workload.num_clients = clients_n;
  workload.keep_ratio = keep;
  const auto clients = env.MakeWorkload(profile, workload, seed + 1);

  eval::MethodResult result;
  if (centralized) {
    if (!checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "note: --checkpoint-dir only applies to federated "
                   "methods; ignoring it for --method=centralized\n");
    }
    if (adversary_count_in > 0 || aggregation != fl::AggregatorPolicy::kMean) {
      std::fprintf(stderr,
                   "note: --adversary-*/--aggregation only apply to "
                   "federated methods; ignoring them for "
                   "--method=centralized\n");
    }
    if (health) {
      std::fprintf(stderr,
                   "note: --health only applies to federated methods; "
                   "ignoring it for --method=centralized\n");
    }
    result = eval::RunCentralizedMethod(env, kind, clients,
                                        rounds * epochs, lr,
                                        /*max_test_trajectories=*/100,
                                        seed + 2);
  } else {
    eval::MethodRunOptions options;
    options.fed.rounds = rounds;
    options.fed.local_epochs = epochs;
    options.fed.learning_rate = lr;
    options.fed.client_fraction = fraction;
    options.fed.seed = seed + 3;
    options.fed.durability.dir = checkpoint_dir;
    options.fed.durability.snapshot_every = checkpoint_every;
    options.fed.durability.resume = resume;
    options.fed.threads = threads;
    options.fed.healing.enabled = health;
    options.fed.healing.reputation.quarantine_threshold = quarantine_threshold;
    options.fed.healing.max_rollbacks = max_rollbacks;
    options.fed.clip_norm = clip_norm;
    options.fed.transport.channel_seed = net_seed;
    options.fed.transport.channel.drop_rate = net_drop;
    options.fed.transport.channel.corrupt_rate = net_corrupt;
    options.fed.transport.channel.delay_rate = net_delay;
    options.fed.transport.channel.duplicate_rate = net_dup;
    options.fed.transport.channel.reorder_rate = net_reorder;
    options.fed.transport.channel.truncate_rate = net_truncate;
    options.fed.transport.retry.max_retries =
        static_cast<int>(net_retries_in);
    options.fed.tolerance.aggregator.policy = aggregation;
    options.fed.tolerance.aggregator.byzantine_fraction = byzantine_fraction;
    options.fed.tolerance.aggregator.exclude_suspected = exclude_suspected;
    options.fed.adversary.num_attackers = static_cast<int>(adversary_count_in);
    options.fed.adversary.attack = adversary_attack;
    options.fed.adversary.start_round = static_cast<int>(adversary_start_in);
    options.fed.adversary.ascent_scale = adversary_scale;
    options.fed.adversary.seed = adversary_seed;
    options.teacher.learning_rate = lr;
    options.max_test_trajectories = 100;
    result = eval::RunFederatedMethod(env, kind, clients, options);
  }

  TablePrinter table({"Metric", "Value"});
  table.AddRow({"Method", result.method});
  table.AddRow({"Recall", TablePrinter::Fmt(result.metrics.recall)});
  table.AddRow({"Precision", TablePrinter::Fmt(result.metrics.precision)});
  table.AddRow({"MAE (km)", TablePrinter::Fmt(result.metrics.mae_km)});
  table.AddRow({"RMSE (km)", TablePrinter::Fmt(result.metrics.rmse_km)});
  table.AddRow({"Points", std::to_string(result.metrics.recovered_points)});
  table.AddRow({"Wall (s)", TablePrinter::Fmt(result.wall_seconds, 1)});
  if (result.run.comm.rounds > 0) {
    table.AddRow({"Comm (KiB)",
                  TablePrinter::Fmt(
                      static_cast<double>(result.run.comm.TotalBytes()) / 1024.0,
                      0)});
  }
  // Adds one row per counter of `block`, labelled and ordered by
  // fl::kCounters.
  const fl::FaultStats& faults = result.run.faults;
  const auto add_counter_rows = [&](fl::CounterBlock block) {
    for (const fl::CounterSpec& counter : fl::kCounters) {
      if (counter.block == block) {
        table.AddRow({counter.label, std::to_string(faults[counter.id])});
      }
    }
  };
  // The network and storage blocks show only when one of their counters
  // fired.
  for (const fl::CounterBlock block :
       {fl::CounterBlock::kNet, fl::CounterBlock::kStorage}) {
    bool fired = false;
    for (const fl::CounterSpec& counter : fl::kCounters) {
      fired = fired || (counter.block == block && faults[counter.id] > 0);
    }
    if (fired) add_counter_rows(block);
  }
  // Attack/defense telemetry: shown whenever either side is in play so
  // a defended-vs-undefended pair of runs prints comparable tables.
  if (!centralized && (adversary_count_in > 0 ||
                       aggregation != fl::AggregatorPolicy::kMean)) {
    table.AddRow({"Aggregation", fl::AggregatorPolicyName(aggregation)});
    if (adversary_count_in > 0) {
      table.AddRow({"Attack", fl::AttackTypeName(adversary_attack)});
      table.AddRow({"Attackers",
                    std::to_string(static_cast<int>(adversary_count_in))});
    }
    add_counter_rows(fl::CounterBlock::kAttack);
  }
  if (health && !centralized) {
    add_counter_rows(fl::CounterBlock::kHealth);
    table.AddRow({"Gave up", result.run.gave_up ? "yes" : "no"});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}
