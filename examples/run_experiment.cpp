// Command-line experiment runner: train any method on any workload
// configuration without writing code.
//
//   ./build/examples/run_experiment --method=lighttr --dataset=geolife
//       --keep=0.125 --clients=8 --rounds=5 --epochs=2 --seed=42
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>

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

struct Method {
  const char* name;
  baselines::ModelKind kind;
  bool centralized;
};
using baselines::ModelKind;
constexpr Method kMethods[] = {
    {"lighttr", ModelKind::kLightTr, false}, {"fc", ModelKind::kFc, false},
    {"rnn", ModelKind::kRnn, false}, {"mtrajrec", ModelKind::kMTrajRec, false},
    {"rntrajrec", ModelKind::kRnTrajRec, false},
    {"centralized", ModelKind::kMTrajRec, true}};

struct Dataset {
  const char* name;
  traj::WorkloadProfile (*profile)();
};
constexpr Dataset kDatasets[] = {{"geolife", &traj::GeolifeLikeProfile},
                                 {"tdrive", &traj::TdriveLikeProfile}};

// Everything the flags set, at the defaults: run_experiment's own
// settings beside the library options the other flags write into.
struct Config {
  Method method = kMethods[0];
  Dataset dataset = kDatasets[0];
  int traj_per_client = 20;
  int grid = 9;
  uint64_t seed = 42;
  nn::KernelMode kernel = nn::KernelMode::kAuto;
  traj::FederatedWorkloadOptions workload{.num_clients = 8};
  eval::MethodRunOptions run = [] {
    eval::MethodRunOptions options;
    options.fed.rounds = 5;
    options.fed.learning_rate = 0.003;
    options.fed.adversary.attack = fl::AttackType::kSignFlip;
    options.max_test_trajectories = 100;
    return options;
  }();
};

// Every value of the field's type. The synopsis shows the default, or
// for a string `placeholder`. A bool is a switch: "--name", or =1, =true,
// =0 or =false.
struct Any {
  const char* placeholder = nullptr;
};

// A name `parse` reads; `names` lists them for the usage synopsis.
template <typename Enum>
struct Named {
  const char* names;
  bool (*parse)(const std::string&, Enum*);
};

// Which methods read a flag: all, or only federated ones.
enum Readers { kAll, kFed };

// The flag table, one line per flag: its name, the field it sets, the
// values it accepts and which methods read it. The parse, the usage
// synopsis and a centralized run's note walk it; a new flag is one line.
template <typename C, typename Visit>
void ForEachFlag(C& c, Visit&& flag) {
  const Range kCount{1, INT_MAX};
  const Range kNonNegative{0, INT_MAX};
  const Range kShare{0, 1, /*open_min=*/true};
  // Fault probabilities live in [0, 1): a rate of exactly 1.0 on every
  // frame can never complete a round, which is a test scenario, not an
  // experiment.
  const Range kRate{0, std::nextafter(1.0, 0.0)};
  const Range kPositive{0, DBL_MAX, /*open_min=*/true};
  auto& fed = c.run.fed;
  auto& net = fed.transport.channel;
  auto& aggregator = fed.tolerance.aggregator;
  auto& adversary = fed.adversary;
  flag("method", c.method, kMethods, kAll);
  flag("dataset", c.dataset, kDatasets, kAll);
  flag("keep", c.workload.keep_ratio, kShare, kAll);
  flag("clients", c.workload.num_clients, kCount, kAll);
  flag("rounds", fed.rounds, kCount, kAll);
  flag("epochs", fed.local_epochs, kCount, kAll);
  flag("traj-per-client", c.traj_per_client, kCount, kAll);
  flag("grid", c.grid, Range{3, INT_MAX}, kAll);
  flag("seed", c.seed, Any{}, kAll);
  flag("lr", fed.learning_rate, kPositive, kAll);
  flag("fraction", fed.client_fraction, kShare, kFed);
  flag("checkpoint-dir", fed.durability.dir, Any{"DIR"}, kFed);
  flag("checkpoint-every", fed.durability.snapshot_every, kCount, kFed);
  flag("resume", fed.durability.resume, Any{}, kFed);
  flag("threads", fed.threads, Range{0, kMaxThreads}, kAll);
  flag("kernel", c.kernel, Named{"auto|scalar|avx2", &nn::ParseKernelMode},
       kAll);
  flag("health", fed.healing.enabled, Any{}, kFed);
  flag("quarantine-threshold", fed.healing.reputation.quarantine_threshold,
       kShare, kFed);
  flag("max-rollbacks", fed.healing.max_rollbacks, kNonNegative, kFed);
  flag("clip-norm", fed.clip_norm, Range{0, DBL_MAX}, kFed);
  flag("net-drop", net.drop_rate, kRate, kFed);
  flag("net-corrupt", net.corrupt_rate, kRate, kFed);
  flag("net-delay", net.delay_rate, kRate, kFed);
  flag("net-dup", net.duplicate_rate, kRate, kFed);
  flag("net-reorder", net.reorder_rate, kRate, kFed);
  flag("net-truncate", net.truncate_rate, kRate, kFed);
  flag("net-retries", fed.transport.retry.max_retries, kNonNegative, kFed);
  flag("net-seed", fed.transport.channel_seed, Any{}, kFed);
  flag("aggregation", aggregator.policy,
       Named{"mean|median|trimmed|krum|multikrum|normbound",
             &fl::ParseAggregatorPolicy},
       kFed);
  flag("byzantine-fraction", aggregator.byzantine_fraction, kRate, kFed);
  flag("exclude-suspected", aggregator.exclude_suspected, Any{}, kFed);
  flag("adversary-count", adversary.num_attackers, kNonNegative, kFed);
  flag("adversary-attack", adversary.attack,
       Named{"sign-flip|scaled-ascent|min-max|norm-matched",
             &fl::ParseAttackType},
       kFed);
  flag("adversary-scale", adversary.ascent_scale, kPositive, kFed);
  flag("adversary-start", adversary.start_round, kCount, kFed);
  flag("adversary-seed", adversary.seed, Any{}, kFed);
}

// Reads one flag's value into its field; false when the flag refuses it.
template <typename Number>  // int or double
bool Parse(const std::string& text, Number* out, Range range) {
  return ParseNumber(text, out, range);
}

bool Parse(const std::string& text, uint64_t* out, Any) {
  return ParseNumber(text, out);
}

bool Parse(const std::string& text, std::string* out, Any) {
  *out = text;
  return true;
}

bool Parse(const std::string& text, bool* out, Any) {
  const bool on = text == "1" || text == "true";
  if (!on && text != "0" && text != "false") return false;
  *out = on;
  return true;
}

template <typename Enum>
bool Parse(const std::string& text, Enum* out, const Named<Enum>& named) {
  return named.parse(text, out);
}

template <typename Choice, size_t N>
bool Parse(const std::string& text, Choice* out, const Choice (&choices)[N]) {
  for (const Choice& choice : choices) {
    if (text == choice.name) {
      *out = choice;
      return true;
    }
  }
  return false;
}

// What the usage synopsis shows for a flag's value: its names, else its
// default.
template <typename Field, typename Accepted>
std::string Shown(const Field& value, const Accepted&) {
  std::ostringstream text;
  text << value;
  return text.str();
}

std::string Shown(const std::string&, Any any) { return any.placeholder; }

template <typename Enum>
std::string Shown(Enum, const Named<Enum>& named) { return named.names; }

template <typename Choice, size_t N>
std::string Shown(const Choice&, const Choice (&choices)[N]) {
  std::string names;
  for (const Choice& choice : choices) {
    names += (names.empty() ? "" : "|") + std::string(choice.name);
  }
  return names;
}

int Usage() {
  Config defaults;
  std::string synopsis = "usage: run_experiment";
  size_t line_start = 0;
  ForEachFlag(defaults, [&](const char* name, const auto& field,
                            const auto& accepted, Readers) {
    std::string entry = std::string(" [--") + name;
    if constexpr (!std::is_same_v<std::decay_t<decltype(field)>, bool>) {
      entry += "=" + Shown(field, accepted);
    }
    entry += "]";
    if (synopsis.size() - line_start + entry.size() > 78) {
      line_start = synopsis.size() + 1;
      synopsis += "\n                     ";
    }
    synopsis += entry;
  });
  std::fprintf(
      stderr,
      "%s\n"
      "\n"
      "A switch also takes =1, =true, =0 or =false. README.md describes\n"
      "every flag.\n",
      synopsis.c_str());
  return 2;
}

// Reads the arguments into `config`, and the flags they give into `given`.
// Each must spell a flag. The first spelling of a flag sets it; a later
// one is only checked for its form. False, after saying why, on an error.
bool ParseFlags(int argc, char** argv, Config* config,
                std::set<std::string>* given) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const bool bare = eq == std::string::npos;
    const std::string name = arg.rfind("--", 0) == 0 ? arg.substr(2, eq - 2)
                                                     : std::string();
    // A bare switch reads as "true"; a bare value flag is refused below.
    const std::string value = bare ? "true" : arg.substr(eq + 1);
    const char* error = "unknown flag";
    ForEachFlag(*config, [&](const char* flag, auto& field,
                             const auto& accepted, Readers) {
      if (name != flag) return;
      if constexpr (std::is_same_v<std::decay_t<decltype(field)>, bool>) {
        bool on = false;  // every spelling of a switch is checked
        if (!Parse(value, &on, accepted)) return;
      } else if (bare) {
        return;
      }
      const bool first = given->insert(name).second;
      error = first && !Parse(value, &field, accepted) ? "bad value in flag"
                                                       : nullptr;
    });
    if (error != nullptr) {
      std::fprintf(stderr, "%s '%s'\n", error, argv[i]);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  std::set<std::string> given;
  if (!ParseFlags(argc, argv, &config, &given)) return Usage();
  fl::FederatedTrainerOptions& fed = config.run.fed;
  if ((fed.durability.resume || fed.durability.snapshot_every != 1) &&
      fed.durability.dir.empty()) {
    std::fprintf(stderr, "--resume/--checkpoint-every need --checkpoint-dir\n");
    return Usage();
  }
  if (fed.adversary.num_attackers > config.workload.num_clients) {
    std::fprintf(stderr, "--adversary-count exceeds --clients\n");
    return Usage();
  }
  // A centralized run trains rounds x epochs epochs, counted in an int.
  if (config.method.centralized &&
      int64_t{fed.rounds} * fed.local_epochs > INT_MAX) {
    std::fprintf(stderr, "--rounds x --epochs exceeds %d for "
                         "--method=centralized\n", INT_MAX);
    return Usage();
  }
  // The kernel mode is process-global and only entry points select it;
  // the library never changes it.
  nn::ActivateKernels(config.kernel);
  // Size the global pool (GEMM row splits) to match the request; the
  // federated trainer gets its own pool via fed.threads.
  SetGlobalThreadCount(ResolveThreadCount(fed.threads));

  traj::WorkloadProfile profile = config.dataset.profile();
  profile.trajectories_per_client = config.traj_per_client;
  const Method& method = config.method;
  std::printf("method=%s dataset=%s keep=%.4f clients=%d rounds=%d "
              "epochs=%d grid=%dx%d seed=%llu\n",
              method.name, config.dataset.name, config.workload.keep_ratio,
              config.workload.num_clients, fed.rounds, fed.local_epochs,
              config.grid, config.grid,
              static_cast<unsigned long long>(config.seed));

  eval::ExperimentEnv env(config.grid, config.grid, config.seed);
  const auto clients =
      env.MakeWorkload(profile, config.workload, config.seed + 1);

  eval::MethodResult result;
  if (method.centralized) {
    std::string ignored;
    ForEachFlag(config, [&](const char* name, const auto&, const auto&,
                            Readers readers) {
      if (readers == kFed && given.count(name) > 0) {
        ignored += std::string(" --") + name;
      }
    });
    if (!ignored.empty()) {
      std::fprintf(stderr, "note: --method=centralized ignores the "
                           "federated-only flags%s\n", ignored.c_str());
    }
    result = eval::RunCentralizedMethod(
        env, method.kind, clients, fed.rounds * fed.local_epochs,
        fed.learning_rate, config.run.max_test_trajectories, config.seed + 2);
  } else {
    fed.seed = config.seed + 3;
    config.run.teacher.learning_rate = fed.learning_rate;
    result = eval::RunFederatedMethod(env, method.kind, clients, config.run);
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
    const double kib = static_cast<double>(result.run.comm.TotalBytes()) / 1024;
    table.AddRow({"Comm (KiB)", TablePrinter::Fmt(kib, 0)});
  }
  // Adds one row per counter of `block`, labelled and ordered by
  // fl::kCounters, when `shown` or when one of those counters fired.
  const fl::FaultStats& faults = result.run.faults;
  const auto add_counter_rows = [&](fl::CounterBlock block, bool shown) {
    for (const fl::CounterSpec& counter : fl::kCounters) {
      shown = shown || (counter.block == block && faults[counter.id] > 0);
    }
    for (const fl::CounterSpec& counter : fl::kCounters) {
      if (shown && counter.block == block) {
        table.AddRow({counter.label, std::to_string(faults[counter.id])});
      }
    }
  };
  add_counter_rows(fl::CounterBlock::kNet, false);
  add_counter_rows(fl::CounterBlock::kStorage, false);
  // Attack/defense telemetry: shown whenever either side is in play so
  // a defended-vs-undefended pair of runs prints comparable tables.
  const fl::AdversaryConfig& adversary = fed.adversary;
  const fl::AggregatorPolicy aggregation = fed.tolerance.aggregator.policy;
  if (!method.centralized && (adversary.num_attackers > 0 ||
                              aggregation != fl::AggregatorPolicy::kMean)) {
    table.AddRow({"Aggregation", fl::AggregatorPolicyName(aggregation)});
    if (adversary.num_attackers > 0) {
      table.AddRow({"Attack", fl::AttackTypeName(adversary.attack)});
      table.AddRow({"Attackers", std::to_string(adversary.num_attackers)});
    }
    add_counter_rows(fl::CounterBlock::kAttack, true);
  }
  if (fed.healing.enabled && !method.centralized) {
    add_counter_rows(fl::CounterBlock::kHealth, true);
    table.AddRow({"Gave up", result.run.gave_up ? "yes" : "no"});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}
