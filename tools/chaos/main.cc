// lighttr-chaos: deterministic chaos campaign runner.
//
// Samples seeded scenarios across every fault axis (storage faults,
// hostile network, injected crashes, client faults, self-healing,
// model-poisoning adversary), runs short federated training on a
// fault-injecting in-memory filesystem, checks the chaos invariant
// library, and shrinks any violation to a minimal repro replayable via
// --repro.
//
// Usage:
//   lighttr-chaos [--scenarios=N] [--seed=S] [--no-shrink]
//                 [--plant=leak-tmp|stealth-poison]
//                 [--repro="seed=... ..."]
//
// Exit status:
//   normal mode   0 iff every scenario satisfied every invariant
//   --plant mode  0 iff the planted bug was caught, shrunk to a repro
//                 with at most two fault axes, and that repro replayed
//   --repro mode  0 iff the replayed scenario satisfied every invariant
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "chaos/campaign.h"
#include "chaos/scenario.h"
#include "common/parse_number.h"
#include "nn/kernels/kernels.h"

namespace {

using lighttr::chaos::AxisCount;
using lighttr::chaos::CampaignOptions;
using lighttr::chaos::CampaignResult;
using lighttr::chaos::ChaosScenario;
using lighttr::chaos::FailingCase;
using lighttr::chaos::FormatRepro;
using lighttr::chaos::ParseRepro;
using lighttr::chaos::PlantedBug;
using lighttr::chaos::RunCampaign;
using lighttr::chaos::RunScenario;
using lighttr::chaos::ScenarioReport;

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--scenarios=N] [--seed=S] [--no-shrink]\n"
      "          [--plant=leak-tmp|stealth-poison]\n"
      "          [--repro=\"seed=... ...\"]\n"
      "          [--kernel=auto|scalar|avx2]\n"
      "\n"
      "Runs N seeded chaos scenarios across all fault axes and checks the\n"
      "invariant library; failures are shrunk to minimal repros. --plant\n"
      "injects a known bug and verifies the campaign catches and shrinks\n"
      "it; --repro replays one scenario from its repro string. --kernel\n"
      "selects the math microkernels (determinism invariants must hold\n"
      "for every kernel).\n",
      argv0);
}

void PrintProgress(int index, const ScenarioReport& report) {
  std::printf(
      "scenario %3d  axes=%d%s%s  rounds=%d  violations=%zu digest=%08x\n",
      index, AxisCount(report.scenario), report.crash_fired ? " crash" : "",
      report.fresh_restart ? "+fresh-restart" : "", report.rounds_completed,
      report.violations.size(), report.digest);
}

void PrintViolations(const ScenarioReport& report) {
  for (const lighttr::chaos::InvariantViolation& violation :
       report.violations) {
    std::printf("  VIOLATION [%s] %s\n", violation.label.c_str(),
                violation.detail.c_str());
  }
}

int RunReproMode(const std::string& repro) {
  const lighttr::Result<ChaosScenario> parsed = ParseRepro(repro);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad --repro: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const ScenarioReport report = RunScenario(parsed.value());
  std::printf("repro: %s\n", FormatRepro(report.scenario).c_str());
  std::printf("axes=%d crash_fired=%d rounds=%d violations=%zu digest=%08x\n",
              AxisCount(report.scenario), report.crash_fired ? 1 : 0,
              report.rounds_completed, report.violations.size(),
              report.digest);
  PrintViolations(report);
  return report.ok() ? 0 : 1;
}

int RunCampaignMode(const CampaignOptions& options) {
  const CampaignResult result = RunCampaign(options);
  std::printf("campaign: %d scenarios, %d crashes fired, %zu failing\n",
              result.scenarios_run, result.crashes_fired,
              result.failures.size());
  for (const FailingCase& failing : result.failures) {
    std::printf("failing scenario: %s\n",
                FormatRepro(failing.report.scenario).c_str());
    PrintViolations(failing.report);
    std::printf("  shrunk (%d evaluations, %d axes): %s\n",
                failing.shrink_evaluations, AxisCount(failing.minimal),
                FormatRepro(failing.minimal).c_str());
    std::printf("  replay with: --repro=\"%s\"\n",
                FormatRepro(failing.minimal).c_str());
  }

  if (options.plant == PlantedBug::kNone) {
    return result.failures.empty() ? 0 : 1;
  }

  // Plant mode: the campaign must CATCH the planted bug, SHRINK it to a
  // small repro, and the repro must REPLAY deterministically.
  if (result.failures.empty()) {
    std::printf("plant-check: FAILED (planted bug not caught)\n");
    return 1;
  }
  const FailingCase& first = result.failures[0];
  const int axes = AxisCount(first.minimal);
  if (options.shrink && axes > 2) {
    std::printf("plant-check: FAILED (shrunk repro still has %d axes)\n",
                axes);
    return 1;
  }
  const std::string repro = FormatRepro(first.minimal);
  const lighttr::Result<ChaosScenario> round_trip = ParseRepro(repro);
  if (!round_trip.ok()) {
    std::printf("plant-check: FAILED (repro does not parse: %s)\n",
                round_trip.status().ToString().c_str());
    return 1;
  }
  const ScenarioReport replay = RunScenario(round_trip.value());
  bool reproduced = false;
  for (const lighttr::chaos::InvariantViolation& violation :
       replay.violations) {
    if (violation.label == first.report.violations[0].label) {
      reproduced = true;
      break;
    }
  }
  if (!reproduced) {
    std::printf("plant-check: FAILED (shrunk repro did not replay)\n");
    return 1;
  }
  std::printf("plant-check: OK (caught, shrunk to %d axes, replayed)\n", axes);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignOptions options;
  options.progress = PrintProgress;
  std::string repro;
  bool repro_mode = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--scenarios=", 0) == 0) {
      if (!lighttr::ParseNumber(value_of("--scenarios="), &options.scenarios,
                                lighttr::Range{1, 1'000'000})) {
        std::fprintf(stderr, "bad --scenarios value\n");
        return 2;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!lighttr::ParseNumber(value_of("--seed="), &options.seed)) {
        std::fprintf(stderr, "bad --seed value\n");
        return 2;
      }
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg.rfind("--plant=", 0) == 0) {
      const std::string bug = value_of("--plant=");
      if (bug == lighttr::chaos::PlantedBugName(PlantedBug::kLeakTmp)) {
        options.plant = PlantedBug::kLeakTmp;
      } else if (bug == lighttr::chaos::PlantedBugName(
                            PlantedBug::kStealthPoison)) {
        options.plant = PlantedBug::kStealthPoison;
      } else {
        std::fprintf(stderr, "unknown --plant bug '%s'\n", bug.c_str());
        return 2;
      }
    } else if (arg.rfind("--repro=", 0) == 0) {
      repro = value_of("--repro=");
      repro_mode = true;
    } else if (arg.rfind("--kernel=", 0) == 0) {
      lighttr::nn::KernelMode mode;
      if (!lighttr::nn::ParseKernelMode(value_of("--kernel="), &mode)) {
        std::fprintf(stderr, "bad --kernel value\n");
        return 2;
      }
      lighttr::nn::ActivateKernels(mode);
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  if (repro_mode) return RunReproMode(repro);
  return RunCampaignMode(options);
}
