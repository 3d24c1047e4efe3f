// Hostile-network sweep for the wire-level transport: the same federated
// LightTR run over a grid of channel fault models — clean, drop-heavy,
// corrupt-heavy, delay-heavy, and a combined storm — measuring wall
// time, exact wire traffic, retry/timeout/dedup telemetry, and goodput
// (the clean run's wire bytes over the faulted run's: how much extra
// traffic the weather extracted).
//
// Expected shape: every faulted run still completes all rounds (the
// retry budget rides out the weather) and lands on a finite model;
// goodput degrades as fault rates rise.
//
// Emits a human table plus BENCH_transport.json, and exits non-zero if
// any run fails to complete or ends on a non-finite model.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/model_zoo.h"
#include "bench/bench_output.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "eval/harness.h"
#include "fl/federated_trainer.h"
#include "nn/parameter.h"

namespace {

using namespace lighttr;

struct FaultCase {
  std::string name;
  fl::transport::ChannelFaultConfig channel;
};

std::vector<FaultCase> FaultGrid() {
  std::vector<FaultCase> grid;
  grid.push_back({"clean", {}});
  {
    fl::transport::ChannelFaultConfig c;
    c.drop_rate = 0.25;
    grid.push_back({"drop25", c});
  }
  {
    fl::transport::ChannelFaultConfig c;
    c.corrupt_rate = 0.25;
    grid.push_back({"corrupt25", c});
  }
  {
    fl::transport::ChannelFaultConfig c;
    c.delay_rate = 0.2;
    grid.push_back({"delay20", c});
  }
  {
    fl::transport::ChannelFaultConfig c;
    c.drop_rate = 0.15;
    c.corrupt_rate = 0.15;
    c.duplicate_rate = 0.1;
    c.reorder_rate = 0.1;
    c.delay_rate = 0.1;
    grid.push_back({"storm", c});
  }
  return grid;
}

struct RunOutcome {
  fl::FederatedRunResult run;
  double seconds = 0.0;
  bool finite = false;
};

std::string JsonRow(const std::string& section, const RunOutcome& outcome,
                    double goodput) {
  const fl::FaultStats& f = outcome.run.faults;
  char buffer[448];
  std::snprintf(
      buffer, sizeof(buffer),
      "  {\"section\": \"%s\", \"seconds\": %.3f, \"rounds\": %lld, "
      "\"uplink_bytes\": %lld, \"downlink_bytes\": %lld, "
      "\"messages\": %lld, \"net_retries\": %lld, \"net_timeouts\": %lld, "
      "\"net_crc_drops\": %lld, \"net_dedup_drops\": %lld, "
      "\"net_late_drops\": %lld, \"net_lost\": %lld, \"goodput\": %.4f, "
      "\"finite\": %d}",
      section.c_str(), outcome.seconds,
      static_cast<long long>(outcome.run.comm.rounds),
      static_cast<long long>(outcome.run.comm.bytes_uplink),
      static_cast<long long>(outcome.run.comm.bytes_downlink),
      static_cast<long long>(outcome.run.comm.messages),
      static_cast<long long>(f[fl::kNetRetries]),
      static_cast<long long>(f[fl::kNetTimeouts]),
      static_cast<long long>(f[fl::kNetCrcDrops]),
      static_cast<long long>(f[fl::kNetDedupDrops]),
      static_cast<long long>(f[fl::kNetLateDrops]),
      static_cast<long long>(f[fl::kNetLost]), goodput, outcome.finite ? 1 : 0);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  if (args.error) return 2;
  const eval::ExperimentScale scale = eval::ExperimentScale::FromEnv();
  std::printf("Transport fault sweep (scale=%s)\n", scale.name.c_str());

  auto env = eval::ExperimentEnv::FromScale(scale);
  const traj::WorkloadProfile profile =
      eval::ScaledProfile(traj::TdriveLikeProfile(), scale);
  const auto clients = env->MakeWorkload(
      profile, eval::DefaultWorkloadOptions(scale, 0.125), scale.seed + 11);

  const auto run_once = [&](const fl::transport::ChannelFaultConfig& channel) {
    eval::MethodRunOptions base = eval::DefaultRunOptions(scale);
    fl::FederatedTrainerOptions options = base.fed;
    options.transport.channel = channel;
    // Generous budget: the sweep measures cost, not quorum collapse.
    options.transport.retry.max_retries = 64;
    fl::FederatedTrainer trainer(
        baselines::MakeFactory(baselines::ModelKind::kLightTr, &env->encoder()),
        &clients, options);
    Stopwatch watch;
    RunOutcome outcome;
    outcome.run = trainer.Run();
    outcome.seconds = watch.ElapsedSeconds();
    outcome.finite = true;
    for (const nn::Scalar v : trainer.global_model()->params().Flatten()) {
      if (!std::isfinite(v)) outcome.finite = false;
    }
    return outcome;
  };

  TablePrinter table({"Section", "Wall(s)", "Uplink", "Downlink", "Retries",
                      "Timeouts", "CrcDrops", "Dedup", "Lost", "Goodput"});
  std::vector<std::string> json_rows;
  bool failed = false;

  // The clean channel is the goodput reference for the fault grid.
  const RunOutcome clean = run_once({});
  const int64_t clean_wire = clean.run.comm.bytes_uplink +
                             clean.run.comm.bytes_downlink;
  for (const FaultCase& fault_case : FaultGrid()) {
    const RunOutcome outcome =
        fault_case.name == "clean" ? clean : run_once(fault_case.channel);
    const int64_t wire =
        outcome.run.comm.bytes_uplink + outcome.run.comm.bytes_downlink;
    const double goodput =
        wire > 0 ? static_cast<double>(clean_wire) / static_cast<double>(wire)
                 : 0.0;
    const fl::FaultStats& f = outcome.run.faults;
    table.AddRow({fault_case.name, TablePrinter::Fmt(outcome.seconds, 2),
                  std::to_string(outcome.run.comm.bytes_uplink),
                  std::to_string(outcome.run.comm.bytes_downlink),
                  std::to_string(f[fl::kNetRetries]),
                  std::to_string(f[fl::kNetTimeouts]),
                  std::to_string(f[fl::kNetCrcDrops]),
                  std::to_string(f[fl::kNetDedupDrops]),
                  std::to_string(f[fl::kNetLost]),
                  TablePrinter::Fmt(goodput)});
    json_rows.push_back(JsonRow(fault_case.name, outcome, goodput));
    std::printf("%s: %.2fs wire=%lld retries=%lld timeouts=%lld "
                "crc_drops=%lld lost=%lld goodput=%.3f\n",
                fault_case.name.c_str(), outcome.seconds,
                static_cast<long long>(wire),
                static_cast<long long>(f[fl::kNetRetries]),
                static_cast<long long>(f[fl::kNetTimeouts]),
                static_cast<long long>(f[fl::kNetCrcDrops]),
                static_cast<long long>(f[fl::kNetLost]), goodput);
    std::fflush(stdout);
    if (!outcome.finite) {
      std::printf("ERROR: %s produced a non-finite model\n",
                  fault_case.name.c_str());
      failed = true;
    }
    if (outcome.run.comm.rounds != clean.run.comm.rounds) {
      std::printf("ERROR: %s did not complete all rounds\n",
                  fault_case.name.c_str());
      failed = true;
    }
  }

  std::printf("%s", table.ToString().c_str());
  if (!bench::WriteArtifact(args, "BENCH_transport.json",
                            bench::JsonArray(json_rows) + "\n") ||
      !bench::WriteArtifact(args, "bench_transport.csv", table.ToCsv())) {
    return 1;
  }

  return failed ? 1 : 0;
}
