#include "chaos/scenario.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

namespace lighttr::chaos {
namespace {

// Shortest decimal string that parses back to exactly `value`.
std::string FormatDouble(double value) {
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return std::string(buf);
}

void AppendKv(std::string* out, const char* key, const std::string& value) {
  if (!out->empty()) out->push_back(' ');
  out->append(key);
  out->push_back('=');
  out->append(value);
}

void AppendInt(std::string* out, const char* key, int64_t value) {
  AppendKv(out, key, std::to_string(value));
}

void AppendDouble(std::string* out, const char* key, double value) {
  AppendKv(out, key, FormatDouble(value));
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = static_cast<uint64_t>(value);
  return true;
}

bool ParseInt(const std::string& text, int* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  if (value < -(1LL << 31) || value > (1LL << 31)) return false;
  *out = static_cast<int>(value);
  return true;
}

bool ParseF64(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

bool ParseBool01(const std::string& text, bool* out) {
  if (text == "0") {
    *out = false;
    return true;
  }
  if (text == "1") {
    *out = true;
    return true;
  }
  return false;
}

bool ParseRate(const std::string& text, double* out) {
  return ParseF64(text, out) && *out >= 0.0 && *out <= 1.0;
}

bool ParseCrashPoint(const std::string& text, fl::CrashPoint* out) {
  using fl::CrashPoint;
  for (CrashPoint point : {CrashPoint::kBeforeSave, CrashPoint::kMidSave,
                           CrashPoint::kAfterSave, CrashPoint::kMidRound}) {
    if (text == fl::CrashPointName(point)) {
      *out = point;
      return true;
    }
  }
  return false;
}

Status BadRepro(const std::string& token, const char* why) {
  return Status::InvalidArgument("chaos repro token '" + token + "': " + why);
}

}  // namespace

const char* PlantedBugName(PlantedBug bug) {
  switch (bug) {
    case PlantedBug::kNone: return "none";
    case PlantedBug::kLeakTmp: return "leak-tmp";
    case PlantedBug::kStealthPoison: return "stealth-poison";
  }
  return "unknown";
}

int AxisCount(const ChaosScenario& scenario) {
  int count = 0;
  if (scenario.healing) ++count;
  if (scenario.storage_on) ++count;
  if (scenario.net_on) ++count;
  if (scenario.client_faults_on) ++count;
  if (scenario.crash_on) ++count;
  if (scenario.adversary_on) ++count;
  return count;
}

std::string FormatRepro(const ChaosScenario& s) {
  std::string out;
  AppendKv(&out, "seed", std::to_string(s.seed));
  AppendInt(&out, "rounds", s.rounds);
  AppendInt(&out, "clients", s.clients);
  AppendInt(&out, "threads", s.threads);
  AppendDouble(&out, "fraction", s.client_fraction);
  AppendDouble(&out, "quorum", s.quorum_fraction);
  AppendInt(&out, "healing", s.healing ? 1 : 0);
  AppendInt(&out, "storage", s.storage_on ? 1 : 0);
  if (s.storage_on) {
    AppendKv(&out, "storage.seed", std::to_string(s.storage.seed));
    AppendDouble(&out, "storage.enospc", s.storage.enospc_rate);
    AppendDouble(&out, "storage.rename", s.storage.rename_fail_rate);
    AppendDouble(&out, "storage.bitrot", s.storage.read_bitrot_rate);
    AppendDouble(&out, "storage.litter", s.storage.tmp_litter_rate);
    AppendInt(&out, "storage.lossy", s.storage.lose_unsynced_on_crash ? 1 : 0);
  }
  AppendInt(&out, "net", s.net_on ? 1 : 0);
  if (s.net_on) {
    AppendDouble(&out, "net.drop", s.net.drop_rate);
    AppendDouble(&out, "net.dup", s.net.duplicate_rate);
    AppendDouble(&out, "net.reorder", s.net.reorder_rate);
    AppendDouble(&out, "net.corrupt", s.net.corrupt_rate);
    AppendDouble(&out, "net.truncate", s.net.truncate_rate);
    AppendDouble(&out, "net.delay", s.net.delay_rate);
  }
  AppendInt(&out, "faults", s.client_faults_on ? 1 : 0);
  if (s.client_faults_on) {
    AppendDouble(&out, "faults.dropout", s.client_faults.dropout_rate);
    AppendDouble(&out, "faults.straggler", s.client_faults.straggler_rate);
    AppendDouble(&out, "faults.corruption", s.client_faults.corruption_rate);
  }
  AppendInt(&out, "crash", s.crash_on ? 1 : 0);
  if (s.crash_on) {
    AppendKv(&out, "crash.point", fl::CrashPointName(s.crash_point));
    AppendInt(&out, "crash.round", s.crash_round);
  }
  AppendInt(&out, "adversary", s.adversary_on ? 1 : 0);
  if (s.adversary_on) {
    AppendInt(&out, "adversary.count", s.adversary.num_attackers);
    AppendKv(&out, "adversary.attack", fl::AttackTypeName(s.adversary.attack));
    AppendDouble(&out, "adversary.scale", s.adversary.ascent_scale);
    AppendInt(&out, "adversary.start", s.adversary.start_round);
    AppendKv(&out, "adversary.seed", std::to_string(s.adversary.seed));
    AppendInt(&out, "adversary.defended", s.adversary_defended ? 1 : 0);
  }
  if (s.plant != PlantedBug::kNone) {
    AppendKv(&out, "plant", PlantedBugName(s.plant));
  }
  return out;
}

Result<ChaosScenario> ParseRepro(const std::string& text) {
  ChaosScenario s;
  // Parsing starts from a blank scenario: every axis off, sub-configs at
  // their defaults, so a repro string is self-contained.
  s.healing = false;
  s.storage_on = false;
  s.net_on = false;
  s.client_faults_on = false;
  s.crash_on = false;
  s.adversary_on = false;

  std::istringstream stream(text);
  std::string token;
  bool saw_seed = false;
  while (stream >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return BadRepro(token, "expected key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    bool ok = true;
    if (key == "seed") {
      ok = ParseU64(value, &s.seed);
      saw_seed = ok;
    } else if (key == "rounds") {
      ok = ParseInt(value, &s.rounds) && s.rounds >= 1 && s.rounds <= 512;
    } else if (key == "clients") {
      ok = ParseInt(value, &s.clients) && s.clients >= 1 && s.clients <= 256;
    } else if (key == "threads") {
      ok = ParseInt(value, &s.threads) && s.threads >= 1 && s.threads <= 64;
    } else if (key == "fraction") {
      ok = ParseF64(value, &s.client_fraction) && s.client_fraction > 0.0 &&
           s.client_fraction <= 1.0;
    } else if (key == "quorum") {
      ok = ParseRate(value, &s.quorum_fraction);
    } else if (key == "healing") {
      ok = ParseBool01(value, &s.healing);
    } else if (key == "storage") {
      ok = ParseBool01(value, &s.storage_on);
    } else if (key == "storage.seed") {
      ok = ParseU64(value, &s.storage.seed);
    } else if (key == "storage.enospc") {
      ok = ParseRate(value, &s.storage.enospc_rate);
    } else if (key == "storage.rename") {
      ok = ParseRate(value, &s.storage.rename_fail_rate);
    } else if (key == "storage.bitrot") {
      ok = ParseRate(value, &s.storage.read_bitrot_rate);
    } else if (key == "storage.litter") {
      ok = ParseRate(value, &s.storage.tmp_litter_rate);
    } else if (key == "storage.lossy") {
      ok = ParseBool01(value, &s.storage.lose_unsynced_on_crash);
    } else if (key == "net") {
      ok = ParseBool01(value, &s.net_on);
    } else if (key == "net.drop") {
      ok = ParseRate(value, &s.net.drop_rate);
    } else if (key == "net.dup") {
      ok = ParseRate(value, &s.net.duplicate_rate);
    } else if (key == "net.reorder") {
      ok = ParseRate(value, &s.net.reorder_rate);
    } else if (key == "net.corrupt") {
      ok = ParseRate(value, &s.net.corrupt_rate);
    } else if (key == "net.truncate") {
      ok = ParseRate(value, &s.net.truncate_rate);
    } else if (key == "net.delay") {
      ok = ParseRate(value, &s.net.delay_rate);
    } else if (key == "faults") {
      ok = ParseBool01(value, &s.client_faults_on);
    } else if (key == "faults.dropout") {
      ok = ParseRate(value, &s.client_faults.dropout_rate);
    } else if (key == "faults.straggler") {
      ok = ParseRate(value, &s.client_faults.straggler_rate);
    } else if (key == "faults.corruption") {
      ok = ParseRate(value, &s.client_faults.corruption_rate);
    } else if (key == "crash") {
      ok = ParseBool01(value, &s.crash_on);
    } else if (key == "crash.point") {
      ok = ParseCrashPoint(value, &s.crash_point);
    } else if (key == "crash.round") {
      ok = ParseInt(value, &s.crash_round) && s.crash_round >= 1 &&
           s.crash_round <= 512;
    } else if (key == "adversary") {
      ok = ParseBool01(value, &s.adversary_on);
    } else if (key == "adversary.count") {
      ok = ParseInt(value, &s.adversary.num_attackers) &&
           s.adversary.num_attackers >= 1 && s.adversary.num_attackers <= 256;
    } else if (key == "adversary.attack") {
      ok = fl::ParseAttackType(value, &s.adversary.attack) &&
           s.adversary.attack != fl::AttackType::kNone;
    } else if (key == "adversary.scale") {
      ok = ParseF64(value, &s.adversary.ascent_scale) &&
           s.adversary.ascent_scale > 0.0 && s.adversary.ascent_scale <= 1e4;
    } else if (key == "adversary.start") {
      ok = ParseInt(value, &s.adversary.start_round) &&
           s.adversary.start_round >= 1 && s.adversary.start_round <= 512;
    } else if (key == "adversary.seed") {
      ok = ParseU64(value, &s.adversary.seed);
    } else if (key == "adversary.defended") {
      ok = ParseBool01(value, &s.adversary_defended);
    } else if (key == "plant") {
      if (value == PlantedBugName(PlantedBug::kNone)) {
        s.plant = PlantedBug::kNone;
      } else if (value == PlantedBugName(PlantedBug::kLeakTmp)) {
        s.plant = PlantedBug::kLeakTmp;
      } else if (value == PlantedBugName(PlantedBug::kStealthPoison)) {
        s.plant = PlantedBug::kStealthPoison;
      } else {
        ok = false;
      }
    } else {
      return BadRepro(token, "unknown key");
    }
    if (!ok) return BadRepro(token, "malformed or out-of-range value");
  }
  if (!saw_seed) {
    return Status::InvalidArgument("chaos repro: missing required key 'seed'");
  }
  if (s.crash_on && s.crash_round > s.rounds) {
    return Status::InvalidArgument("chaos repro: crash.round exceeds rounds");
  }
  if (s.adversary_on && s.adversary.num_attackers > s.clients) {
    return Status::InvalidArgument(
        "chaos repro: adversary.count exceeds clients");
  }
  return s;
}

ChaosScenario SampleScenario(Rng* rng) {
  ChaosScenario s;
  // Every draw below happens unconditionally (flags applied afterwards),
  // so scenario N is a pure function of (campaign seed, N) regardless of
  // which axes earlier scenarios enabled.
  s.seed = static_cast<uint64_t>(rng->UniformInt(1, 1'000'000'000));
  s.rounds = static_cast<int>(rng->UniformInt(4, 8));
  s.clients = static_cast<int>(rng->UniformInt(4, 6));
  const int64_t thread_pick = rng->UniformInt(0, 2);
  s.threads = thread_pick == 0 ? 1 : (thread_pick == 1 ? 2 : 8);
  const int64_t fraction_pick = rng->UniformInt(0, 2);
  s.client_fraction =
      fraction_pick == 0 ? 0.5 : (fraction_pick == 1 ? 0.8 : 1.0);
  const int64_t quorum_pick = rng->UniformInt(0, 2);
  s.quorum_fraction = quorum_pick == 0 ? 0.0 : (quorum_pick == 1 ? 0.25 : 0.5);
  s.healing = rng->Bernoulli(0.3);

  s.storage_on = rng->Bernoulli(0.6);
  s.storage.seed = static_cast<uint64_t>(rng->UniformInt(1, 1'000'000'000));
  s.storage.enospc_rate = rng->Uniform(0.0, 0.15);
  s.storage.rename_fail_rate = rng->Uniform(0.0, 0.15);
  s.storage.read_bitrot_rate = rng->Uniform(0.0, 0.10);
  s.storage.tmp_litter_rate = rng->Uniform(0.0, 0.20);
  s.storage.lose_unsynced_on_crash = rng->Bernoulli(0.5);

  s.net_on = rng->Bernoulli(0.5);
  s.net.drop_rate = rng->Uniform(0.0, 0.15);
  s.net.duplicate_rate = rng->Uniform(0.0, 0.15);
  s.net.reorder_rate = rng->Uniform(0.0, 0.15);
  s.net.corrupt_rate = rng->Uniform(0.0, 0.15);
  s.net.truncate_rate = rng->Uniform(0.0, 0.10);
  s.net.delay_rate = rng->Uniform(0.0, 0.10);

  s.client_faults_on = rng->Bernoulli(0.5);
  s.client_faults.dropout_rate = rng->Uniform(0.0, 0.25);
  s.client_faults.straggler_rate = rng->Uniform(0.0, 0.20);
  s.client_faults.corruption_rate = rng->Uniform(0.0, 0.15);

  s.crash_on = rng->Bernoulli(0.5);
  const int64_t point_pick = rng->UniformInt(0, 3);
  using fl::CrashPoint;
  s.crash_point = point_pick == 0   ? CrashPoint::kBeforeSave
                  : point_pick == 1 ? CrashPoint::kMidSave
                  : point_pick == 2 ? CrashPoint::kAfterSave
                                    : CrashPoint::kMidRound;
  s.crash_round = static_cast<int>(rng->UniformInt(1, s.rounds));

  s.adversary_on = rng->Bernoulli(0.3);
  s.adversary.num_attackers = static_cast<int>(rng->UniformInt(1, 2));
  const int64_t attack_pick = rng->UniformInt(0, 3);
  using fl::AttackType;
  s.adversary.attack = attack_pick == 0   ? AttackType::kSignFlip
                       : attack_pick == 1 ? AttackType::kScaledAscent
                       : attack_pick == 2 ? AttackType::kMinMax
                                          : AttackType::kNormMatched;
  s.adversary.ascent_scale = rng->Uniform(5.0, 20.0);
  s.adversary.start_round = static_cast<int>(rng->UniformInt(1, 2));
  s.adversary.seed = static_cast<uint64_t>(rng->UniformInt(1, 1'000'000'000));
  // Sampled scenarios always run defended: an undefended poisoning run
  // legitimately corrupts the model, which is bench_adversary's gate and
  // the planted stealth-poison bug's failure mode — not a sampled
  // scenario's. The draw above keeps the stream layout fixed either way.
  s.adversary_defended = true;
  return s;
}

}  // namespace lighttr::chaos
