#include "chaos/scenario.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>

#include "common/parse_number.h"

namespace lighttr::chaos {
namespace {

// ---------------------------------------------------------------------------
// What a key accepts beyond its type, and how SampleScenario draws it.
// ---------------------------------------------------------------------------

// Every value of the field's type.
struct Any {};

// A probability, in [0, 1]. The shrinker walks the rates of enabled axes.
struct Rate {};

// 0 or 1, and the key is an axis flag: AxisCount counts it, and the keys
// listed under it are printed only while it is 1.
struct Axis {};

// No draw: SampleScenario leaves the ChaosScenario default.
struct Kept {};

auto Span(int64_t lo, int64_t hi) {
  return [lo, hi](Rng* rng) { return rng->UniformInt(lo, hi); };
}

auto Uniform(double lo, double hi) {
  return [lo, hi](Rng* rng) { return rng->Uniform(lo, hi); };
}

auto Chance(double p) {
  return [p](Rng* rng) { return rng->Bernoulli(p); };
}

template <typename T, size_t N>
auto OneOf(const std::array<T, N>& choices) {
  return [choices](Rng* rng) {
    return choices[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(N) - 1))];
  };
}

constexpr std::array kCrashPoints = {
    fl::CrashPoint::kBeforeSave, fl::CrashPoint::kMidSave,
    fl::CrashPoint::kAfterSave, fl::CrashPoint::kMidRound};
constexpr std::array kAttacks = {
    fl::AttackType::kSignFlip, fl::AttackType::kScaledAscent,
    fl::AttackType::kMinMax, fl::AttackType::kNormMatched};
constexpr std::array kPlants = {PlantedBug::kNone, PlantedBug::kLeakTmp,
                                PlantedBug::kStealthPoison};

// The repro grammar, one line per key, in FormatRepro and SampleScenario
// order: the key, the axis flag it is listed under (null: always
// printed), its field, the values ParseRepro accepts and how
// SampleScenario draws it. Every draw happens whether or not its axis
// ends up on, so scenario N is a pure function of (campaign seed, N)
// regardless of which axes earlier scenarios enabled. A new knob on an
// axis is one line here plus its line in MakeOptions (campaign.cc).
template <typename Scenario, typename Visit>
void ForEachKey(Scenario& s, Visit&& key) {
  constexpr int64_t kMaxSeed = 1'000'000'000;
  const Range kRounds{1, 512};
  key("seed", nullptr, s.seed, Any{}, Span(1, kMaxSeed));
  key("rounds", nullptr, s.rounds, kRounds, Span(4, 8));
  key("clients", nullptr, s.clients, Range{1, 256}, Span(4, 6));
  key("threads", nullptr, s.threads, Range{1, 64}, OneOf(std::array{1, 2, 8}));
  key("fraction", nullptr, s.client_fraction,
      Range{0, 1, /*open_min=*/true}, OneOf(std::array{0.5, 0.8, 1.0}));
  key("quorum", nullptr, s.quorum_fraction, Rate{},
      OneOf(std::array{0.0, 0.25, 0.5}));
  key("healing", nullptr, s.healing, Axis{}, Chance(0.3));

  const bool* on = &s.storage_on;
  key("storage", nullptr, s.storage_on, Axis{}, Chance(0.6));
  key("storage.seed", on, s.storage.seed, Any{}, Span(1, kMaxSeed));
  key("storage.enospc", on, s.storage.enospc_rate, Rate{}, Uniform(0, 0.15));
  key("storage.rename", on, s.storage.rename_fail_rate, Rate{},
      Uniform(0, 0.15));
  key("storage.bitrot", on, s.storage.read_bitrot_rate, Rate{},
      Uniform(0, 0.10));
  key("storage.litter", on, s.storage.tmp_litter_rate, Rate{},
      Uniform(0, 0.20));
  key("storage.lossy", on, s.storage.lose_unsynced_on_crash, Any{},
      Chance(0.5));

  on = &s.net_on;
  key("net", nullptr, s.net_on, Axis{}, Chance(0.5));
  key("net.drop", on, s.net.drop_rate, Rate{}, Uniform(0, 0.15));
  key("net.dup", on, s.net.duplicate_rate, Rate{}, Uniform(0, 0.15));
  key("net.reorder", on, s.net.reorder_rate, Rate{}, Uniform(0, 0.15));
  key("net.corrupt", on, s.net.corrupt_rate, Rate{}, Uniform(0, 0.15));
  key("net.truncate", on, s.net.truncate_rate, Rate{}, Uniform(0, 0.10));
  key("net.delay", on, s.net.delay_rate, Rate{}, Uniform(0, 0.10));

  on = &s.client_faults_on;
  key("faults", nullptr, s.client_faults_on, Axis{}, Chance(0.5));
  key("faults.dropout", on, s.client_faults.dropout_rate, Rate{},
      Uniform(0, 0.25));
  key("faults.straggler", on, s.client_faults.straggler_rate, Rate{},
      Uniform(0, 0.20));
  key("faults.corruption", on, s.client_faults.corruption_rate, Rate{},
      Uniform(0, 0.15));

  on = &s.crash_on;
  key("crash", nullptr, s.crash_on, Axis{}, Chance(0.5));
  key("crash.point", on, s.crash_point, kCrashPoints, OneOf(kCrashPoints));
  key("crash.round", on, s.crash_round, kRounds, Span(1, s.rounds));

  on = &s.adversary_on;
  key("adversary", nullptr, s.adversary_on, Axis{}, Chance(0.3));
  key("adversary.count", on, s.adversary.num_attackers, Range{1, 256},
      Span(1, 2));
  key("adversary.attack", on, s.adversary.attack, kAttacks, OneOf(kAttacks));
  key("adversary.scale", on, s.adversary.ascent_scale,
      Range{0, 1e4, /*open_min=*/true}, Uniform(5, 20));
  key("adversary.start", on, s.adversary.start_round, kRounds, Span(1, 2));
  key("adversary.seed", on, s.adversary.seed, Any{}, Span(1, kMaxSeed));
  // Sampled scenarios always run defended: an undefended poisoning run
  // legitimately corrupts the model, which is bench_adversary's gate and
  // the planted stealth-poison bug's failure mode, not a sampled
  // scenario's.
  key("adversary.defended", on, s.adversary_defended, Any{}, Kept{});

  // Printed only when a bug is planted; never drawn.
  const bool planted = s.plant != PlantedBug::kNone;
  key("plant", &planted, s.plant, kPlants, Kept{});
}

// ---------------------------------------------------------------------------
// Printing and parsing one value.
// ---------------------------------------------------------------------------

// Shortest decimal string that parses back to exactly `value`.
std::string Print(double value) {
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return std::string(buf);
}

std::string Print(uint64_t value) { return std::to_string(value); }
std::string Print(int value) { return std::to_string(value); }
std::string Print(bool value) { return value ? "1" : "0"; }
std::string Print(fl::CrashPoint point) { return fl::CrashPointName(point); }
std::string Print(fl::AttackType attack) { return fl::AttackTypeName(attack); }
std::string Print(PlantedBug bug) { return PlantedBugName(bug); }

bool Parse(const std::string& text, uint64_t* out, Any) {
  return ParseNumber(text, out);
}

template <typename Number>  // int or double
bool Parse(const std::string& text, Number* out, Range range) {
  return ParseNumber(text, out, range);
}

bool Parse(const std::string& text, double* out, Rate) {
  return ParseNumber(text, out, Range{0, 1});
}

template <typename Flag>  // Any or Axis
bool Parse(const std::string& text, bool* out, Flag) {
  if (text != "0" && text != "1") return false;
  *out = text == "1";
  return true;
}

// An enum key takes the name of one of its accepted values.
template <typename E, size_t N>
bool Parse(const std::string& text, E* out, const std::array<E, N>& accepted) {
  for (E value : accepted) {
    if (text == Print(value)) {
      *out = value;
      return true;
    }
  }
  return false;
}

// An attack also takes the CLI's spellings (fl::ParseAttackType).
bool Parse(const std::string& text, fl::AttackType* out,
           const decltype(kAttacks)&) {
  fl::AttackType attack = fl::AttackType::kNone;
  if (!fl::ParseAttackType(text, &attack) || attack == fl::AttackType::kNone) {
    return false;
  }
  *out = attack;
  return true;
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
  ForEachKey(scenario, [&count](const char*, const bool*, const auto& value,
                                const auto& accepted, const auto&) {
    if constexpr (std::is_same_v<std::decay_t<decltype(accepted)>, Axis>) {
      if (value) ++count;
    }
  });
  return count;
}

std::vector<double*> EnabledRates(ChaosScenario* scenario) {
  std::vector<double*> rates;
  ForEachKey(*scenario, [&rates](const char*, const bool* axis, auto& value,
                                 const auto& accepted, const auto&) {
    if constexpr (std::is_same_v<std::decay_t<decltype(accepted)>, Rate>) {
      if (axis != nullptr && *axis) rates.push_back(&value);
    }
  });
  return rates;
}

std::string FormatRepro(const ChaosScenario& scenario) {
  std::string out;
  ForEachKey(scenario, [&out](const char* key, const bool* axis,
                              const auto& value, const auto&, const auto&) {
    if (axis != nullptr && !*axis) return;
    if (!out.empty()) out.push_back(' ');
    out.append(key);
    out.push_back('=');
    out.append(Print(value));
  });
  return out;
}

Result<ChaosScenario> ParseRepro(const std::string& text) {
  // A repro string is self-contained: parsing starts from the defaults,
  // with every axis off.
  ChaosScenario s;
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
    bool known = false;
    bool ok = false;
    ForEachKey(s, [&](const char* name, const bool*, auto& field,
                      const auto& accepted, const auto&) {
      if (key != name) return;
      known = true;
      ok = Parse(value, &field, accepted);
    });
    if (!known) return BadRepro(token, "unknown key");
    if (!ok) return BadRepro(token, "malformed or out-of-range value");
    if (key == "seed") saw_seed = true;
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
  ForEachKey(s, [rng](const char*, const bool*, auto& field, const auto&,
                      const auto& draw) {
    using Field = std::remove_reference_t<decltype(field)>;
    if constexpr (!std::is_same_v<std::decay_t<decltype(draw)>, Kept>) {
      field = static_cast<Field>(draw(rng));
    }
  });
  return s;
}

}  // namespace lighttr::chaos
