#include "fl/comm_stats.h"

#include <utility>

namespace lighttr::fl {

namespace {

std::string Differs(const std::string& name, int64_t lhs, int64_t rhs) {
  return name + " " + std::to_string(lhs) + " vs " + std::to_string(rhs);
}

}  // namespace

std::string DescribeMismatch(const RoundRecord& a, const RoundRecord& b) {
  if (a.round != b.round) return Differs("round", a.round, b.round);
  if (a.quorum_met != b.quorum_met) {
    return Differs("quorum_met", a.quorum_met, b.quorum_met);
  }
  if (a.escalated != b.escalated) {
    return Differs("escalated", a.escalated, b.escalated);
  }
  for (const CounterSpec& counter : kCounters) {
    if (counter.per_round && a[counter.id] != b[counter.id]) {
      return Differs(counter.name, a[counter.id], b[counter.id]);
    }
  }
  if (a.mean_train_loss != b.mean_train_loss) return "mean_train_loss";
  if (a.global_valid_accuracy != b.global_valid_accuracy) {
    return "global_valid_accuracy";
  }
  if (a.valid_loss != b.valid_loss) return "valid_loss";
  return std::string();
}

std::string DescribeMismatch(const FaultStats& a, const FaultStats& b) {
  for (const CounterSpec& counter : kCounters) {
    if (counter.has_total() && a[counter.id] != b[counter.id]) {
      return Differs(counter.name, a[counter.id], b[counter.id]);
    }
  }
  if (a.simulated_backoff_s != b.simulated_backoff_s) {
    return "simulated_backoff_s";
  }
  return std::string();
}

std::string DescribeMismatch(const std::vector<RoundRecord>& a,
                             const std::vector<RoundRecord>& b) {
  if (a.size() != b.size()) {
    return Differs("history length", static_cast<int64_t>(a.size()),
                   static_cast<int64_t>(b.size()));
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const std::string mismatch = DescribeMismatch(a[i], b[i]);
    if (!mismatch.empty()) {
      return "history[" + std::to_string(i) + "] " + mismatch;
    }
  }
  return std::string();
}

std::string DescribeMismatch(const FederatedRunResult& a,
                             const FederatedRunResult& b) {
  const std::pair<const char*, int64_t CommStats::*> comm[] = {
      {"comm bytes_downlink", &CommStats::bytes_downlink},
      {"comm bytes_uplink", &CommStats::bytes_uplink},
      {"comm messages", &CommStats::messages},
      {"comm rounds", &CommStats::rounds}};
  for (const auto& [name, field] : comm) {
    if (a.comm.*field != b.comm.*field) {
      return Differs(name, a.comm.*field, b.comm.*field);
    }
  }
  if (a.gave_up != b.gave_up) return Differs("gave_up", a.gave_up, b.gave_up);
  const std::string totals = DescribeMismatch(a.faults, b.faults);
  if (!totals.empty()) return "total " + totals;
  return DescribeMismatch(a.history, b.history);
}

}  // namespace lighttr::fl
