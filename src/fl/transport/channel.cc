#include "fl/transport/channel.h"

#include "common/check.h"

namespace lighttr::fl::transport {

namespace {

// Upper bound on bit flips per corrupted copy.
constexpr int kMaxBitFlips = 8;

// Flips 1..kMaxBitFlips random bits in `bytes`. Draw count depends only
// on the drawn flip count, which is part of the same deterministic
// stream, so replay is exact.
void CorruptBytes(std::string* bytes, Rng* rng) {
  if (bytes->empty()) return;
  const int flips = static_cast<int>(rng->UniformInt(1, kMaxBitFlips));
  for (int i = 0; i < flips; ++i) {
    const auto pos = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(bytes->size()) - 1));
    const int bit = static_cast<int>(rng->UniformInt(0, 7));
    (*bytes)[pos] = static_cast<char>((*bytes)[pos] ^ (1 << bit));
  }
}

}  // namespace

std::vector<Delivery> SimulatedChannel::Transmit(const std::string& frame,
                                                 Rng* rng) {
  std::vector<Delivery> arrivals;
  // A frame held back by an earlier reorder is released first: it
  // arrives "before" this transmission reaches the receiver.
  if (!held_.empty()) {
    arrivals = std::move(held_);
    held_.clear();
  }
  if (config_.enabled()) {
    LIGHTTR_CHECK(rng != nullptr);
  }
  if (config_.drop_rate > 0.0 && rng->Bernoulli(config_.drop_rate)) {
    return arrivals;
  }
  int copies = 1;
  if (config_.duplicate_rate > 0.0 && rng->Bernoulli(config_.duplicate_rate)) {
    copies = 2;
  }
  for (int copy = 0; copy < copies; ++copy) {
    Delivery delivery;
    delivery.bytes = frame;
    if (config_.corrupt_rate > 0.0 && rng->Bernoulli(config_.corrupt_rate)) {
      CorruptBytes(&delivery.bytes, rng);
    } else if (config_.truncate_rate > 0.0 &&
               rng->Bernoulli(config_.truncate_rate)) {
      if (!delivery.bytes.empty()) {
        delivery.bytes.resize(static_cast<size_t>(rng->UniformInt(
            0, static_cast<int64_t>(delivery.bytes.size()) - 1)));
      }
    }
    if (config_.delay_rate > 0.0 && rng->Bernoulli(config_.delay_rate)) {
      delivery.late = true;
    }
    if (config_.reorder_rate > 0.0 && rng->Bernoulli(config_.reorder_rate)) {
      held_.push_back(std::move(delivery));
    } else {
      arrivals.push_back(std::move(delivery));
    }
  }
  return arrivals;
}

std::vector<Delivery> SimulatedChannel::Flush() {
  std::vector<Delivery> arrivals = std::move(held_);
  held_.clear();
  return arrivals;
}

}  // namespace lighttr::fl::transport
