// Deterministic hostile-network simulator.
//
// A SimulatedChannel models ONE direction of one client<->server link.
// Every frame handed to Transmit() runs a gauntlet of independently
// configured faults — drop, duplication, payload bit-flips, truncation,
// delay past the receiver's deadline, reordering — each decided by a
// seeded Rng stream, so a run over an arbitrarily hostile network is
// exactly reproducible from (channel seed, fault config).
//
// Determinism contract: every stochastic draw is guarded by a
// `rate > 0.0` check, so a disabled fault consumes no randomness —
// whether a per-task network Rng is forked at all depends only on the
// fault *configuration* (the same config-only-conditionality rule the
// trainer's client RNG forks follow). Each link owns its own canonically
// forked Rng and consumes it strictly sequentially, so its fault
// sequence is a pure function of (fork order, frames transmitted) and a
// lossy-channel run stays bitwise-identical at any thread count.
#ifndef LIGHTTR_FL_TRANSPORT_CHANNEL_H_
#define LIGHTTR_FL_TRANSPORT_CHANNEL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/rng.h"

namespace lighttr::fl::transport {

/// Per-link fault rates, all independent Bernoulli probabilities applied
/// per transmitted frame (duplication/corruption/truncation/delay apply
/// per *copy* when a frame is duplicated). Rates of 0.0 consume no
/// randomness, so a clean channel is draw-free.
struct ChannelFaultConfig {
  double drop_rate = 0.0;       // frame vanishes entirely
  double duplicate_rate = 0.0;  // frame arrives twice
  double reorder_rate = 0.0;    // frame held back, released after the next
  double corrupt_rate = 0.0;    // 1..8 random bit flips per copy
  double truncate_rate = 0.0;   // frame cut to a random prefix
  double delay_rate = 0.0;      // arrives after the receiver's deadline

  /// True when any fault can fire — i.e. the channel needs an Rng.
  bool enabled() const {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || reorder_rate > 0.0 ||
           corrupt_rate > 0.0 || truncate_rate > 0.0 || delay_rate > 0.0;
  }
};

/// One frame as it comes off the wire: the (possibly damaged) bytes and
/// whether it arrived past the receiver's deadline.
struct Delivery {
  std::string bytes;
  bool late = false;
};

/// One direction of one link. Owns the reorder holdback buffer; the Rng
/// is supplied per call so the owner controls stream placement.
class SimulatedChannel {
 public:
  explicit SimulatedChannel(const ChannelFaultConfig& config)
      : config_(config) {}

  /// Pushes one frame through the fault gauntlet. Returns the frames
  /// that arrive, in arrival order (a previously held-back frame is
  /// released ahead of this one's copies). `rng` may be null only when
  /// the config has every fault disabled.
  std::vector<Delivery> Transmit(const std::string& frame, Rng* rng);

  /// Releases any frame still held back by reordering (used when the
  /// sender gives up: the straggler frame eventually arrives).
  std::vector<Delivery> Flush();

 private:
  ChannelFaultConfig config_;
  std::vector<Delivery> held_;
};

/// Transport configuration for a federated run.
struct TransportConfig {
  /// Seed for the channel fault streams. Independent of the training
  /// seed: changing the network's weather must not perturb model init,
  /// client sampling, or local training draws.
  uint64_t channel_seed = 0x5EEDC0DEull;

  /// Fault model applied to every link without an override.
  ChannelFaultConfig channel;

  /// Per-client overrides (e.g. a 100%-loss link on a minority of
  /// clients for quorum tests). First match wins.
  std::vector<std::pair<int, ChannelFaultConfig>> link_overrides;

  /// Retry schedule for ReliableLink: per-exchange attempts beyond the
  /// first, with simulated exponential backoff.
  BackoffConfig retry{/*max_retries=*/3, /*base_delay_s=*/0.05,
                      /*max_delay_s=*/1.0};

  const ChannelFaultConfig& LinkConfig(int client_id) const {
    for (const auto& [id, config] : link_overrides) {
      if (id == client_id) return config;
    }
    return channel;
  }

  /// True when any link can fault (decides whether per-task network
  /// Rngs are forked — config-only conditionality, like FaultModel).
  bool faulty() const {
    if (channel.enabled()) return true;
    for (const auto& [id, config] : link_overrides) {
      (void)id;
      if (config.enabled()) return true;
    }
    return false;
  }
};

}  // namespace lighttr::fl::transport

#endif  // LIGHTTR_FL_TRANSPORT_CHANNEL_H_
