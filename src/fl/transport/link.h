// ReliableLink: stop-and-wait request/response over two SimulatedChannel
// directions, with timeout + exponential-backoff retries on the client
// side and sequence-numbered dedup on the server side.
//
// Retry/dedup state machine (per exchange):
//
//   client                          server
//     | --- request frame --->        |   (uplink channel may damage it)
//     |                               |-- late arrival   -> dropped, counted
//     |                               |-- CRC/decode fail -> dropped, counted
//     |                               |-- wrong round/id  -> dropped, counted
//     |                               |-- duplicate push  -> ack(duplicate),
//     |                               |   payload NOT delivered again
//     | <--- response frame ---       |   (downlink channel may damage it)
//     | no usable response?           |
//     |   timeouts++, backoff, retry  |
//     |   (same msg_id — idempotent)  |
//     | retry budget exhausted -> Status (the link is down)
//
// Attribution rule: every drop above is charged to the NETWORK (LinkStats
// counters), never to the sending client. Reputation only ever sees
// payloads that survived the CRC — a mutilated frame says nothing about
// the peer that sent it.
#ifndef LIGHTTR_FL_TRANSPORT_LINK_H_
#define LIGHTTR_FL_TRANSPORT_LINK_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "fl/transport/channel.h"
#include "fl/transport/wire.h"

namespace lighttr::fl::transport {

/// Exact per-link traffic and fault accounting, measured from encoded
/// frame lengths (every transmitted copy counts, including retries and
/// duplicates the channel injects).
struct LinkStats {
  int64_t uplink_bytes = 0;    // client -> server
  int64_t downlink_bytes = 0;  // server -> client
  int64_t uplink_frames = 0;
  int64_t downlink_frames = 0;
  int retries = 0;      // re-sent requests after an unusable exchange
  int timeouts = 0;     // exchanges that produced no usable response
  int crc_drops = 0;    // frames discarded: CRC/decode failure or misroute
  int dedup_drops = 0;  // duplicate pushes absorbed by server-side dedup
  int late_drops = 0;   // frames discarded for arriving past the deadline
  double backoff_s = 0.0;  // simulated retry backoff accumulated
};

/// Builds the msg_id for the logical push of `client_id` in `round`.
/// Retransmissions reuse it; the server dedups on it.
inline uint64_t PushMsgId(int round, int client_id) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(round)) << 32) |
         static_cast<uint32_t>(client_id);
}

/// One client's link to the server for one round: both channel
/// directions plus the server-side endpoint (dedup set + the round's
/// pull-reply frame, pre-encoded by the coordinator and shared across
/// clients). All state is private to the owning client task, so links
/// run concurrently without sharing.
class ReliableLink {
 public:
  /// `pull_reply_frame` must outlive the link (it is the round-shared
  /// encoded ModelPullReply). `rng` drives both channel directions and
  /// backoff jitter; it may be null only for a fault-free link config.
  ReliableLink(const ChannelFaultConfig& faults, const BackoffConfig& retry,
               int round, int client_id, const std::string* pull_reply_frame,
               Rng* rng);

  /// Pull exchange: returns the global-model blob for this round, or a
  /// Status when the retry budget is exhausted (the link is down).
  Result<std::string> PullModelBlob();

  /// Push exchange: delivers `push` to the server, returns the flat
  /// parameter vector the *server* received (dequantized if the push was
  /// quantized) — the aggregation input. Retransmissions reuse
  /// push.msg_id, so the payload lands exactly once even when acks are
  /// lost. A Status means the retry budget ran out.
  Result<std::vector<double>> PushUpdate(const UpdatePush& push);

  const LinkStats& stats() const { return stats_; }

 private:
  /// Runs one request/response attempt cycle with retries. Each server
  /// response frame is produced by `serve` from an intact, validated
  /// request; the first usable response payload is returned.
  Result<std::string> Exchange(FrameType request_type,
                               const std::string& request_payload,
                               FrameType expected_reply);

  /// Server endpoint: validates one on-time, CRC-intact frame and
  /// produces the encoded response frame, or "" to ignore it.
  std::string Serve(const Frame& frame);

  ChannelFaultConfig faults_;
  BackoffConfig retry_;
  int round_;
  int client_id_;
  const std::string* pull_reply_frame_;
  Rng* rng_;
  SimulatedChannel uplink_;
  SimulatedChannel downlink_;
  LinkStats stats_;

  // Server-side state.
  std::set<uint64_t> seen_push_ids_;
  std::vector<double> delivered_update_;  // first successfully-pushed payload
  bool update_delivered_ = false;
};

}  // namespace lighttr::fl::transport

#endif  // LIGHTTR_FL_TRANSPORT_LINK_H_
