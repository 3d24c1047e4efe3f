#include "fl/transport/wire.h"

#include "common/binary_io.h"
#include "common/crc32.h"

namespace lighttr::fl::transport {

namespace {

constexpr char kMagic[4] = {'L', 'T', 'R', 'F'};

// Caps on hostile length/count fields, far above any legitimate value:
// a lied-about length is rejected before any allocation scales with it.
constexpr uint64_t kMaxPayloadScalars = 1ull << 27;

// The field walks (common/binary_io.h). The envelope: magic, version,
// type, u32 payload length, payload; the length must cover exactly the
// bytes before the CRC trailer.
template <typename Io, typename Type, typename Payload>
void WalkFrame(Io& io, Type& type, Payload& payload) {
  io.Magic(kMagic, "bad frame magic");
  io.Expect(kWireVersion, "unsupported wire version");
  io.U8(type);
  io.Check(type >= FrameType::kModelPullRequest && type <= FrameType::kPushAck,
           "unknown frame type");
  io.String32(payload);
}

template <typename Io, typename Msg>
void WalkModelPullRequest(Io& io, Msg& msg) {
  io.U32(msg.round);
  io.U32(msg.client_id);
}

template <typename Io, typename Msg>
void WalkModelPullReply(Io& io, Msg& msg) {
  io.U32(msg.round);
  io.String(msg.model_blob);
}

template <typename Io, typename Msg>
void WalkUpdatePush(Io& io, Msg& msg) {
  io.U32(msg.round);
  io.U32(msg.client_id);
  io.U64(msg.msg_id);
  io.F64(msg.train_loss);
  io.U8(msg.kind);
  io.Check(msg.kind <= PayloadKind::kQuantizedInt8,
           "unknown update-push payload kind");
  if (msg.kind == PayloadKind::kRawF64) {
    io.Vector(msg.raw, kMaxPayloadScalars);
  } else {
    io.F64(msg.quantized.min_value);
    io.F64(msg.quantized.max_value);
    io.Vector(msg.quantized.codes);
  }
}

template <typename Io, typename Msg>
void WalkPushAck(Io& io, Msg& msg) {
  io.U32(msg.round);
  io.U32(msg.client_id);
  io.U64(msg.msg_id);
  io.Flag(msg.duplicate);
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kModelPullRequest: return "model-pull-request";
    case FrameType::kModelPullReply: return "model-pull-reply";
    case FrameType::kUpdatePush: return "update-push";
    case FrameType::kPushAck: return "push-ack";
  }
  return "unknown";
}

std::string EncodeFrame(FrameType type, const std::string& payload) {
  std::string out =
      WriteFields([&](FieldWriter& io) { WalkFrame(io, type, payload); });
  AppendCrc32Trailer(&out);
  return out;
}

Status DecodeFrame(const std::string& bytes, Frame* out) {
  // Integrity first: nothing is interpreted until the CRC proves the
  // bytes survived the wire intact. The body is then parsed in place.
  size_t body_len = 0;
  LIGHTTR_RETURN_NOT_OK(CheckCrc32Trailer(bytes, &body_len));
  return ReadFields(
      std::string_view(bytes).substr(0, body_len), "frame",
      [&](FieldReader& io) { WalkFrame(io, out->type, out->payload); });
}

std::string EncodeModelPullRequest(const ModelPullRequest& msg) {
  return WriteFields([&](FieldWriter& io) { WalkModelPullRequest(io, msg); });
}

Status DecodeModelPullRequest(const std::string& payload,
                              ModelPullRequest* out) {
  return ReadFields(payload, "model-pull-request", [&](FieldReader& io) {
    WalkModelPullRequest(io, *out);
  });
}

std::string EncodeModelPullReply(const ModelPullReply& msg) {
  return WriteFields([&](FieldWriter& io) { WalkModelPullReply(io, msg); });
}

Status DecodeModelPullReply(const std::string& payload, ModelPullReply* out) {
  return ReadFields(payload, "model-pull-reply", [&](FieldReader& io) {
    WalkModelPullReply(io, *out);
  });
}

std::string EncodeUpdatePush(const UpdatePush& msg) {
  return WriteFields([&](FieldWriter& io) { WalkUpdatePush(io, msg); });
}

Status DecodeUpdatePush(const std::string& payload, UpdatePush* out) {
  *out = UpdatePush();  // only the decoded kind's payload is filled
  return ReadFields(payload, "update-push", [&](FieldReader& io) {
    WalkUpdatePush(io, *out);
  });
}

std::string EncodePushAck(const PushAck& msg) {
  return WriteFields([&](FieldWriter& io) { WalkPushAck(io, msg); });
}

Status DecodePushAck(const std::string& payload, PushAck* out) {
  return ReadFields(payload, "push-ack",
                    [&](FieldReader& io) { WalkPushAck(io, *out); });
}

}  // namespace lighttr::fl::transport
