#include "fl/transport/wire.h"

#include "common/binary_io.h"
#include "common/crc32.h"

namespace lighttr::fl::transport {

namespace {

constexpr char kMagic[4] = {'L', 'T', 'R', 'F'};

// Caps on hostile length/count fields, far above any legitimate value:
// a lied-about length is rejected before any allocation scales with it.
constexpr uint64_t kMaxModelBlobBytes = 1ull << 30;
constexpr uint64_t kMaxPayloadScalars = 1ull << 27;

bool ValidType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kModelPullRequest) &&
         type <= static_cast<uint8_t>(FrameType::kPushAck);
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
  BinaryWriter writer;
  writer.WriteBytes(kMagic, sizeof(kMagic));
  writer.WriteU8(kWireVersion);
  writer.WriteU8(static_cast<uint8_t>(type));
  writer.WriteU32(static_cast<uint32_t>(payload.size()));
  writer.WriteBytes(payload.data(), payload.size());
  std::string out = writer.Take();
  AppendCrc32Trailer(&out);
  return out;
}

Status DecodeFrame(const std::string& bytes, Frame* out) {
  // Integrity first: nothing is interpreted until the CRC proves the
  // bytes survived the wire intact.
  size_t body_len = 0;
  LIGHTTR_RETURN_NOT_OK(CheckCrc32Trailer(bytes, &body_len));
  const std::string body = bytes.substr(0, body_len);
  BinaryReader reader(body);
  char magic[4];
  LIGHTTR_RETURN_NOT_OK(reader.ReadBytes(magic, sizeof(magic)));
  for (size_t i = 0; i < sizeof(kMagic); ++i) {
    if (magic[i] != kMagic[i]) {
      return Status::InvalidArgument("bad frame magic");
    }
  }
  uint8_t version = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU8(&version));
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(version));
  }
  uint8_t type = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU8(&type));
  if (!ValidType(type)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  uint32_t payload_len = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&payload_len));
  if (payload_len != reader.remaining()) {
    return Status::InvalidArgument(
        "frame length field claims " + std::to_string(payload_len) +
        " payload bytes, " + std::to_string(reader.remaining()) + " present");
  }
  out->type = static_cast<FrameType>(type);
  out->payload.assign(body.data() + reader.offset(), payload_len);
  return Status::Ok();
}

// ---------------------------------------------------------------------
// Message payload codecs.

std::string EncodeModelPullRequest(const ModelPullRequest& msg) {
  BinaryWriter writer;
  writer.WriteU32(static_cast<uint32_t>(msg.round));
  writer.WriteU32(static_cast<uint32_t>(msg.client_id));
  return writer.Take();
}

Status DecodeModelPullRequest(const std::string& payload,
                              ModelPullRequest* out) {
  BinaryReader reader(payload);
  uint32_t round = 0;
  uint32_t client = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&round));
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&client));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in model-pull-request");
  }
  out->round = static_cast<int32_t>(round);
  out->client_id = static_cast<int32_t>(client);
  return Status::Ok();
}

std::string EncodeModelPullReply(const ModelPullReply& msg) {
  BinaryWriter writer;
  writer.WriteU32(static_cast<uint32_t>(msg.round));
  writer.WriteString(msg.model_blob);
  return writer.Take();
}

Status DecodeModelPullReply(const std::string& payload, ModelPullReply* out) {
  BinaryReader reader(payload);
  uint32_t round = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&round));
  LIGHTTR_RETURN_NOT_OK(reader.ReadString(&out->model_blob,
                                          kMaxModelBlobBytes));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in model-pull-reply");
  }
  out->round = static_cast<int32_t>(round);
  return Status::Ok();
}

std::string EncodeUpdatePush(const UpdatePush& msg) {
  BinaryWriter writer;
  writer.WriteU32(static_cast<uint32_t>(msg.round));
  writer.WriteU32(static_cast<uint32_t>(msg.client_id));
  writer.WriteU64(msg.msg_id);
  writer.WriteF64(msg.train_loss);
  writer.WriteU8(static_cast<uint8_t>(msg.kind));
  if (msg.kind == PayloadKind::kRawF64) {
    writer.WriteF64Vector(msg.raw);
  } else {
    writer.WriteF64(msg.quantized.min_value);
    writer.WriteF64(msg.quantized.max_value);
    writer.WriteU64(static_cast<uint64_t>(msg.quantized.codes.size()));
    if (!msg.quantized.codes.empty()) {
      writer.WriteBytes(msg.quantized.codes.data(),
                        msg.quantized.codes.size());
    }
  }
  return writer.Take();
}

Status DecodeUpdatePush(const std::string& payload, UpdatePush* out) {
  BinaryReader reader(payload);
  uint32_t round = 0;
  uint32_t client = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&round));
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&client));
  LIGHTTR_RETURN_NOT_OK(reader.ReadU64(&out->msg_id));
  LIGHTTR_RETURN_NOT_OK(reader.ReadF64(&out->train_loss));
  uint8_t kind = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU8(&kind));
  if (kind > static_cast<uint8_t>(PayloadKind::kQuantizedInt8)) {
    return Status::InvalidArgument("unknown update-push payload kind " +
                                   std::to_string(kind));
  }
  out->kind = static_cast<PayloadKind>(kind);
  out->round = static_cast<int32_t>(round);
  out->client_id = static_cast<int32_t>(client);
  out->raw.clear();
  out->quantized = QuantizedBlob{};
  if (out->kind == PayloadKind::kRawF64) {
    LIGHTTR_RETURN_NOT_OK(reader.ReadF64Vector(&out->raw, kMaxPayloadScalars));
  } else {
    LIGHTTR_RETURN_NOT_OK(reader.ReadF64(&out->quantized.min_value));
    LIGHTTR_RETURN_NOT_OK(reader.ReadF64(&out->quantized.max_value));
    uint64_t count = 0;
    LIGHTTR_RETURN_NOT_OK(reader.ReadU64(&count));
    if (count > reader.remaining()) {
      return Status::InvalidArgument(
          "update-push claims " + std::to_string(count) + " codes, " +
          std::to_string(reader.remaining()) + " payload bytes remain");
    }
    out->quantized.codes.resize(static_cast<size_t>(count));
    if (count > 0) {
      LIGHTTR_RETURN_NOT_OK(reader.ReadBytes(out->quantized.codes.data(),
                                             static_cast<size_t>(count)));
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in update-push");
  }
  return Status::Ok();
}

std::string EncodePushAck(const PushAck& msg) {
  BinaryWriter writer;
  writer.WriteU32(static_cast<uint32_t>(msg.round));
  writer.WriteU32(static_cast<uint32_t>(msg.client_id));
  writer.WriteU64(msg.msg_id);
  writer.WriteU8(msg.duplicate ? 1 : 0);
  return writer.Take();
}

Status DecodePushAck(const std::string& payload, PushAck* out) {
  BinaryReader reader(payload);
  uint32_t round = 0;
  uint32_t client = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&round));
  LIGHTTR_RETURN_NOT_OK(reader.ReadU32(&client));
  LIGHTTR_RETURN_NOT_OK(reader.ReadU64(&out->msg_id));
  uint8_t duplicate = 0;
  LIGHTTR_RETURN_NOT_OK(reader.ReadU8(&duplicate));
  if (duplicate > 1) {
    return Status::InvalidArgument("push-ack duplicate flag out of range");
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in push-ack");
  }
  out->round = static_cast<int32_t>(round);
  out->client_id = static_cast<int32_t>(client);
  out->duplicate = duplicate != 0;
  return Status::Ok();
}

}  // namespace lighttr::fl::transport
