#include "src/net/frame.h"

#include <algorithm>
#include <cstring>

namespace zeppelin {
namespace net {

const char* FrameStatusName(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk:
      return "ok";
    case FrameStatus::kIncomplete:
      return "incomplete";
    case FrameStatus::kBadMagic:
      return "bad-magic";
    case FrameStatus::kBadType:
      return "bad-type";
    case FrameStatus::kBadReserved:
      return "bad-reserved";
    case FrameStatus::kOversized:
      return "oversized";
  }
  return "unknown";
}

void WriteFrameHeader(FrameType type, size_t payload_size, char* out) {
  std::memcpy(out, kFrameMagic, 4);
  out[4] = static_cast<char>(type);
  out[5] = out[6] = out[7] = 0;
  const uint32_t len = static_cast<uint32_t>(payload_size);
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
}

char* AppendFrameHeader(FrameType type, size_t payload_size, std::string* out) {
  const size_t at = out->size();
  out->resize(at + kFrameHeaderBytes + payload_size);
  WriteFrameHeader(type, payload_size, out->data() + at);
  return out->data() + at + kFrameHeaderBytes;
}

void AppendFrame(FrameType type, std::string_view payload, std::string* out) {
  char* at = AppendFrameHeader(type, payload.size(), out);
  if (!payload.empty()) {
    std::memcpy(at, payload.data(), payload.size());
  }
}

FrameDecoder::FrameDecoder(uint32_t max_frame_bytes)
    : max_frame_bytes_(std::min(max_frame_bytes, kFrameHardCap)) {}

std::span<char> FrameDecoder::Space(size_t min_bytes) {
  const size_t live = end_ - consumed_;
  // Drop consumed bytes: all at once when nothing is live, else once they
  // pass 64 KiB or the buffer would have to grow.
  if (live == 0) {
    consumed_ = end_ = 0;
  } else if (consumed_ > (64u << 10) ||
             (capacity_ - end_ < min_bytes && live + min_bytes <= capacity_)) {
    std::memmove(buffer_.get(), buffer_.get() + consumed_, live);
    consumed_ = 0;
    end_ = live;
  }
  if (capacity_ - end_ < min_bytes) {
    const size_t capacity = std::max(live + min_bytes, 2 * capacity_);
    auto grown = std::make_unique_for_overwrite<char[]>(capacity);
    if (live > 0) {
      std::memcpy(grown.get(), buffer_.get() + consumed_, live);
    }
    buffer_ = std::move(grown);
    capacity_ = capacity;
    consumed_ = 0;
    end_ = live;
  }
  return {buffer_.get() + end_, capacity_ - end_};
}

void FrameDecoder::Commit(size_t n) {
  if (!poisoned()) {
    end_ += n;
  }
}

void FrameDecoder::Feed(const char* data, size_t size) {
  if (poisoned() || size == 0) {
    return;
  }
  std::memcpy(Space(size).data(), data, size);
  Commit(size);
}

FrameStatus FrameDecoder::Next(Frame* frame) {
  if (poisoned()) {
    return error_;
  }
  const size_t available = end_ - consumed_;
  if (available == 0) {
    return FrameStatus::kIncomplete;
  }
  // Validate the header prefix as soon as its bytes exist — a bad magic or
  // type is reportable before the full header arrives.
  const unsigned char* head =
      reinterpret_cast<const unsigned char*>(buffer_.get()) + consumed_;
  const size_t magic_have = std::min<size_t>(available, 4);
  if (std::memcmp(head, kFrameMagic, magic_have) != 0) {
    return error_ = FrameStatus::kBadMagic;
  }
  if (available < kFrameHeaderBytes) {
    return FrameStatus::kIncomplete;
  }
  const uint8_t type = head[4];
  if (type != static_cast<uint8_t>(FrameType::kRequest) &&
      type != static_cast<uint8_t>(FrameType::kResponse) &&
      type != static_cast<uint8_t>(FrameType::kError)) {
    return error_ = FrameStatus::kBadType;
  }
  if (head[5] != 0 || head[6] != 0 || head[7] != 0) {
    return error_ = FrameStatus::kBadReserved;
  }
  uint32_t payload_len = 0;
  for (int i = 0; i < 4; ++i) {
    payload_len |= static_cast<uint32_t>(head[8 + i]) << (8 * i);
  }
  // The length field is attacker-controlled: cap it before it can drive any
  // buffering or allocation decision.
  if (payload_len > max_frame_bytes_) {
    return error_ = FrameStatus::kOversized;
  }
  if (available < kFrameHeaderBytes + payload_len) {
    return FrameStatus::kIncomplete;
  }
  frame->type = static_cast<FrameType>(type);
  frame->payload = std::string_view(buffer_.get() + consumed_ + kFrameHeaderBytes, payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  return FrameStatus::kOk;
}

}  // namespace net
}  // namespace zeppelin
