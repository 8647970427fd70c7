// Length-prefixed framing for the planner daemon protocol (docs/DAEMON.md).
//
// Every message on a daemon connection is one frame:
//
//   offset  size  field
//   0       4     magic 'Z' 'F' 'R' 'M'
//   4       1     frame type (FrameType)
//   5       3     reserved, must be zero
//   8       4     payload length (u32 LE)
//   12      n     payload (wire.h request/response encoding)
//
// The framing layer is the first thing genuinely untrusted bytes hit, so it
// follows the plan_io.h discipline: every violation maps to a typed
// FrameStatus (never a crash, never an allocation driven by unvalidated
// sizes), and the payload-length field is checked against a hard cap before
// any buffering decision is made from it. A framing error is not recoverable
// on a byte stream — the decoder cannot know where the next frame begins —
// so the decoder latches the error (poisoned()) and the daemon/client close
// the connection after sending/seeing one typed error frame.
#ifndef SRC_NET_FRAME_H_
#define SRC_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace zeppelin {
namespace net {

// First bytes of every frame: 'Z' 'F' 'R' 'M'.
inline constexpr char kFrameMagic[4] = {'Z', 'F', 'R', 'M'};
inline constexpr size_t kFrameHeaderBytes = 12;

// Protocol ceiling on payload size; no endpoint may accept more regardless
// of configuration. Daemons usually run with the tighter default below.
inline constexpr uint32_t kFrameHardCap = 64u << 20;
inline constexpr uint32_t kDefaultMaxFrameBytes = 16u << 20;

enum class FrameType : uint8_t {
  kRequest = 1,   // wire.h EncodeRequest payload.
  kResponse = 2,  // wire.h EncodeResponse payload (success).
  kError = 3,     // wire.h EncodeResponse payload (typed error).
};

enum class FrameStatus : uint8_t {
  kOk = 0,        // A complete frame was extracted.
  kIncomplete,    // No error; more bytes are needed.
  kBadMagic,      // Stream does not start with the frame magic.
  kBadType,       // Unknown FrameType value.
  kBadReserved,   // Reserved header bytes are non-zero.
  kOversized,     // Declared payload exceeds the decoder's cap.
};

const char* FrameStatusName(FrameStatus status);

// A decoded frame. The payload is a view into the decoder's buffer, valid
// until the decoder is next fed (Feed, Space or Commit).
struct Frame {
  FrameType type = FrameType::kRequest;
  std::string_view payload;
};

// Writes the kFrameHeaderBytes header of a `payload_size`-byte frame at
// `out`, for a caller that sends the payload from buffers of its own.
void WriteFrameHeader(FrameType type, size_t payload_size, char* out);

// Grows `*out` by one whole frame of `payload_size` bytes, writes its header,
// and returns where the payload goes: the wire encoders build their payload
// there in place. The caller keeps payloads under the peer's frame cap.
char* AppendFrameHeader(FrameType type, size_t payload_size, std::string* out);

// Appends one complete frame (header + a copy of `payload`) to `*out`.
void AppendFrame(FrameType type, std::string_view payload, std::string* out);

// Incremental frame decoder over a TCP byte stream. Feed() raw bytes in any
// chunking, or read straight into the buffer through Space() + Commit();
// Next() yields complete frames until kIncomplete. Any framing violation
// poisons the decoder permanently: further Next() calls return the same
// error and further bytes are dropped (the stream position is undefined
// after a violation, and buffering unbounded garbage would be its own
// denial-of-service vector).
class FrameDecoder {
 public:
  explicit FrameDecoder(uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

  void Feed(const char* data, size_t size);
  void Feed(std::string_view bytes) { Feed(bytes.data(), bytes.size()); }

  // Direct reads: Space(min_bytes) returns writable room for at least
  // `min_bytes` at the end of the buffer; Commit(n) appends the first n bytes
  // written there. A reader recv()s into it with no bounce buffer.
  std::span<char> Space(size_t min_bytes);
  void Commit(size_t n);

  // kOk fills `*frame`; kIncomplete means feed more bytes; anything else is
  // the latched framing error.
  FrameStatus Next(Frame* frame);

  bool poisoned() const { return error_ != FrameStatus::kOk; }
  size_t buffered() const { return end_ - consumed_; }
  uint32_t max_frame_bytes() const { return max_frame_bytes_; }

 private:
  uint32_t max_frame_bytes_;
  // [consumed_, end_) of buffer_ holds the bytes not yet handed out as
  // frames. Consumed bytes are dropped before the buffer grows; it grows
  // geometrically, to at most twice one capped frame plus one read.
  std::unique_ptr<char[]> buffer_;
  size_t capacity_ = 0;
  size_t consumed_ = 0;
  size_t end_ = 0;
  FrameStatus error_ = FrameStatus::kOk;
};

}  // namespace net
}  // namespace zeppelin

#endif  // SRC_NET_FRAME_H_
