// Little-endian fixed-width encoding shared by the plan format
// (src/core/plan_io.cc) and the daemon protocol (src/net/wire.cc). Internal:
// both formats are defined byte-wise on top of these helpers, so neither
// encoder relies on host struct layout or endianness.
#ifndef SRC_COMMON_LE_CODEC_H_
#define SRC_COMMON_LE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace zeppelin {
namespace le_codec {

inline void PutU8(std::string* out, uint8_t v) { out->push_back(static_cast<char>(v)); }

inline void PutU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(b, 4);
}

inline void PutU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) {
    b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out->append(b, 8);
}

inline void PutI32(std::string* out, int32_t v) { PutU32(out, static_cast<uint32_t>(v)); }
inline void PutI64(std::string* out, int64_t v) { PutU64(out, static_cast<uint64_t>(v)); }
inline void PutF64(std::string* out, double v) { PutU64(out, std::bit_cast<uint64_t>(v)); }

// Cursor-based reader. The Get* calls do not bounds-check themselves: callers
// test Have(n) first, so a truncated or lying input can never read past the
// end.
struct Reader {
  const unsigned char* data;
  size_t size;
  size_t pos = 0;

  bool Have(size_t n) const { return size - pos >= n; }
  uint8_t GetU8() { return data[pos++]; }
  uint32_t GetU32() {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(data[pos + i]) << (8 * i);
    }
    pos += 4;
    return v;
  }
  uint64_t GetU64() {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data[pos + i]) << (8 * i);
    }
    pos += 8;
    return v;
  }
  int32_t GetI32() { return static_cast<int32_t>(GetU32()); }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetF64() { return std::bit_cast<double>(GetU64()); }
};

}  // namespace le_codec
}  // namespace zeppelin

#endif  // SRC_COMMON_LE_CODEC_H_
