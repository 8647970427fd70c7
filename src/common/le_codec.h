// Little-endian fixed-width encoding shared by the plan format
// (src/core/plan_io.cc) and the daemon protocol (src/net/wire.cc). Internal.
//
// Both formats are defined byte-wise: every integer is little-endian and
// fixed-width, with no padding, on every host. Encoders compute their exact
// output size, size the buffer once, and write through a Writer; decoders
// test Reader::Have(n) and then read. Scalars are stored with one byte-order
// normalization (nothing on a little-endian host, a byte swap on a
// big-endian one). Arrays of fixed-width integers move in bulk: one memcpy on
// a little-endian host, an element-wise swap on a big-endian one. The choice
// is made at compile time, so each host runs exactly one codec.
#ifndef SRC_COMMON_LE_CODEC_H_
#define SRC_COMMON_LE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>

namespace zeppelin {
namespace le_codec {

static_assert(sizeof(int) == 4, "the formats carry int fields as 4-byte integers");
static_assert(std::endian::native == std::endian::little ||
                  std::endian::native == std::endian::big,
              "mixed-endian hosts are not supported");

inline constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

// Host order <-> little-endian for an unsigned integer: the identity on a
// little-endian host.
template <typename U>
constexpr U ToLe(U v) {
  static_assert(std::is_unsigned_v<U>);
  if constexpr (kLittleEndianHost || sizeof(U) == 1) {
    return v;
  } else {
    U out = 0;
    for (size_t i = 0; i < sizeof(U); ++i) {
      out = static_cast<U>((out << 8) | (v & 0xff));
      v = static_cast<U>(v >> 8);
    }
    return out;
  }
}

// Writes into a buffer the caller sized for the whole encoding up front: no
// capacity checks, no appends.
class Writer {
 public:
  explicit Writer(char* out) : p_(out) {}

  void U8(uint8_t v) { *p_++ = static_cast<char>(v); }
  void U32(uint32_t v) { Store(v); }
  void U64(uint64_t v) { Store(v); }
  void I32(int32_t v) { Store(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { Store(static_cast<uint64_t>(v)); }
  void F64(double v) { Store(std::bit_cast<uint64_t>(v)); }

  void Bytes(const void* data, size_t size) {
    if (size > 0) {
      std::memcpy(p_, data, size);
      p_ += size;
    }
  }

  // A contiguous array of 4- or 8-byte integers, each little-endian.
  template <typename T>
  void Array(std::span<const T> values) {
    static_assert(std::is_integral_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
    if constexpr (kLittleEndianHost) {
      Bytes(values.data(), values.size_bytes());
    } else {
      for (const T v : values) {
        Store(static_cast<std::make_unsigned_t<T>>(v));
      }
    }
  }

 private:
  template <typename U>
  void Store(U v) {
    v = ToLe(v);
    std::memcpy(p_, &v, sizeof(v));
    p_ += sizeof(v);
  }

  char* p_;
};

// Cursor-based reader. The Get* calls do not bounds-check themselves: callers
// test Have(n) first, so a truncated or lying input can never read past the
// end. The cursor is a pointer, not an index: a store through an int64_t
// field of a decoded record cannot alias it, so decode loops keep it in a
// register.
class Reader {
 public:
  explicit Reader(std::string_view bytes)
      : p_(reinterpret_cast<const unsigned char*>(bytes.data())), end_(p_ + bytes.size()) {}

  bool Have(size_t n) const { return remaining() >= n; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

  uint8_t GetU8() { return *p_++; }
  uint32_t GetU32() { return Load<uint32_t>(); }
  uint64_t GetU64() { return Load<uint64_t>(); }
  int32_t GetI32() { return static_cast<int32_t>(GetU32()); }
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetF64() { return std::bit_cast<double>(GetU64()); }

  // The next `n` bytes, in place.
  std::string_view GetBytes(size_t n) {
    const std::string_view bytes(reinterpret_cast<const char*>(p_), n);
    p_ += n;
    return bytes;
  }

  // Fills `out` from the next out.size() little-endian 4- or 8-byte
  // integers (Have(out.size_bytes()) first).
  template <typename T>
  void GetArray(std::span<T> out) {
    static_assert(std::is_integral_v<T> && (sizeof(T) == 4 || sizeof(T) == 8));
    if constexpr (kLittleEndianHost) {
      if (!out.empty()) {
        std::memcpy(out.data(), p_, out.size_bytes());
      }
      p_ += out.size_bytes();
    } else {
      for (T& v : out) {
        v = static_cast<T>(Load<std::make_unsigned_t<T>>());
      }
    }
  }

 private:
  template <typename U>
  U Load() {
    U v;
    std::memcpy(&v, p_, sizeof(v));
    p_ += sizeof(v);
    return ToLe(v);
  }

  const unsigned char* p_;
  const unsigned char* end_;
};

}  // namespace le_codec
}  // namespace zeppelin

#endif  // SRC_COMMON_LE_CODEC_H_
