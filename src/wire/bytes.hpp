// Network-order (big-endian) byte stream codec.
//
// All headers in this repository serialize through these two classes, so
// every multi-byte field goes on the wire in network order exactly once,
// and parsing failures surface as explicit errors instead of silent reads
// past the end of a buffer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace netclone::wire {

/// A frame is just owned bytes; the simulation moves these between nodes.
using Frame = std::vector<std::byte>;

/// Thrown when a reader runs out of bytes or a writer overflows a bound.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Cold out-of-line throw helpers; keeping them out of the inline codec
/// accessors keeps the hot (always-taken) path to a compare and a store.
[[noreturn]] void throw_writer_overflow();
[[noreturn]] void throw_reader_underrun();

// Big-endian field accessors at fixed offsets within a raw region obtained
// from ByteWriter::raw / ByteReader::raw. Fixed-layout header codecs write
// through these so the bounds check happens once per header, not per byte.
inline void store_u8(std::byte* p, std::size_t off, std::uint8_t v) {
  p[off] = static_cast<std::byte>(v);
}
inline void store_u16(std::byte* p, std::size_t off, std::uint16_t v) {
  p[off] = static_cast<std::byte>(v >> 8);
  p[off + 1] = static_cast<std::byte>(v & 0xFFU);
}
inline void store_u32(std::byte* p, std::size_t off, std::uint32_t v) {
  store_u16(p, off, static_cast<std::uint16_t>(v >> 16));
  store_u16(p, off + 2, static_cast<std::uint16_t>(v & 0xFFFFU));
}
inline std::uint8_t load_u8(const std::byte* p, std::size_t off) {
  return static_cast<std::uint8_t>(p[off]);
}
inline std::uint16_t load_u16(const std::byte* p, std::size_t off) {
  return static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(p[off]) << 8 |
      static_cast<std::uint16_t>(p[off + 1]));
}
inline std::uint32_t load_u32(const std::byte* p, std::size_t off) {
  return static_cast<std::uint32_t>(load_u16(p, off)) << 16 |
         static_cast<std::uint32_t>(load_u16(p, off + 2));
}

/// Writes big-endian values either into a growing byte vector or into a
/// caller-provided fixed buffer (the pooled frame path serializes straight
/// into arena storage; overflowing the fixed bound throws CodecError).
///
/// The accessors are inline: every frame a host builds, RPC body
/// included, is written through them, and a u32 through out-of-line
/// per-byte calls costs seven function calls.
class ByteWriter {
 public:
  explicit ByteWriter(Frame& out) : vec_(&out) {}
  explicit ByteWriter(std::span<std::byte> fixed)
      : fixed_(fixed.data()), cap_(fixed.size()) {}

  void u8(std::uint8_t v) {
    if (vec_ != nullptr) {
      vec_->push_back(static_cast<std::byte>(v));
      return;
    }
    if (len_ >= cap_) {
      throw_writer_overflow();
    }
    fixed_[len_++] = static_cast<std::byte>(v);
  }
  // Each width reserves its bytes with one raw(): one bounds check, and an
  // overflow throws before anything is written.
  void u16(std::uint16_t v) { store_u16(raw(2), 0, v); }
  void u32(std::uint32_t v) { store_u32(raw(4), 0, v); }
  void u64(std::uint64_t v) {
    std::byte* p = raw(8);
    store_u32(p, 0, static_cast<std::uint32_t>(v >> 32));
    store_u32(p, 4, static_cast<std::uint32_t>(v & 0xFFFFFFFFU));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void bytes(std::span<const std::byte> data);
  void zeros(std::size_t n);

  /// Reserves `n` contiguous output bytes — one bounds check (fixed mode)
  /// or one resize (vector mode) — and returns a pointer to write them
  /// through store_*. The caller must fill all `n` bytes.
  [[nodiscard]] std::byte* raw(std::size_t n) {
    if (vec_ != nullptr) {
      const std::size_t off = vec_->size();
      vec_->resize(off + n);
      return vec_->data() + off;
    }
    if (cap_ - len_ < n) {
      throw_writer_overflow();
    }
    std::byte* p = fixed_ + len_;
    len_ += n;
    return p;
  }

  [[nodiscard]] std::size_t written() const {
    return vec_ != nullptr ? vec_->size() : len_;
  }

 private:
  Frame* vec_ = nullptr;
  std::byte* fixed_ = nullptr;
  std::size_t cap_ = 0;
  std::size_t len_ = 0;
};

/// Consumes big-endian values from a byte span; throws CodecError on
/// underrun so truncated packets can never be half-parsed silently.
/// Inline for the same reason as ByteWriter: hosts read every RPC body
/// through it.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8() {
    require(1);
    return static_cast<std::uint8_t>(data_[offset_++]);
  }
  // Each width consumes its bytes with one raw(): one bounds check, and an
  // underrun throws before the offset moves.
  [[nodiscard]] std::uint16_t u16() { return load_u16(raw(2), 0); }
  [[nodiscard]] std::uint32_t u32() { return load_u32(raw(4), 0); }
  [[nodiscard]] std::uint64_t u64() {
    const std::byte* p = raw(8);
    return static_cast<std::uint64_t>(load_u32(p, 0)) << 32 | load_u32(p, 4);
  }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(u64());
  }
  void bytes(std::span<std::byte> out);
  void skip(std::size_t n) {
    require(n);
    offset_ += n;
  }

  /// Consumes `n` contiguous bytes with a single bounds check and returns
  /// a pointer to read them through load_*.
  [[nodiscard]] const std::byte* raw(std::size_t n) {
    require(n);
    const std::byte* p = data_.data() + offset_;
    offset_ += n;
    return p;
  }

  [[nodiscard]] std::size_t remaining() const {
    return data_.size() - offset_;
  }
  [[nodiscard]] std::size_t offset() const { return offset_; }
  [[nodiscard]] std::span<const std::byte> rest() const {
    return data_.subspan(offset_);
  }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) {
      throw_reader_underrun();
    }
  }

  std::span<const std::byte> data_;
  std::size_t offset_ = 0;
};

/// Writes a big-endian u16 at an absolute offset (checksum patching).
void poke_u16(Frame& frame, std::size_t offset, std::uint16_t v);

/// Reads a big-endian u16 at an absolute offset.
[[nodiscard]] std::uint16_t peek_u16(std::span<const std::byte> frame,
                                     std::size_t offset);

}  // namespace netclone::wire
