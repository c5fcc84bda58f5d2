#include "wire/bytes.hpp"

#include <algorithm>

namespace netclone::wire {

void throw_writer_overflow() { throw CodecError{"byte writer overflow"}; }

void throw_reader_underrun() { throw CodecError{"byte stream underrun"}; }

void ByteWriter::bytes(std::span<const std::byte> data) {
  if (vec_ != nullptr) {
    vec_->insert(vec_->end(), data.begin(), data.end());
    return;
  }
  if (cap_ - len_ < data.size()) {
    throw_writer_overflow();
  }
  std::copy(data.begin(), data.end(), fixed_ + len_);
  len_ += data.size();
}

void ByteReader::bytes(std::span<std::byte> out) {
  require(out.size());
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(offset_),
              out.size(), out.begin());
  offset_ += out.size();
}

void poke_u16(Frame& frame, std::size_t offset, std::uint16_t v) {
  if (offset + 2 > frame.size()) {
    throw CodecError{"poke_u16 out of range"};
  }
  frame[offset] = static_cast<std::byte>(v >> 8);
  frame[offset + 1] = static_cast<std::byte>(v & 0xFFU);
}

std::uint16_t peek_u16(std::span<const std::byte> frame, std::size_t offset) {
  if (offset + 2 > frame.size()) {
    throw CodecError{"peek_u16 out of range"};
  }
  return static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(frame[offset]) << 8 |
      static_cast<std::uint16_t>(frame[offset + 1]));
}

}  // namespace netclone::wire
