#include "wire/ipv4.hpp"

#include <array>
#include <cstdio>

namespace netclone::wire {

std::string Ipv4Address::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (value >> 24) & 0xFFU,
                (value >> 16) & 0xFFU, (value >> 8) & 0xFFU, value & 0xFFU);
  return buf;
}

std::uint16_t internet_checksum(std::span<const std::byte> data,
                                std::uint32_t initial_sum) {
  std::uint32_t sum = initial_sum;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(
        static_cast<std::uint16_t>(data[i]) << 8 |
        static_cast<std::uint16_t>(data[i + 1]));
  }
  if (i < data.size()) {  // odd trailing byte: pad with zero
    sum += static_cast<std::uint32_t>(static_cast<std::uint16_t>(data[i])
                                      << 8);
  }
  while ((sum >> 16) != 0) {
    sum = (sum & 0xFFFFU) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xFFFFU);
}

std::uint16_t Ipv4Header::compute_checksum() const {
  std::array<std::byte, kSize> buf;
  store(buf.data());
  return internet_checksum(buf);
}

bool Ipv4Header::checksum_valid() const {
  return compute_checksum() == header_checksum;
}

void Ipv4Header::serialize(ByteWriter& w) {
  std::byte* p = w.raw(kSize);
  store(p);
  header_checksum = internet_checksum({p, kSize});
  store_u16(p, 10, header_checksum);
}

}  // namespace netclone::wire
