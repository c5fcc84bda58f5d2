// Longest-prefix-match table — the classic L3 routing structure of a
// switch ASIC (TCAM-backed on hardware). A single rack needs only host
// routes (/32); the multi-rack deployment of §3.7 routes whole server
// subnets toward the aggregation layer, which needs LPM.
#pragma once

#include <cstdint>
#include <map>

#include "pisa/resources.hpp"
#include "wire/ipv4.hpp"

namespace netclone::pisa {

template <typename Value>
class LpmTable final : public StageResource {
 public:
  LpmTable(Pipeline& pipeline, std::string name, std::size_t stage,
           std::size_t capacity)
      : StageResource(pipeline, std::move(name), stage),
        capacity_(capacity) {}

  // -- control plane --------------------------------------------------------

  /// Installs `prefix/len -> value`. Bits of `prefix` beyond `len` are
  /// ignored. len == 32 is a host route, len == 0 a default route.
  void insert(wire::Ipv4Address prefix, std::uint8_t len, Value value) {
    NETCLONE_CHECK(len <= 32, "prefix length out of range");
    const Key key{masked(prefix.value, len), len};
    NETCLONE_CHECK(entries_.size() < capacity_ || entries_.contains(key),
                   "LPM capacity exceeded: " + name());
    entries_[key] = std::move(value);
  }

  void erase(wire::Ipv4Address prefix, std::uint8_t len) {
    entries_.erase(Key{masked(prefix.value, len), len});
  }

  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }

  // -- data plane -----------------------------------------------------------

  /// Longest matching prefix for `addr`; nullptr on miss. The pointer is
  /// stable until the next control-plane insert/erase.
  [[nodiscard]] const Value* find(PipelinePass& pass,
                                  wire::Ipv4Address addr) {
    record_access(pass);
    for (int len = 32; len >= 0; --len) {
      auto it = entries_.find(
          Key{masked(addr.value, static_cast<std::uint8_t>(len)),
              static_cast<std::uint8_t>(len)});
      if (it != entries_.end()) {
        return &it->second;
      }
    }
    return nullptr;
  }

  [[nodiscard]] std::size_t sram_bytes() const override {
    return capacity_ * (4 + 1 + sizeof(Value));  // prefix + len + action
  }
  [[nodiscard]] bool is_soft_state() const override { return false; }
  void reset() override {}

 private:
  struct Key {
    std::uint32_t prefix;
    std::uint8_t len;
    auto operator<=>(const Key&) const = default;
  };

  [[nodiscard]] static std::uint32_t masked(std::uint32_t addr,
                                            std::uint8_t len) {
    if (len == 0) {
      return 0;
    }
    const std::uint32_t mask = ~std::uint32_t{0}
                               << (32 - static_cast<std::uint32_t>(len));
    return addr & mask;
  }

  std::size_t capacity_;
  std::map<Key, Value> entries_;
};

}  // namespace netclone::pisa
