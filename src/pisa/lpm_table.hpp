// Longest-prefix-match table — the classic L3 routing structure of a
// switch ASIC (TCAM-backed on hardware). Single-rack deployments get away
// with host routes; the multi-rack deployment of §3.7 routes whole server
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

/// Data-plane packet/byte counter, attachable to any program action —
/// P4's counter extern. Stateless from the constraint model's perspective
/// (counters never feed back into forwarding), so multiple increments per
/// pass are allowed.
class CounterArray final : public StageResource {
 public:
  CounterArray(Pipeline& pipeline, std::string name, std::size_t stage,
               std::size_t size)
      : StageResource(pipeline, std::move(name), stage),
        packets_(size, 0),
        bytes_(size, 0) {}

  void count(PipelinePass& pass, std::size_t index, std::size_t frame_bytes);

  [[nodiscard]] std::uint64_t packets(std::size_t index) const {
    return packets_.at(index);
  }
  [[nodiscard]] std::uint64_t bytes(std::size_t index) const {
    return bytes_.at(index);
  }
  [[nodiscard]] std::size_t size() const { return packets_.size(); }

  [[nodiscard]] std::size_t sram_bytes() const override {
    return packets_.size() * 16;  // 64-bit packet + byte cells
  }
  [[nodiscard]] bool is_soft_state() const override { return true; }
  void reset() override;

 private:
  std::vector<std::uint64_t> packets_;
  std::vector<std::uint64_t> bytes_;
};

}  // namespace netclone::pisa
