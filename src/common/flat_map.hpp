// FlatMap64 — open-addressing hash map with 64-bit keys, the storage
// engine behind the data-plane match tables (pisa::ExactMatchTable) and
// other u64-keyed hot-path maps (switch multicast groups, the LÆDGE
// coordinator's outstanding-request table).
//
// Why not std::unordered_map: the data plane performs one lookup per
// packet per table, and the node-based layout costs a heap indirection
// plus an allocator round-trip per mutation. This table keeps entries in
// one contiguous power-of-two slot array, probes linearly from a
// mix64-hashed home slot, and erases with backward shifting so probe
// chains never accumulate tombstones. The control plane can presize it
// (`reserve`) so the data plane never rehashes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.hpp"

namespace netclone {

template <typename Value>
class FlatMap64 {
 public:
  /// `capacity_hint` presizes the slot array so that `capacity_hint`
  /// entries fit without growth (0 defers allocation to first insert).
  explicit FlatMap64(std::size_t capacity_hint = 0) {
    if (capacity_hint > 0) {
      reserve(capacity_hint);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Physical slots currently allocated (a power of two); test hook.
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  /// Ensures `n` entries fit without growth.
  void reserve(std::size_t n) {
    std::size_t want = kMinSlots;
    while (n >= grow_threshold(want)) {
      want <<= 1;
    }
    if (want > slots_.size()) {
      rehash(want);
    }
  }

  /// Pointer to the mapped value, or nullptr on miss. Stable until the
  /// next mutation.
  [[nodiscard]] const Value* find(std::uint64_t key) const {
    if (size_ == 0) {
      return nullptr;
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = bucket(key);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (!slot.used) {
        return nullptr;
      }
      if (slot.key == key) {
        return &slot.value;
      }
    }
  }

  [[nodiscard]] Value* find(std::uint64_t key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  /// Mapped value for `key`, default-constructing it on a miss — the
  /// flat-map equivalent of unordered_map::operator[]. `inserted` reports
  /// which case occurred. The reference is stable until the next
  /// mutation.
  [[nodiscard]] Value& get_or_insert(std::uint64_t key, bool& inserted) {
    if (slots_.empty() || size_ + 1 >= grow_threshold(slots_.size())) {
      rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = bucket(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) {
        inserted = false;
        return slots_[i].value;
      }
      i = (i + 1) & mask;
    }
    slots_[i].key = key;
    slots_[i].used = true;
    ++size_;
    inserted = true;
    return slots_[i].value;
  }

  /// Inserts or overwrites; returns true when the key was new.
  bool insert_or_assign(std::uint64_t key, Value value) {
    if (slots_.empty() || size_ + 1 >= grow_threshold(slots_.size())) {
      rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = bucket(key);
    while (slots_[i].used) {
      if (slots_[i].key == key) {
        slots_[i].value = std::move(value);
        return false;
      }
      i = (i + 1) & mask;
    }
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    slots_[i].used = true;
    ++size_;
    return true;
  }

  /// Removes `key` via backward-shift deletion (no tombstones: every
  /// entry whose probe chain ran through the hole is shifted back, so
  /// lookups stay O(chain) forever regardless of churn). Returns whether
  /// the key was present.
  bool erase(std::uint64_t key) {
    if (size_ == 0) {
      return false;
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = bucket(key);
    while (true) {
      if (!slots_[i].used) {
        return false;
      }
      if (slots_[i].key == key) {
        break;
      }
      i = (i + 1) & mask;
    }
    std::size_t j = i;
    while (true) {
      j = (j + 1) & mask;
      if (!slots_[j].used) {
        break;
      }
      // Shift j back into the hole iff its home slot precedes the hole
      // in probe order (cyclic distance comparison).
      const std::size_t home = bucket(slots_[j].key);
      if (((j - home) & mask) >= ((j - i) & mask)) {
        slots_[i].key = slots_[j].key;
        slots_[i].value = std::move(slots_[j].value);
        i = j;
      }
    }
    slots_[i].used = false;
    slots_[i].value = Value{};
    --size_;
    return true;
  }

  void clear() {
    for (Slot& slot : slots_) {
      if (slot.used) {
        slot.used = false;
        slot.value = Value{};
      }
    }
    size_ = 0;
  }

  /// Visits every (key, value) pair in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.used) {
        fn(slot.key, slot.value);
      }
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    Value value{};
    bool used = false;
  };

  static constexpr std::size_t kMinSlots = 8;

  /// Max load factor 3/4: grow once size reaches 3/4 of the slot count.
  [[nodiscard]] static std::size_t grow_threshold(std::size_t slots) {
    return slots - slots / 4;
  }

  [[nodiscard]] std::size_t bucket(std::uint64_t key) const {
    return static_cast<std::size_t>(mix64(key)) & (slots_.size() - 1);
  }

  void rehash(std::size_t new_slot_count) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_slot_count, Slot{});
    const std::size_t mask = new_slot_count - 1;
    for (Slot& slot : old) {
      if (!slot.used) {
        continue;
      }
      std::size_t i = bucket(slot.key);
      while (slots_[i].used) {
        i = (i + 1) & mask;
      }
      slots_[i].key = slot.key;
      slots_[i].value = std::move(slot.value);
      slots_[i].used = true;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace netclone
