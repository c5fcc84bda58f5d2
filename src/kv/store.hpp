// In-memory key-value store: the Redis / Memcached stand-in (§5.5).
//
// An open-addressing hash table with linear probing and inline fixed-size
// slots (16-byte keys, 64-byte values — the MICA-style object sizes the
// paper evaluates with). Lookups do real hashing and probing over a
// contiguous slot array; the service-time model converts operations into
// simulated time, so the store provides correctness and workload structure
// while the clock stays deterministic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace netclone::kv {

inline constexpr std::size_t kMaxKeyBytes = 16;
inline constexpr std::size_t kMaxValueBytes = 64;

class KvStore {
 public:
  /// Creates a store able to hold at least `capacity_hint` objects at a
  /// load factor <= 0.5 (capacity is rounded up to a power of two).
  explicit KvStore(std::size_t capacity_hint);

  /// Inserts or overwrites. Returns false when the table is full or the
  /// key/value exceeds the fixed slot size.
  bool set(std::string_view key, std::string_view value);

  /// Point lookup; the returned view is valid until the next set().
  [[nodiscard]] std::optional<std::string_view> get(
      std::string_view key) const;

  [[nodiscard]] bool contains(std::string_view key) const {
    return get(key).has_value();
  }

  /// Range-read emulation for SCAN: starting at `start_key`'s slot, visits
  /// up to `count` occupied slots in table order and folds their values
  /// into a 64-bit digest (the paper's SCAN reads 100 objects and the
  /// response stays single-packet).
  ///
  /// The digest is a word-wise FNV-1a: it starts at the FNV-1a 64-bit
  /// offset basis and, for each visited value, folds every whole 8-byte
  /// word (read little-endian) with one xor and one multiply by the FNV
  /// prime, then each remaining tail byte the same way. A 64-byte value
  /// is 8 folds. Every fold step is a bijection of the running digest, so
  /// changing any single byte of any visited value changes the digest.
  [[nodiscard]] std::uint64_t scan_digest(std::string_view start_key,
                                          std::size_t count) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  friend void populate(KvStore& store, std::size_t count);

 private:
  struct Slot {
    bool occupied = false;
    std::uint8_t key_len = 0;
    std::uint8_t value_len = 0;
    char key[kMaxKeyBytes] = {};
    char value[kMaxValueBytes] = {};
  };

  [[nodiscard]] std::size_t slot_of(std::string_view key) const;
  /// Index of the key's slot, or of the first free slot in its probe
  /// sequence; nullopt when the table is full.
  [[nodiscard]] std::optional<std::size_t> probe(std::string_view key) const;
  /// One probe from `home` (the key's slot_of): the key's slot, or a free
  /// slot now holding the key; nullptr when inserting would pass the load
  /// bound. The value is left to the caller.
  [[nodiscard]] Slot* claim(std::string_view key, std::size_t home);

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

/// Largest object index with a distinct key: "k" plus 15 decimal digits.
inline constexpr std::uint64_t kMaxKeyIndex = 999'999'999'999'999;

/// Canonical key for object index i: 16 bytes, "k" then the index as
/// zero-padded decimal ("k000000000001234"), no terminator. Clients and
/// servers derive keys identically. Throws CheckFailure when
/// index > kMaxKeyIndex (the 16 bytes could not tell such indexes apart).
void write_key(std::uint64_t index, char (&out)[kMaxKeyBytes]);

/// Deterministic 64-byte value for object index i: printable 'a'..'z'
/// bytes drawn from a mix64 chain seeded with mix64(i + 1).
void write_value(std::uint64_t index, char (&out)[kMaxValueBytes]);

/// write_key/write_value as strings, for tests and examples.
[[nodiscard]] std::string key_for_index(std::uint64_t index);
[[nodiscard]] std::string value_for_index(std::uint64_t index);

/// Fills the store with objects 0..count-1. The table ends up exactly as
/// after `set(key_for_index(i), value_for_index(i))` for i = 0..count-1
/// (same slots, same SCAN order), but each object is probed once and its
/// value generated straight into its slot. Throws CheckFailure when the
/// store is too small.
void populate(KvStore& store, std::size_t count);

}  // namespace netclone::kv
