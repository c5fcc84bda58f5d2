// In-memory key-value store: the Redis / Memcached stand-in (§5.5).
//
// An open-addressing hash table with linear probing over fixed-size
// objects (16-byte keys, 64-byte values — the MICA-style object sizes the
// paper evaluates with). Lookups do real hashing and probing; the
// service-time model converts operations into simulated time, so the store
// provides correctness and workload structure while the clock stays
// deterministic.
//
// Layout: the table is an index of 2^k four-byte entries, and the objects
// live in a separate dense array of records. An index entry is 0 when its
// position is empty and record number + 1 otherwise. At most half of the
// positions are ever used, so 1M objects take an 8 MiB index plus 1M
// 82-byte records, 86 MiB in all; an inline slot at every position would
// take 166 MiB, half of it empty. A key's position (its FNV-1a hash masked
// to the table, then linear probing) decides GET and SCAN results; where
// its record sits only decides how far apart SCAN's reads are.
// `populate()` lays its records out in table order, so a SCAN over a
// populated store reads consecutive records; a later `set()` of a new key
// appends its record out of that order.
//
// The record array is allocated once, to the load bound, and left
// unwritten, so appending a record never reallocates it, and the records
// beyond the last one in use are never touched: they take no memory.
// `set()` appends a zeroed record; `populate()` writes every byte of the
// records it adds, each from the worker that fills it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace netclone::kv {

inline constexpr std::size_t kMaxKeyBytes = 16;
inline constexpr std::size_t kMaxValueBytes = 64;

/// Largest `KvStore` capacity hint. The table then has 2^31 positions, so
/// a table position, a record number + 1 and populate's pending object
/// index each fit in 31 bits of an index entry.
inline constexpr std::size_t kMaxObjects = std::size_t{1} << 30;

class KvStore {
 public:
  /// Creates a store able to hold at least `capacity_hint` objects at a
  /// load factor <= 0.5 (capacity is rounded up to a power of two).
  /// Throws CheckFailure unless 0 < capacity_hint <= kMaxObjects.
  explicit KvStore(std::size_t capacity_hint);

  /// Inserts or overwrites. Returns false when the table is full or the
  /// key/value exceeds the fixed record size.
  bool set(std::string_view key, std::string_view value);

  /// Point lookup; the returned view is valid until the next set().
  [[nodiscard]] std::optional<std::string_view> get(
      std::string_view key) const;

  [[nodiscard]] bool contains(std::string_view key) const {
    return get(key).has_value();
  }

  /// Range-read emulation for SCAN: starting at `start_key`'s home
  /// position, visits up to `count` objects in table order (wrapping at
  /// the end) and folds their values into a 64-bit digest (the paper's
  /// SCAN reads 100 objects and the response stays single-packet).
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
  [[nodiscard]] std::size_t capacity() const { return index_.size(); }

  friend void populate(KvStore& store, std::size_t count);

 private:
  /// No member initializers: a record is written by whoever adds it.
  struct Record {
    std::uint8_t key_len;
    std::uint8_t value_len;
    char key[kMaxKeyBytes];
    char value[kMaxValueBytes];
  };

  /// Index entries at or above this hold no record number: during
  /// populate's first pass they mark a claimed position, with the object
  /// index in the low 31 bits.
  static constexpr std::uint32_t kPending = std::uint32_t{1} << 31;

  [[nodiscard]] std::size_t home_of(std::string_view key) const;
  /// Probing from `home` (the key's home_of), the position holding `key`,
  /// or the first empty one. Pending entries are passed over: they hold
  /// objects populate claimed before `key`'s, whose keys all differ.
  [[nodiscard]] std::size_t position_of(std::string_view key,
                                        std::size_t home) const;
  /// Whether a store of `objects` can take one more within the load bound
  /// of 1/2, which keeps probe chains short.
  [[nodiscard]] bool has_room(std::size_t objects) const {
    return (objects + 1) * 2 <= index_.size();
  }

  std::vector<std::uint32_t> index_;
  std::unique_ptr<Record[]> records_;  // load bound's worth, unwritten
  std::size_t size_ = 0;               // records in use
  std::size_t mask_ = 0;
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
/// (same positions, same GET and SCAN results), but each object is probed
/// once, and the new records are laid out in table order with their values
/// generated in place. Positions are claimed serially, in object order;
/// the new records are then numbered in table order and filled on every
/// usable CPU (`parallel_for`), chunk by chunk of the index, so the store
/// is the same byte for byte on any number of CPUs. Throws CheckFailure
/// when the store is too small, after inserting every object that fits.
void populate(KvStore& store, std::size_t count);

}  // namespace netclone::kv
