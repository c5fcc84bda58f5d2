#include "kv/store.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/prefetch.hpp"

namespace netclone::kv {

namespace {

constexpr std::uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

std::uint64_t load_le64(const char* bytes) {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// Asks the kernel to back a large table with transparent huge pages
/// (needed where THP runs in "madvise" mode). Zero-filling and randomly
/// probing a 166 MiB table otherwise costs a page fault per 4 KiB and a
/// TLB miss on nearly every probe. Advisory only: the bytes and their
/// layout are the same either way.
void advise_huge_pages(const void* data, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (bytes < (std::size_t{2} << 20)) {
    return;  // smaller than one huge page
  }
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const auto start = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t begin = (start + page - 1) & ~(page - 1);
  (void)madvise(reinterpret_cast<void*>(begin), start + bytes - begin,
                MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

/// Generates the values of N objects side by side. Each value is a serial
/// chain of 64 mix64 steps; interleaving independent chains lets the CPU
/// overlap their multiplies instead of waiting on one chain at a time.
template <std::size_t N>
void fill_values(const std::array<std::uint64_t, N>& index,
                 const std::array<char*, N>& out) {
  std::array<std::uint64_t, N> state;
  for (std::size_t j = 0; j < N; ++j) {
    state[j] = mix64(index[j] + 1);
  }
  for (std::size_t b = 0; b < kMaxValueBytes; ++b) {
    for (std::size_t j = 0; j < N; ++j) {
      state[j] = mix64(state[j]);
      // Printable bytes keep pcap dumps and debugging output readable.
      out[j][b] = static_cast<char>('a' + state[j] % 26);
    }
  }
}

}  // namespace

KvStore::KvStore(std::size_t capacity_hint) {
  NETCLONE_CHECK(capacity_hint > 0, "store capacity must be positive");
  const std::size_t capacity = std::bit_ceil(capacity_hint * 2);
  slots_.reserve(capacity);
  advise_huge_pages(slots_.data(), capacity * sizeof(Slot));
  slots_.resize(capacity);  // within the reservation: no reallocation
  mask_ = capacity - 1;
}

std::size_t KvStore::slot_of(std::string_view key) const {
  return static_cast<std::size_t>(fnv1a(key)) & mask_;
}

std::optional<std::size_t> KvStore::probe(std::string_view key) const {
  const std::size_t start = slot_of(key);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::size_t idx = (start + i) & mask_;
    const Slot& slot = slots_[idx];
    if (!slot.occupied) {
      return idx;
    }
    if (slot.key_len == key.size() &&
        std::memcmp(slot.key, key.data(), key.size()) == 0) {
      return idx;
    }
  }
  return std::nullopt;
}

KvStore::Slot* KvStore::claim(std::string_view key, std::size_t home) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[(home + i) & mask_];
    if (!slot.occupied) {
      // Keep the load factor at or below 1/2 so probe chains stay short.
      if ((size_ + 1) * 2 > slots_.size()) {
        return nullptr;
      }
      slot.occupied = true;
      slot.key_len = static_cast<std::uint8_t>(key.size());
      std::memcpy(slot.key, key.data(), key.size());
      ++size_;
      return &slot;
    }
    if (slot.key_len == key.size() &&
        std::memcmp(slot.key, key.data(), key.size()) == 0) {
      return &slot;
    }
  }
  return nullptr;
}

bool KvStore::set(std::string_view key, std::string_view value) {
  if (key.empty() || key.size() > kMaxKeyBytes ||
      value.size() > kMaxValueBytes) {
    return false;
  }
  Slot* slot = claim(key, slot_of(key));
  if (slot == nullptr) {
    return false;
  }
  slot->value_len = static_cast<std::uint8_t>(value.size());
  std::memcpy(slot->value, value.data(), value.size());
  return true;
}

std::optional<std::string_view> KvStore::get(std::string_view key) const {
  if (key.empty() || key.size() > kMaxKeyBytes) {
    return std::nullopt;
  }
  const auto idx = probe(key);
  if (!idx || !slots_[*idx].occupied) {
    return std::nullopt;
  }
  const Slot& slot = slots_[*idx];
  return std::string_view{slot.value, slot.value_len};
}

std::uint64_t KvStore::scan_digest(std::string_view start_key,
                                   std::size_t count) const {
  std::uint64_t digest = kFnvOffsetBasis;
  std::size_t visited = 0;
  const std::size_t start = slot_of(start_key);
  for (std::size_t i = 0; i < slots_.size() && visited < count; ++i) {
    const Slot& slot = slots_[(start + i) & mask_];
    if (!slot.occupied) {
      continue;
    }
    std::size_t b = 0;
    for (; b + 8 <= slot.value_len; b += 8) {
      digest ^= load_le64(slot.value + b);
      digest *= kFnvPrime;
    }
    for (; b < slot.value_len; ++b) {
      digest ^= static_cast<std::uint8_t>(slot.value[b]);
      digest *= kFnvPrime;
    }
    ++visited;
  }
  return digest;
}

void write_key(std::uint64_t index, char (&out)[kMaxKeyBytes]) {
  NETCLONE_CHECK(index <= kMaxKeyIndex,
                 "object index " + std::to_string(index) +
                     " does not fit a 16-byte key");
  out[0] = 'k';
  for (std::size_t i = kMaxKeyBytes - 1; i > 0; --i) {
    out[i] = static_cast<char>('0' + index % 10);
    index /= 10;
  }
}

void write_value(std::uint64_t index, char (&out)[kMaxValueBytes]) {
  fill_values<1>({index}, {out});
}

std::string key_for_index(std::uint64_t index) {
  char key[kMaxKeyBytes];
  write_key(index, key);
  return std::string{key, kMaxKeyBytes};
}

std::string value_for_index(std::uint64_t index) {
  char value[kMaxValueBytes];
  write_value(index, value);
  return std::string{value, kMaxValueBytes};
}

void populate(KvStore& store, std::size_t count) {
  using Slot = KvStore::Slot;
  NETCLONE_CHECK(count == 0 || count - 1 <= kMaxKeyIndex,
                 "object count does not fit 16-byte keys");
  // Keys are formatted and hashed kAhead objects before they are inserted,
  // and their home slots prefetched then, so the table's cache misses
  // overlap instead of stalling each insert in turn.
  constexpr std::size_t kAhead = 16;
  struct Staged {
    char key[kMaxKeyBytes];
    std::size_t home;
  };
  std::array<Staged, kAhead> staged;
  const auto stage = [&](std::uint64_t i) {
    Staged& s = staged[i % kAhead];
    write_key(i, s.key);
    s.home = store.slot_of({s.key, kMaxKeyBytes});
    const auto* slot = reinterpret_cast<const char*>(&store.slots_[s.home]);
    prefetch_read(slot);
    prefetch_read(slot + sizeof(Slot) - 1);
  };

  // Values are generated kLanes objects at a time, straight into their
  // slots, once those slots are claimed.
  constexpr std::size_t kLanes = 8;
  std::array<std::uint64_t, kLanes> lane_index{};
  std::array<char*, kLanes> lane_value{};
  std::size_t lanes = 0;
  const auto flush_values = [&] {
    if (lanes == kLanes) {
      fill_values<kLanes>(lane_index, lane_value);
    } else {
      for (std::size_t j = 0; j < lanes; ++j) {
        fill_values<1>({lane_index[j]}, {lane_value[j]});
      }
    }
    lanes = 0;
  };

  for (std::uint64_t i = 0; i < std::min(count, kAhead); ++i) {
    stage(i);
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    Staged& s = staged[i % kAhead];
    Slot* slot = store.claim({s.key, kMaxKeyBytes}, s.home);
    if (slot == nullptr) {
      flush_values();
      NETCLONE_CHECK(false, "store population failed (capacity too small)");
    }
    slot->value_len = kMaxValueBytes;
    lane_index[lanes] = i;
    lane_value[lanes] = slot->value;
    if (++lanes == kLanes) {
      flush_values();
    }
    if (i + kAhead < count) {
      stage(i + kAhead);
    }
  }
  flush_values();
}

}  // namespace netclone::kv
