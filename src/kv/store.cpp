#include "kv/store.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/prefetch.hpp"

namespace netclone::kv {

namespace {

std::uint64_t load_le64(const char* bytes) {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

/// Asks the kernel to back a large array with transparent huge pages
/// (needed where THP runs in "madvise" mode). Filling and randomly probing
/// the 1M-object store's 8 MiB index and 78 MiB of records otherwise costs
/// a page fault per 4 KiB and a TLB miss on nearly every probe. Advisory
/// only: the bytes and their layout are the same either way.
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
  NETCLONE_CHECK(capacity_hint <= kMaxObjects,
                 "store capacity " + std::to_string(capacity_hint) +
                     " exceeds kMaxObjects");
  const std::size_t capacity = std::bit_ceil(capacity_hint * 2);
  index_.reserve(capacity);
  advise_huge_pages(index_.data(), capacity * sizeof(std::uint32_t));
  index_.resize(capacity);  // within the reservation: no reallocation
  // Sized to the load bound and left unwritten: only records in use are
  // ever touched.
  records_ = std::make_unique_for_overwrite<Record[]>(capacity / 2);
  advise_huge_pages(records_.get(), capacity / 2 * sizeof(Record));
  mask_ = capacity - 1;
}

std::size_t KvStore::home_of(std::string_view key) const {
  return static_cast<std::size_t>(fnv1a(key)) & mask_;
}

std::size_t KvStore::position_of(std::string_view key,
                                 std::size_t home) const {
  // The load bound leaves half the positions empty, so the probe ends.
  for (std::size_t pos = home;; pos = (pos + 1) & mask_) {
    const std::uint32_t entry = index_[pos];
    if (entry == 0) {
      return pos;
    }
    if (entry < kPending) {
      const Record& record = records_[entry - 1];
      if (record.key_len == key.size() &&
          std::memcmp(record.key, key.data(), key.size()) == 0) {
        return pos;
      }
    }
  }
}

bool KvStore::set(std::string_view key, std::string_view value) {
  if (key.empty() || key.size() > kMaxKeyBytes ||
      value.size() > kMaxValueBytes) {
    return false;
  }
  std::uint32_t& entry = index_[position_of(key, home_of(key))];
  if (entry == 0) {
    if (!has_room(size_)) {
      return false;
    }
    records_[size_] = Record{};
    entry = static_cast<std::uint32_t>(++size_);
  }
  Record& record = records_[entry - 1];
  record.key_len = static_cast<std::uint8_t>(key.size());
  std::memcpy(record.key, key.data(), key.size());
  record.value_len = static_cast<std::uint8_t>(value.size());
  std::memcpy(record.value, value.data(), value.size());
  return true;
}

std::optional<std::string_view> KvStore::get(std::string_view key) const {
  if (key.empty() || key.size() > kMaxKeyBytes) {
    return std::nullopt;
  }
  const std::uint32_t entry = index_[position_of(key, home_of(key))];
  if (entry == 0) {
    return std::nullopt;
  }
  const Record& record = records_[entry - 1];
  return std::string_view{record.value, record.value_len};
}

std::uint64_t KvStore::scan_digest(std::string_view start_key,
                                   std::size_t count) const {
  std::uint64_t digest = kFnv1aOffsetBasis;
  std::size_t visited = 0;
  const std::size_t start = home_of(start_key);
  for (std::size_t i = 0; i < index_.size() && visited < count; ++i) {
    const std::uint32_t entry = index_[(start + i) & mask_];
    if (entry == 0) {
      continue;
    }
    const Record& record = records_[entry - 1];
    std::size_t b = 0;
    for (; b + 8 <= record.value_len; b += 8) {
      digest ^= load_le64(record.value + b);
      digest *= kFnv1aPrime;
    }
    for (; b < record.value_len; ++b) {
      digest ^= static_cast<std::uint8_t>(record.value[b]);
      digest *= kFnv1aPrime;
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
  using Record = KvStore::Record;
  NETCLONE_CHECK(count == 0 || count - 1 <= kMaxKeyIndex,
                 "object count does not fit 16-byte keys");

  // The index in chunks of 2^16 positions, the unit of pass 2's parallel
  // fill: 32 chunks at 1M objects, enough to keep every worker busy to
  // the end, each large enough that claiming it costs nothing.
  constexpr unsigned kChunkBits = 16;
  const std::size_t chunks = ((store.index_.size() - 1) >> kChunkBits) + 1;
  // Pass 1 counts each chunk's pending entries into first[c + 1]; a
  // prefix sum then turns first[c] into chunk c's first record number.
  std::vector<std::size_t> first(chunks + 1, 0);

  // Pass 1 claims each new object's position in object order, as the
  // set() loop would, and marks it pending with the object index; objects
  // already in the store get their value rewritten in place. Keys are
  // formatted and hashed kAhead objects before they are inserted, and
  // their home entries prefetched then, so the index's cache misses
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
    s.home = store.home_of({s.key, kMaxKeyBytes});
    prefetch_read(&store.index_[s.home]);
  };
  for (std::uint64_t i = 0; i < std::min(count, kAhead); ++i) {
    stage(i);
  }
  const std::size_t stored = store.size();
  std::size_t pending = 0;
  bool full = false;
  for (std::uint64_t i = 0; i < count; ++i) {
    const Staged& s = staged[i % kAhead];
    const std::size_t pos = store.position_of({s.key, kMaxKeyBytes}, s.home);
    std::uint32_t& entry = store.index_[pos];
    if (entry != 0) {
      Record& record = store.records_[entry - 1];
      record.value_len = kMaxValueBytes;
      write_value(i, record.value);
    } else if (store.has_room(stored + pending)) {
      // Objects 0..i-1 are all stored or pending, so the load bound keeps
      // i below kMaxObjects: it fits beside the flag.
      entry = KvStore::kPending | static_cast<std::uint32_t>(i);
      ++first[(pos >> kChunkBits) + 1];
      ++pending;
    } else {
      full = true;
      break;
    }
    if (i + kAhead < count) {
      stage(i + kAhead);
    }
  }

  // Pass 2 gives each pending entry the next record number in table
  // order, after the records already stored, so a SCAN over the populated
  // store reads consecutive records. A chunk's numbers follow from the
  // counts alone, so the chunks fill their records in parallel, each
  // number landing exactly where the serial walk would put it. The new
  // records are first written by the worker filling them. Values are
  // generated kLanes objects at a time, straight into their records.
  first[0] = stored;
  std::partial_sum(first.begin(), first.end(), first.begin());
  store.size_ = stored + pending;
  const auto fill_chunk = [&store, &first](std::size_t c) {
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
    std::size_t next = first[c];
    for (std::size_t pos = c << kChunkBits; next < first[c + 1]; ++pos) {
      std::uint32_t& entry = store.index_[pos];
      if (entry < KvStore::kPending) {
        continue;
      }
      const std::uint64_t object = entry & ~KvStore::kPending;
      Record& record = store.records_[next];
      entry = static_cast<std::uint32_t>(++next);
      record.key_len = kMaxKeyBytes;
      write_key(object, record.key);
      record.value_len = kMaxValueBytes;
      lane_index[lanes] = object;
      lane_value[lanes] = record.value;
      if (++lanes == kLanes) {
        flush_values();
      }
    }
    flush_values();
  };
  parallel_for(chunks, fill_chunk);
  NETCLONE_CHECK(!full, "store population failed (capacity too small)");
}

}  // namespace netclone::kv
