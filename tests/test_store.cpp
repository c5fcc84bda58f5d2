#include "kv/store.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "one_cpu.hpp"

namespace netclone::kv {
namespace {

TEST(KvStore, SetAndGet) {
  KvStore store{16};
  EXPECT_TRUE(store.set("hello", "world"));
  const auto v = store.get("hello");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "world");
  EXPECT_EQ(store.size(), 1U);
}

TEST(KvStore, MissingKeyIsNullopt) {
  KvStore store{16};
  EXPECT_FALSE(store.get("nope").has_value());
  EXPECT_FALSE(store.contains("nope"));
}

TEST(KvStore, OverwriteKeepsSize) {
  KvStore store{16};
  EXPECT_TRUE(store.set("k", "v1"));
  EXPECT_TRUE(store.set("k", "v2"));
  EXPECT_EQ(store.size(), 1U);
  EXPECT_EQ(*store.get("k"), "v2");
}

TEST(KvStore, RejectsOversizedKeysAndValues) {
  KvStore store{16};
  EXPECT_FALSE(store.set(std::string(17, 'k'), "v"));
  EXPECT_FALSE(store.set("k", std::string(65, 'v')));
  EXPECT_FALSE(store.set("", "v"));
  EXPECT_TRUE(store.set(std::string(16, 'k'), std::string(64, 'v')));
}

TEST(KvStore, LoadFactorBoundEnforced) {
  KvStore store{4};  // capacity rounds to 8; max 4 objects
  EXPECT_EQ(store.capacity(), 8U);
  int inserted = 0;
  for (int i = 0; i < 10; ++i) {
    inserted += store.set("key" + std::to_string(i), "v") ? 1 : 0;
  }
  EXPECT_EQ(inserted, 4);
  EXPECT_EQ(store.size(), 4U);
  // Existing keys still updatable at the bound.
  EXPECT_TRUE(store.set("key0", "v2"));
}

TEST(KvStore, ProbeChainsSurviveCollisions) {
  KvStore store{64};
  // Insert enough keys that linear probing wraps and chains.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(store.set(key_for_index(static_cast<std::uint64_t>(i)),
                          value_for_index(static_cast<std::uint64_t>(i))));
  }
  for (int i = 0; i < 60; ++i) {
    const auto v = store.get(key_for_index(static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(v.has_value()) << i;
    EXPECT_EQ(*v, value_for_index(static_cast<std::uint64_t>(i)));
  }
}

TEST(KvStore, ScanDigestDeterministicAndSensitive) {
  KvStore store{256};
  populate(store, 128);
  const std::uint64_t d1 = store.scan_digest(key_for_index(5), 100);
  const std::uint64_t d2 = store.scan_digest(key_for_index(5), 100);
  EXPECT_EQ(d1, d2);
  const std::uint64_t d3 = store.scan_digest(key_for_index(6), 100);
  EXPECT_NE(d1, d3);  // different start -> different objects folded
  const std::uint64_t d4 = store.scan_digest(key_for_index(5), 50);
  EXPECT_NE(d1, d4);  // different count
}

TEST(KvStore, ScanOnEmptyStore) {
  KvStore store{16};
  // No occupied slots: digest is the FNV offset basis, and no crash.
  EXPECT_EQ(store.scan_digest("whatever", 100), 0xCBF29CE484222325ULL);
}

TEST(KeyValueHelpers, Shapes) {
  const std::string key = key_for_index(1234);
  EXPECT_EQ(key.size(), kMaxKeyBytes);
  EXPECT_EQ(key, "k000000000001234");
  const std::string value = value_for_index(1234);
  EXPECT_EQ(value.size(), kMaxValueBytes);
  EXPECT_EQ(value, value_for_index(1234));
  EXPECT_NE(value, value_for_index(1235));
}

TEST(KvStore, PopulateMatchesPaperScale) {
  // 100k objects (1M in the benches, shrunk here for test speed): every
  // object retrievable with the right value.
  KvStore store{100000};
  populate(store, 100000);
  EXPECT_EQ(store.size(), 100000U);
  for (std::uint64_t i = 0; i < 100000; i += 9973) {
    const auto v = store.get(key_for_index(i));
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, value_for_index(i));
  }
}

TEST(KvStore, ZeroCapacityRejected) {
  EXPECT_THROW(KvStore{0}, CheckFailure);
}

TEST(KvStore, CapacityAboveMaxObjectsRejected) {
  // Thrown before anything is allocated (the table alone would be 16 GiB).
  EXPECT_THROW(KvStore{kMaxObjects + 1}, CheckFailure);
}

TEST(KvStore, TableLayoutIsPinned) {
  // Recorded from the inline-slot table this store replaced. They pin
  // every key's table position and SCAN order, which the populate-vs-set()
  // comparisons below cannot see when both move together.
  KvStore store{100000};
  populate(store, 100000);
  EXPECT_EQ(store.capacity(), 262144U);
  EXPECT_EQ(store.size(), 100000U);
  const std::pair<std::uint64_t, std::uint64_t> scans[] = {
      {0, 0xe167d2fa8b896577ULL},     {1, 0x61bc3a933c739da8ULL},
      {4242, 0xb52bbd182abf2cf5ULL},  {77777, 0xff9bc482f9cb725dULL},
      {99999, 0x3348068bc78f1a0cULL},
  };
  for (const auto& [start, digest] : scans) {
    EXPECT_EQ(store.scan_digest(key_for_index(start), 100), digest) << start;
  }
  EXPECT_EQ(store.scan_digest(key_for_index(0), 100000),
            0x55bcf616856817f6ULL);
  ASSERT_TRUE(store.set("knew", "v"));
  EXPECT_EQ(store.scan_digest(key_for_index(0), 1000), 0xa5161d401be2fc0fULL);
}

// -- populate fast path ------------------------------------------------------

/// The reference populate: one set() per object.
void populate_by_set(KvStore& store, std::uint64_t begin, std::uint64_t end) {
  for (std::uint64_t i = begin; i < end; ++i) {
    ASSERT_TRUE(store.set(key_for_index(i), value_for_index(i))) << i;
  }
}

/// Same objects in the same slots: equal sizes, equal values, and equal
/// SCAN digests (which fold values in table order) from every 101st key.
void expect_same_layout(const KvStore& fast, const KvStore& ref,
                        std::uint64_t objects) {
  ASSERT_EQ(fast.size(), ref.size());
  for (std::uint64_t i = 0; i < objects; ++i) {
    const std::string key = key_for_index(i);
    ASSERT_EQ(fast.get(key), ref.get(key)) << i;
  }
  for (std::uint64_t i = 0; i < objects; i += 101) {
    const std::string key = key_for_index(i);
    ASSERT_EQ(fast.scan_digest(key, 1), ref.scan_digest(key, 1)) << i;
    ASSERT_EQ(fast.scan_digest(key, 100), ref.scan_digest(key, 100)) << i;
  }
}

TEST(KvPopulate, LayoutMatchesSetLoop) {
  KvStore fast{100000};
  KvStore ref{100000};
  populate(fast, 100000);
  populate_by_set(ref, 0, 100000);
  expect_same_layout(fast, ref, 100000);
}

TEST(KvPopulate, LayoutMatchesSetLoopOnFilledStore) {
  // Both stores already hold objects 0..59999, one overwritten value, one
  // short value past the populated range and one foreign key; populating
  // 0..99999 must overwrite and insert exactly as set() would.
  KvStore fast{100000};
  KvStore ref{100000};
  populate(fast, 60000);
  populate_by_set(ref, 0, 60000);
  for (KvStore* store : {&fast, &ref}) {
    ASSERT_TRUE(store->set(key_for_index(5), "overwritten"));
    ASSERT_TRUE(store->set(key_for_index(70000), "short"));
    ASSERT_TRUE(store->set("foreign", "value"));
  }
  populate(fast, 100000);
  populate_by_set(ref, 0, 100000);
  expect_same_layout(fast, ref, 100000);
  EXPECT_EQ(fast.get("foreign"), ref.get("foreign"));
  EXPECT_EQ(*fast.get(key_for_index(5)), value_for_index(5));
  EXPECT_EQ(*fast.get(key_for_index(70000)), value_for_index(70000));
}

/// Same record numbers: GET views point into the one record array, so
/// each object's distance from object 0's record gives its number.
/// (expect_same_layout cannot see them: GETs and SCANs read the same
/// bytes wherever a record sits.)
void expect_same_records(const KvStore& a, const KvStore& b,
                         std::uint64_t objects) {
  const auto offset = [](const KvStore& store, std::uint64_t i) {
    const auto at = [&](std::uint64_t j) {
      return reinterpret_cast<std::uintptr_t>(
          store.get(key_for_index(j))->data());
    };
    return static_cast<std::ptrdiff_t>(at(i) - at(0));
  };
  for (std::uint64_t i = 0; i < objects; ++i) {
    ASSERT_EQ(offset(a, i), offset(b, i)) << i;
  }
}

// populate fills its chunks of 2^16 index positions on every usable CPU;
// the layout, down to each record's number, must not depend on how many
// there are. 100000 objects take a 2^18-position table: 4 chunks.
TEST(KvPopulate, LayoutIndependentOfWorkerCount) {
  KvStore serial{100000};
  KvStore parallel{100000};
  {
    const testing::OneCpuScope one_cpu;
    populate(serial, 100000);
  }
  populate(parallel, 100000);
  expect_same_layout(parallel, serial, 100000);
  expect_same_records(parallel, serial, 100000);

  // On a filled store the new records are numbered after the 60000
  // already there.
  KvStore filled_serial{100000};
  KvStore filled_parallel{100000};
  populate(filled_serial, 60000);
  populate(filled_parallel, 60000);
  for (KvStore* store : {&filled_serial, &filled_parallel}) {
    ASSERT_TRUE(store->set(key_for_index(5), "overwritten"));
    ASSERT_TRUE(store->set(key_for_index(70000), "short"));
    ASSERT_TRUE(store->set("foreign", "value"));
  }
  {
    const testing::OneCpuScope one_cpu;
    populate(filled_serial, 100000);
  }
  populate(filled_parallel, 100000);
  expect_same_layout(filled_parallel, filled_serial, 100000);
  expect_same_records(filled_parallel, filled_serial, 100000);
  EXPECT_EQ(filled_parallel.get("foreign"), filled_serial.get("foreign"));
}

// populate numbers its records in table order (store.hpp), which only
// decides how far apart a SCAN's reads are: every other populate test
// would pass with the records in any order. Replaying the table's linear
// probing of fnv1a(key) & (capacity - 1), in object order, gives each
// object's position; walking the positions in order, each object's value
// must sit exactly one record — 2 length bytes, a 16-byte key and a
// 64-byte value — after the previous object's.
TEST(KvPopulate, RecordsFollowTableOrder) {
  constexpr std::uint64_t kObjects = 100000;
  constexpr std::ptrdiff_t kRecordBytes = 2 + kMaxKeyBytes + kMaxValueBytes;
  KvStore store{kObjects};
  populate(store, kObjects);
  const std::size_t mask = store.capacity() - 1;
  constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::vector<std::uint64_t> object_at(store.capacity(), kEmpty);
  for (std::uint64_t i = 0; i < kObjects; ++i) {
    std::size_t pos = static_cast<std::size_t>(fnv1a(key_for_index(i))) & mask;
    while (object_at[pos] != kEmpty) {
      pos = (pos + 1) & mask;
    }
    object_at[pos] = i;
  }
  const char* previous = nullptr;
  std::uint64_t visited = 0;
  for (std::size_t pos = 0; pos < object_at.size(); ++pos) {
    if (object_at[pos] == kEmpty) {
      continue;
    }
    const auto value = store.get(key_for_index(object_at[pos]));
    ASSERT_TRUE(value.has_value()) << "object " << object_at[pos];
    if (previous != nullptr) {
      ASSERT_EQ(value->data() - previous, kRecordBytes)
          << "position " << pos << ", object " << object_at[pos];
    }
    previous = value->data();
    ++visited;
  }
  EXPECT_EQ(visited, kObjects);
}

TEST(KvPopulate, TooSmallStoreThrowsAfterFillingIt) {
  KvStore store{100};  // capacity 256: at most 128 objects
  for (const char* key : {"x", "y", "z"}) {
    ASSERT_TRUE(store.set(key, "v"));
  }
  EXPECT_THROW(populate(store, 126), CheckFailure);
  // Every object inserted before the throw carries its full value.
  EXPECT_EQ(store.size(), 128U);
  for (std::uint64_t i = 0; i < 125; ++i) {
    EXPECT_EQ(store.get(key_for_index(i)), value_for_index(i)) << i;
  }
  KvStore exact{100};
  EXPECT_NO_THROW(populate(exact, 128));
}

TEST(KeyValueHelpers, MatchSnprintfAndMixFormulas) {
  for (const std::uint64_t index :
       {0ULL, 9ULL, 10ULL, 999999ULL, 123456789ULL, 999999999999999ULL}) {
    char formatted[32];
    std::snprintf(formatted, sizeof(formatted), "k%015llu",
                  static_cast<unsigned long long>(index));
    std::string value;
    std::uint64_t state = mix64(index + 1);
    while (value.size() < kMaxValueBytes) {
      state = mix64(state);
      value.push_back(static_cast<char>('a' + state % 26));
    }

    char key_buf[kMaxKeyBytes];
    char value_buf[kMaxValueBytes];
    write_key(index, key_buf);
    write_value(index, value_buf);
    EXPECT_EQ(std::string(key_buf, kMaxKeyBytes),
              std::string(formatted, kMaxKeyBytes))
        << index;
    EXPECT_EQ(std::string(value_buf, kMaxValueBytes), value) << index;
    EXPECT_EQ(key_for_index(index), std::string(formatted, kMaxKeyBytes));
    EXPECT_EQ(value_for_index(index), value);
  }
}

TEST(KeyValueHelpers, KeyIndexBoundary) {
  // One index past kMaxKeyIndex needs 17 characters: cut to 16 bytes it
  // would collide with its neighbours, so it is rejected.
  EXPECT_EQ(key_for_index(kMaxKeyIndex), "k999999999999999");
  char key[kMaxKeyBytes];
  EXPECT_THROW(write_key(kMaxKeyIndex + 1, key), CheckFailure);
  EXPECT_THROW((void)key_for_index(kMaxKeyIndex + 2), CheckFailure);
}

TEST(KvStore, ScanDigestSeesEveryByteOfEveryValue) {
  KvStore store{32};
  populate(store, 12);
  ASSERT_TRUE(store.set("tail", "thirteen-byte"));  // 8-byte word + tail
  std::vector<std::pair<std::string, std::string>> objects;
  for (std::uint64_t i = 0; i < 12; ++i) {
    objects.emplace_back(key_for_index(i), value_for_index(i));
  }
  objects.emplace_back("tail", "thirteen-byte");
  const std::uint64_t clean = store.scan_digest(key_for_index(0), 100);

  for (const auto& [key, value] : objects) {
    for (std::size_t pos = 0; pos < value.size(); ++pos) {
      std::string changed = value;
      changed[pos] = static_cast<char>(changed[pos] ^ 0x20);
      ASSERT_TRUE(store.set(key, changed));
      EXPECT_NE(store.scan_digest(key_for_index(0), 100), clean)
          << key << " byte " << pos;
      ASSERT_TRUE(store.set(key, value));
    }
  }
  EXPECT_EQ(store.scan_digest(key_for_index(0), 100), clean);
}

}  // namespace
}  // namespace netclone::kv
