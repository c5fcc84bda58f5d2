// Property test: LpmTable against a brute-force reference over randomized
// prefix sets and lookups.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "pisa/lpm_table.hpp"

namespace netclone::pisa {
namespace {

struct RefEntry {
  std::uint32_t prefix;
  std::uint8_t len;
  int value;
};

std::uint32_t mask_of(std::uint8_t len) {
  return len == 0 ? 0
                  : ~std::uint32_t{0}
                        << (32 - static_cast<std::uint32_t>(len));
}

std::optional<int> reference_lookup(const std::vector<RefEntry>& entries,
                                    std::uint32_t addr) {
  std::optional<int> best;
  int best_len = -1;
  for (const RefEntry& e : entries) {
    if ((addr & mask_of(e.len)) == (e.prefix & mask_of(e.len)) &&
        static_cast<int>(e.len) > best_len) {
      best = e.value;
      best_len = e.len;
    }
  }
  return best;
}

class LpmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmProperty, MatchesBruteForceReference) {
  Rng rng{GetParam()};
  Pipeline pipeline;
  LpmTable<int> table{pipeline, "routes", 0, 512};
  std::vector<RefEntry> reference;

  // Random prefixes, clustered in a /8 so overlaps actually happen.
  for (int i = 0; i < 120; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.next_below(33));
    const std::uint32_t prefix =
        0x0A000000U | static_cast<std::uint32_t>(rng.next_below(1 << 24));
    const int value = i;
    table.insert(wire::Ipv4Address{prefix}, len, value);
    // The reference keeps last-wins semantics for identical (prefix,len).
    const std::uint32_t canonical = prefix & mask_of(len);
    bool replaced = false;
    for (RefEntry& e : reference) {
      if ((e.prefix & mask_of(e.len)) == canonical && e.len == len) {
        e.value = value;
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      reference.push_back(RefEntry{prefix, len, value});
    }
  }

  std::vector<std::uint32_t> addrs(4000);
  for (std::uint32_t& addr : addrs) {
    addr = rng.bernoulli(0.8)
               ? 0x0A000000U |
                     static_cast<std::uint32_t>(rng.next_below(1 << 24))
               : rng.next_u32();
  }
  const auto expect_matches_reference = [&] {
    for (const std::uint32_t addr : addrs) {
      PipelinePass pass{pipeline};
      const int* got = table.find(pass, wire::Ipv4Address{addr});
      const auto want = reference_lookup(reference, addr);
      if (want.has_value()) {
        ASSERT_NE(got, nullptr) << "addr=" << addr;
        // When several prefixes share the longest length, both pick one of
        // them; lengths must agree, and for our generator values at equal
        // (prefix,len) are unique, so values must match too.
        EXPECT_EQ(*got, *want) << "addr=" << addr;
      } else {
        EXPECT_EQ(got, nullptr) << "addr=" << addr;
      }
    }
  };
  expect_matches_reference();

  // Erase a random third of the prefixes, among them every prefix of one
  // length. Each is erased twice: the second erase finds nothing and must
  // leave the other routes, at that length too, in place.
  const auto erase_at = [&](std::size_t i) {
    const RefEntry e = reference[i];
    table.erase(wire::Ipv4Address{e.prefix}, e.len);
    table.erase(wire::Ipv4Address{e.prefix}, e.len);
    reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(i));
  };
  const std::size_t keep = reference.size() - reference.size() / 3;
  const std::uint8_t emptied = reference[rng.next_below(reference.size())].len;
  for (std::size_t i = reference.size(); i-- > 0;) {
    if (reference[i].len == emptied) {
      erase_at(i);
    }
  }
  while (reference.size() > keep) {
    erase_at(rng.next_below(reference.size()));
  }
  ASSERT_EQ(table.entry_count(), reference.size());
  expect_matches_reference();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmProperty,
                         ::testing::Values(1, 7, 42, 1234, 99999));

}  // namespace
}  // namespace netclone::pisa
