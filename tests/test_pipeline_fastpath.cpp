// Pipeline fast-path properties:
//   * FlatMap64 (the flat open-addressing storage behind ExactMatchTable)
//     agrees with std::unordered_map under randomized churn, survives
//     crafted collision chains and backward-shift deletion, and grows
//     while preserving every entry.
//   * Randomized pipeline programs produce results identical to a plain
//     (map + vector) reference model.
//   * Illegal programs (double access, backward stage order) abort.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "pisa/pipeline.hpp"
#include "pisa/resources.hpp"

namespace netclone {
namespace {

// Mirrors FlatMap64's (private) home-slot computation so tests can craft
// colliding keys through the public slot_count() hook.
std::size_t home_slot(std::uint64_t key, std::size_t slot_count) {
  return static_cast<std::size_t>(mix64(key)) & (slot_count - 1);
}

// Returns `n` distinct keys that all hash to the same home slot of a map
// with `slot_count` slots.
std::vector<std::uint64_t> colliding_keys(std::size_t n,
                                          std::size_t slot_count) {
  std::vector<std::uint64_t> keys;
  const std::size_t target = home_slot(1, slot_count);
  for (std::uint64_t k = 1; keys.size() < n; ++k) {
    if (home_slot(k, slot_count) == target) {
      keys.push_back(k);
    }
  }
  return keys;
}

TEST(FlatMap64, BasicInsertFindErase) {
  FlatMap64<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_TRUE(map.insert_or_assign(7, 70));
  EXPECT_FALSE(map.insert_or_assign(7, 71));  // overwrite, not new
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(*map.find(7), 71);
  EXPECT_EQ(map.size(), 1U);
  EXPECT_TRUE(map.erase(7));
  EXPECT_FALSE(map.erase(7));
  EXPECT_TRUE(map.empty());
}

TEST(FlatMap64, ReservePresizesAndPreventsRehash) {
  FlatMap64<int> map{100};
  const std::size_t slots = map.slot_count();
  EXPECT_GE(slots, 128U);  // 100 entries need >= 134 slots at 3/4 load
  for (std::uint64_t k = 0; k < 100; ++k) {
    map.insert_or_assign(k, static_cast<int>(k));
  }
  EXPECT_EQ(map.slot_count(), slots);  // no growth while within capacity
  EXPECT_EQ(map.size(), 100U);
}

TEST(FlatMap64, CollisionChainLookups) {
  FlatMap64<int> map{16};
  const auto keys = colliding_keys(5, map.slot_count());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    map.insert_or_assign(keys[i], static_cast<int>(i));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_NE(map.find(keys[i]), nullptr) << "key " << keys[i];
    EXPECT_EQ(*map.find(keys[i]), static_cast<int>(i));
  }
  EXPECT_EQ(map.find(keys.back() + 1000), nullptr);
}

TEST(FlatMap64, BackwardShiftEraseKeepsChainsReachable) {
  FlatMap64<int> map{16};
  const auto keys = colliding_keys(6, map.slot_count());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    map.insert_or_assign(keys[i], static_cast<int>(i));
  }
  // Erase from the middle of the probe chain: without backward shifting
  // (or tombstones) the tail of the chain would become unreachable.
  EXPECT_TRUE(map.erase(keys[2]));
  EXPECT_TRUE(map.erase(keys[0]));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || i == 2) {
      EXPECT_EQ(map.find(keys[i]), nullptr);
    } else {
      ASSERT_NE(map.find(keys[i]), nullptr) << "key " << keys[i];
      EXPECT_EQ(*map.find(keys[i]), static_cast<int>(i));
    }
  }
  EXPECT_EQ(map.size(), 4U);
}

TEST(FlatMap64, GrowthRehashPreservesEntries) {
  FlatMap64<std::uint64_t> map;  // starts at the minimum slot count
  constexpr std::uint64_t kCount = 5000;
  for (std::uint64_t k = 0; k < kCount; ++k) {
    map.insert_or_assign(k * 0x9E3779B97F4A7C15ULL, k);
  }
  EXPECT_EQ(map.size(), kCount);
  // Power-of-two slot count.
  EXPECT_EQ(map.slot_count() & (map.slot_count() - 1), 0U);
  for (std::uint64_t k = 0; k < kCount; ++k) {
    const auto* v = map.find(k * 0x9E3779B97F4A7C15ULL);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, k);
  }
}

TEST(FlatMap64, RandomizedChurnAgreesWithUnorderedMap) {
  Rng rng{2026};
  FlatMap64<std::uint32_t> map;
  std::unordered_map<std::uint64_t, std::uint32_t> ref;
  for (int op = 0; op < 20000; ++op) {
    // Small key space so inserts, overwrites, and erases all collide.
    const std::uint64_t key = rng.next_below(512);
    const auto action = rng.next_below(4);
    if (action < 2) {
      const auto value = rng.next_u32();
      EXPECT_EQ(map.insert_or_assign(key, value), !ref.count(key));
      ref[key] = value;
    } else if (action == 2) {
      EXPECT_EQ(map.erase(key), ref.erase(key) > 0);
    } else {
      const auto* found = map.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end()) << "key " << key;
      if (found != nullptr) {
        EXPECT_EQ(*found, it->second);
      }
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  // for_each visits exactly the reference contents.
  std::size_t visited = 0;
  map.for_each([&](std::uint64_t key, std::uint32_t value) {
    ++visited;
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(ExactMatchTable, ControlPlaneDeleteThenReuseCapacity) {
  pisa::Pipeline pipeline;
  pisa::ExactMatchTable<int> table{pipeline, "T", 0, 2, 4, 4};
  table.insert(1, 10);
  table.insert(2, 20);
  EXPECT_THROW(table.insert(3, 30), CheckFailure);  // at capacity
  table.erase(1);
  EXPECT_NO_THROW(table.insert(3, 30));  // deletion frees the slot
  pisa::PipelinePass pass{pipeline};
  EXPECT_EQ(table.find(pass, 1), nullptr);
  EXPECT_EQ(table.entry_count(), 2U);
}

// Reference model for the randomized program equivalence test: plain
// containers with none of the pipeline's structure.
struct ReferenceModel {
  std::unordered_map<std::uint64_t, std::uint32_t> table;
  std::vector<std::uint32_t> reg;
  std::uint32_t seq = 0;
};

// One randomized "packet": a table lookup, a register read-modify-write,
// and a sequence-counter bump, composed the way the NetClone program
// composes them. Returns a digest of everything the packet observed.
std::uint64_t run_fast_packet(pisa::Pipeline& pipeline,
                              pisa::ExactMatchTable<std::uint32_t>& table,
                              pisa::RegisterArray<std::uint32_t>& reg,
                              pisa::RegisterScalar<std::uint32_t>& seq,
                              std::uint64_t key, std::size_t idx,
                              std::uint32_t delta) {
  pisa::PipelinePass pass{pipeline};
  const std::uint32_t* hit = table.find(pass, key);
  const std::uint32_t table_value = hit != nullptr ? *hit : 0xFFFFFFFFU;
  const std::uint32_t reg_value =
      reg.execute(pass, idx, [delta](std::uint32_t& cell) {
        cell += delta;
        return cell;
      });
  const std::uint32_t seq_value =
      seq.execute(pass, [](std::uint32_t& c) { return ++c; });
  return (static_cast<std::uint64_t>(table_value) << 32) ^ reg_value ^
         (static_cast<std::uint64_t>(seq_value) << 16);
}

std::uint64_t run_reference_packet(ReferenceModel& model, std::uint64_t key,
                                   std::size_t idx, std::uint32_t delta) {
  const auto it = model.table.find(key);
  const std::uint32_t table_value =
      it != model.table.end() ? it->second : 0xFFFFFFFFU;
  model.reg[idx] += delta;
  const std::uint32_t reg_value = model.reg[idx];
  const std::uint32_t seq_value = ++model.seq;
  return (static_cast<std::uint64_t>(table_value) << 32) ^ reg_value ^
         (static_cast<std::uint64_t>(seq_value) << 16);
}

// The central property: the pipeline fast path computes exactly what the
// plain reference model computes, packet for packet, across randomized
// control-plane updates. Running this in the default (unchecked) ctest
// lane AND the checked lane proves the two check modes are observationally
// identical.
TEST(PipelineFastpath, RandomizedProgramMatchesReferenceModel) {
  constexpr std::size_t kRegSize = 64;
  constexpr std::size_t kTableCapacity = 256;
  pisa::Pipeline pipeline;
  pisa::ExactMatchTable<std::uint32_t> table{pipeline, "T", 1,
                                             kTableCapacity, 8, 4};
  pisa::RegisterArray<std::uint32_t> reg{pipeline, "R", 3, kRegSize};
  pisa::RegisterScalar<std::uint32_t> seq{pipeline, "SEQ", 5};
  ReferenceModel model;
  model.reg.assign(kRegSize, 0);

  Rng rng{77};
  for (int round = 0; round < 5000; ++round) {
    const auto action = rng.next_below(10);
    if (action == 0 && model.table.size() < kTableCapacity) {
      const std::uint64_t key = rng.next_below(1024);
      const std::uint32_t value = rng.next_u32();
      if (model.table.size() < kTableCapacity ||
          model.table.count(key) != 0) {
        table.insert(key, value);
        model.table[key] = value;
      }
    } else if (action == 1) {
      const std::uint64_t key = rng.next_below(1024);
      table.erase(key);
      model.table.erase(key);
    } else {
      const std::uint64_t key = rng.next_below(1024);
      const auto idx = static_cast<std::size_t>(rng.next_below(kRegSize));
      const auto delta = static_cast<std::uint32_t>(rng.next_below(1000));
      ASSERT_EQ(run_fast_packet(pipeline, table, reg, seq, key, idx, delta),
                run_reference_packet(model, key, idx, delta))
          << "diverged at round " << round;
    }
  }
  // Final state agrees too.
  EXPECT_EQ(table.entry_count(), model.table.size());
  for (std::size_t i = 0; i < kRegSize; ++i) {
    EXPECT_EQ(reg.peek(i), model.reg[i]) << "register cell " << i;
  }
  EXPECT_EQ(seq.peek(), model.seq);
}

// Soft-state reset (switch failure) keeps the two models aligned as well:
// registers restart zeroed, match entries survive.
TEST(PipelineFastpath, ResetSoftStateMatchesReferenceModel) {
  pisa::Pipeline pipeline;
  pisa::ExactMatchTable<std::uint32_t> table{pipeline, "T", 1, 16, 8, 4};
  pisa::RegisterArray<std::uint32_t> reg{pipeline, "R", 3, 8};
  pisa::RegisterScalar<std::uint32_t> seq{pipeline, "SEQ", 5};
  table.insert(3, 33);
  {
    pisa::PipelinePass pass{pipeline};
    reg.write(pass, 2, 9);
  }
  pipeline.reset_soft_state();
  EXPECT_EQ(reg.peek(2), 0U);
  EXPECT_EQ(seq.peek(), 0U);
  pisa::PipelinePass pass{pipeline};
  const std::uint32_t* hit = table.find(pass, 3);
  ASSERT_NE(hit, nullptr);  // control-plane entries survive the reboot
  EXPECT_EQ(*hit, 33U);
}

// Every build rejects illegal programs: the per-pass checks are always on.
TEST(PipelineFastpath, CheckedBuildRejectsDoubleAccess) {
  pisa::Pipeline pipeline;
  pisa::RegisterArray<std::uint32_t> reg{pipeline, "R", 3, 8};
  pisa::PipelinePass pass{pipeline};
  (void)reg.read(pass, 0);
  EXPECT_THROW((void)reg.read(pass, 1), CheckFailure);
}

TEST(PipelineFastpath, CheckedBuildRejectsBackwardStageOrder) {
  pisa::Pipeline pipeline;
  pisa::ExactMatchTable<std::uint32_t> early{pipeline, "E", 1, 4, 4, 4};
  pisa::RegisterArray<std::uint32_t> late{pipeline, "L", 6, 8};
  pisa::PipelinePass pass{pipeline};
  (void)late.read(pass, 0);
  EXPECT_THROW((void)early.find(pass, 1), CheckFailure);
}

}  // namespace
}  // namespace netclone
