// Slot-map event storage for the discrete-event engine, ordered by a
// hierarchical timing wheel.
//
// Every pending event lives in a fixed slot (stable until it fires or is
// cancelled). Ordering is a calendar queue: four wheel levels of 256
// buckets each cover a 2^32-tick (one tick = one nanosecond) horizon —
// level 0 resolves single ticks, each higher level one 256x coarser
// stride — and a binary heap remains as the overflow tier for the rare
// event scheduled beyond the horizon. Insertion is O(1): the level is the
// highest 8-bit group in which the event's tick differs from the wheel's
// current tick. Extraction drains one level-0 bucket at a time (a dense
// same-timestamp burst costs one sort of its bucket, not a heap sift per
// event), cascading higher-level buckets down as the current tick crosses
// their windows. Per-level 256-bit occupancy bitmaps make "next non-empty
// bucket" a couple of word scans.
//
// Cancellation frees the slot — destroying the callback and its captures
// immediately — in O(1) and leaves the bucket (or heap) entry behind as a
// tombstone that extraction skips when its key no longer matches the
// slot. Generation counters make stale EventIds inert even after the slot
// has been reused.
//
// Determinism contract: events pop in strict (when, seq) order, where seq
// is the tie-break sequence number drawn (or reserved) at scheduling
// time. Two subtleties the wheel must preserve exactly:
//   * a same-timestamp bucket is sorted by seq before draining, because
//     schedule_at_seq can materialize a reserved number out of insertion
//     order;
//   * an event inserted *at the tick currently being drained* (a deferred
//     scheduler materializing a reservation mid-drain) is merged into the
//     undrained suffix, since its seq may precede entries still waiting.
//
// Defined header-only: the schedule/fire cycle is the hottest loop in the
// repository and must inline into the engine's run loop.
//
// This file is an engine internal: components schedule through the
// Scheduler interface (scheduler.hpp) and never see the arena.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/scheduler.hpp"

namespace netclone::sim {

class EventArena {
 public:
  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  /// Stores an event and orders it behind everything earlier (ties break
  /// by insertion order — the determinism contract).
  EventId insert(SimTime when, EventCallback&& callback) {
    return insert_at_seq(when, reserve_seq(), std::move(callback));
  }

  /// Draws the next scheduling sequence number without storing an event.
  /// A reserved number holds its place in the same-timestamp tie order
  /// until insert_at_seq materializes it — deferred schedulers (the link
  /// delivery FIFO) stay bit-for-bit equivalent to eager per-item
  /// scheduling this way.
  [[nodiscard]] std::uint64_t reserve_seq() {
    NETCLONE_CHECK(next_seq_ < kMaxSeq, "event sequence space exhausted");
    return next_seq_++;
  }

  /// insert(), but with a tie-break sequence number reserved earlier via
  /// reserve_seq(). Each reserved number must be used at most once.
  EventId insert_at_seq(SimTime when, std::uint64_t seq,
                        EventCallback&& callback) {
    std::uint32_t index;
    if (free_head_ != kNilSlot) {
      index = free_head_;
      free_head_ = slots_[index].next_free;
    } else {
      NETCLONE_CHECK(slots_.size() < kMaxSlots, "event arena exhausted");
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& slot = slots_[index];
    slot.key = (seq << kSlotBits) | index;
    slot.live = true;
    slot.callback = std::move(callback);

    if (tick_of(when) < cur_tick_) [[unlikely]] {
      // Only reachable when an external peek() advanced the origin past
      // `when` and the caller then scheduled into the gap (the engine
      // itself never does: its clock trails the origin).
      rewind_to(tick_of(when));
    }
    push_entry(when, slot.key);
    ++live_;
    return EventId{index, slot.generation};
  }

  /// Removes the event and destroys its callback. Returns false (no-op)
  /// for invalid, stale, fired, or already-cancelled ids.
  bool cancel(EventId id) {
    if (!id.valid() || id.slot >= slots_.size()) {
      return false;
    }
    Slot& slot = slots_[id.slot];
    if (!slot.live || slot.generation != id.generation) {
      return false;  // already fired/cancelled, or the slot was reused
    }
    // The wheel-bucket (or overflow-heap) entry stays behind as a
    // tombstone (its key no longer matches a live slot) and is skipped
    // when extraction reaches it.
    release(id.slot);
    return true;
  }

  /// Time of the earliest pending event, without removing it. Returns
  /// false when no event is pending.
  [[nodiscard]] bool peek(SimTime& when) {
    if (!prepare()) {
      return false;
    }
    when = drain_[drain_pos_].when;
    return true;
  }

  /// Removes the earliest pending event into `when`/`callback`. Returns
  /// false when no event is pending.
  bool pop(SimTime& when, EventCallback& callback) {
    if (!prepare()) {
      return false;
    }
    take(when, callback);
    return true;
  }

  /// pop(), but only if the earliest event fires at or before `deadline`.
  /// One ordering inspection for the peek-then-pop pattern in run_until().
  /// The refill is bounded by the deadline so the wheel origin never
  /// advances past it — events scheduled after an early-exiting
  /// run_until() land at ticks >= the origin.
  bool pop_due(SimTime deadline, SimTime& when, EventCallback& callback) {
    if (!prepare(tick_of(deadline)) || drain_[drain_pos_].when > deadline) {
      return false;
    }
    take(when, callback);
    return true;
  }

  /// Exact number of pending events (cancelled events do not count).
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] bool empty() const { return live_ == 0; }

 private:
  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFU;
  /// (seq, slot) pack into one 64-bit key: seq in the high 40 bits
  /// (hard-checked in insert — at 15M events/sec that is ~20 hours of
  /// wall-clock simulation before the check fires), slot index in the low
  /// 24. A 16-byte ordering entry keeps bucket sorts and heap sifts to a
  /// minimum of cache traffic.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = 1ULL << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ULL << (64 - kSlotBits);

  // -- wheel geometry ------------------------------------------------------
  /// One tick is one nanosecond of SimTime (scheduling never needs finer
  /// resolution and the engine's clock is integral ns).
  static constexpr std::uint64_t kGroupBits = 8;
  static constexpr std::size_t kWheelSlotCount = std::size_t{1}
                                                 << kGroupBits;  // 256
  static constexpr std::size_t kWheelLevels = 4;
  /// Horizon of the wheel: 2^32 ticks ≈ 4.29 simulated seconds. Events
  /// whose tick lies in a different 2^32 window than the current tick go
  /// to the overflow heap and migrate in when the window is reached.
  static constexpr std::uint64_t kSpanBits = kGroupBits * kWheelLevels;
  static constexpr std::size_t kBitmapWords = kWheelSlotCount / 64;

  static constexpr std::uint32_t slot_of(std::uint64_t key) {
    return static_cast<std::uint32_t>(key & (kMaxSlots - 1));
  }

  /// Wheel ticks are raw nanoseconds. The engine never schedules in the
  /// past and its clock starts at zero, so ticks are non-negative and
  /// monotone over the arena's lifetime.
  static constexpr std::uint64_t tick_of(SimTime when) {
    return static_cast<std::uint64_t>(when.ns());
  }

  static constexpr std::size_t group_of(std::uint64_t tick,
                                        std::size_t level) {
    return static_cast<std::size_t>((tick >> (kGroupBits * level)) &
                                    (kWheelSlotCount - 1));
  }

  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNilSlot;
    bool live = false;
    EventCallback callback;
  };

  struct HeapEntry {
    SimTime when;
    std::uint64_t key;
  };

  /// Max-heap comparator on "fires later", making the overflow std heap a
  /// min-heap on (when, key). The key's high bits are the globally unique
  /// scheduling sequence number, so same-time events keep insertion order
  /// (the determinism contract) and the order is strict.
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.key > b.key;
    }
  };

  [[nodiscard]] bool is_live(const HeapEntry& entry) const {
    const Slot& slot = slots_[slot_of(entry.key)];
    return slot.live && slot.key == entry.key;
  }

  // -- occupancy bitmaps ---------------------------------------------------

  void set_bit(std::size_t level, std::size_t slot) {
    occupied_[level][slot >> 6] |= std::uint64_t{1} << (slot & 63);
  }
  void clear_bit(std::size_t level, std::size_t slot) {
    occupied_[level][slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
  }
  [[nodiscard]] bool test_bit(std::size_t level, std::size_t slot) const {
    return (occupied_[level][slot >> 6] >>
            (slot & 63)) & 1U;
  }

  /// Lowest occupied bucket index >= `from` at `level`, or kWheelSlotCount
  /// when none.
  [[nodiscard]] std::size_t next_occupied(std::size_t level,
                                          std::size_t from) const {
    std::size_t word = from >> 6;
    std::uint64_t bits = occupied_[level][word] & (~std::uint64_t{0}
                                                   << (from & 63));
    while (true) {
      if (bits != 0) {
        return (word << 6) + static_cast<std::size_t>(
                                 std::countr_zero(bits));
      }
      if (++word == kBitmapWords) {
        return kWheelSlotCount;
      }
      bits = occupied_[level][word];
    }
  }

  // -- wheel operations ----------------------------------------------------

  /// Files an ordering entry into its wheel bucket (the highest 8-bit
  /// group where its tick differs from the current tick) or the overflow
  /// heap (tick beyond the wheel's 2^32-tick window).
  void push_entry(SimTime when, std::uint64_t key) {
    const std::uint64_t tick = tick_of(when);
    if ((tick >> kSpanBits) != (cur_tick_ >> kSpanBits)) [[unlikely]] {
      heap_.push_back(HeapEntry{when, key});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
      return;
    }
    const std::uint64_t diff = tick ^ cur_tick_;
    const std::size_t level =
        diff == 0 ? 0
                  : static_cast<std::size_t>(std::bit_width(diff) - 1) /
                        kGroupBits;
    const std::size_t slot = group_of(tick, level);
    wheel_[level][slot].push_back(HeapEntry{when, key});
    set_bit(level, slot);
  }

  /// Empties every occupied bucket of `level` in [from, to). Only called
  /// for buckets the advancing current tick has passed over, which can
  /// hold nothing but tombstones (a live earlier event would have been
  /// the advance target instead).
  void clear_level_range(std::size_t level, std::size_t from,
                         std::size_t to) {
    std::size_t slot = from;
    while (slot < to && (slot = next_occupied(level, slot)) < to) {
      wheel_[level][slot].clear();
      clear_bit(level, slot);
      ++slot;
    }
  }

  /// Re-files a higher-level bucket one level down (or further) after the
  /// current tick entered its window. Tombstones are dropped on the way —
  /// cascading doubles as garbage collection.
  void cascade(std::size_t level, std::size_t slot) {
    if (!test_bit(level, slot)) {
      return;
    }
    clear_bit(level, slot);
    scratch_.clear();
    scratch_.swap(wheel_[level][slot]);  // capacities rotate, no churn
    for (const HeapEntry& entry : scratch_) {
      if (is_live(entry)) {
        push_entry(entry.when, entry.key);
      }
    }
  }

  /// Moves the wheel origin to `tick` — the tick of the next event to
  /// drain, so nothing live exists before it. Buckets passed over are
  /// cleared (tombstones only); the target bucket of the top changing
  /// level cascades down.
  void advance_to(std::uint64_t tick) {
    if (tick == cur_tick_) {
      return;
    }
    if ((tick >> kSpanBits) != (cur_tick_ >> kSpanBits)) [[unlikely]] {
      // Window jump (overflow migration): every remaining wheel bucket is
      // tombstone-only.
      for (std::size_t level = 0; level < kWheelLevels; ++level) {
        clear_level_range(level, 0, kWheelSlotCount);
      }
      cur_tick_ = tick;
      return;
    }
    const std::uint64_t diff = tick ^ cur_tick_;
    const auto top =
        static_cast<std::size_t>(std::bit_width(diff) - 1) / kGroupBits;
    for (std::size_t level = 0; level < top; ++level) {
      clear_level_range(level, 0, kWheelSlotCount);
    }
    clear_level_range(top, group_of(cur_tick_, top), group_of(tick, top));
    cur_tick_ = tick;
    if (top > 0) {
      cascade(top, group_of(tick, top));
    }
  }

  /// Folds level-0 entries that were inserted *at the tick being drained*
  /// into the undrained suffix. A reservation materialized mid-drain may
  /// carry a seq smaller than entries still waiting, so the suffix is
  /// re-sorted.
  void merge_current_tick() {
    const std::size_t slot = group_of(cur_tick_, 0);
    if (!test_bit(0, slot)) [[likely]] {
      return;
    }
    std::vector<HeapEntry>& bucket = wheel_[0][slot];
    drain_.insert(drain_.end(), bucket.begin(), bucket.end());
    bucket.clear();
    clear_bit(0, slot);
    std::sort(drain_.begin() + static_cast<std::ptrdiff_t>(drain_pos_),
              drain_.end(),
              [](const HeapEntry& a, const HeapEntry& b) {
                return a.key < b.key;
              });
  }

  /// Drops cancelled entries off the top of the overflow heap.
  void prune_heap_top() {
    while (!heap_.empty() && !is_live(heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  /// Loads the next non-empty level-0 bucket into the drain buffer,
  /// advancing (and cascading) the wheel to reach it and migrating
  /// overflow entries whose window has arrived. Returns false when the
  /// arena holds no entry at a tick <= `bound` (for pop_due, so the
  /// origin never advances past a run_until deadline) or no entries at
  /// all.
  bool refill(std::uint64_t bound) {
    while (true) {
      std::size_t cand_level = kWheelLevels;
      std::size_t cand_slot = 0;
      for (std::size_t level = 0; level < kWheelLevels; ++level) {
        const std::size_t slot =
            next_occupied(level, group_of(cur_tick_, level));
        if (slot < kWheelSlotCount) {
          cand_level = level;
          cand_slot = slot;
          break;
        }
      }
      if (cand_level == kWheelLevels) {
        // Wheel empty: migrate the overflow window holding the earliest
        // event, if any. Overflow ticks are always in later windows than
        // the current one, so every wheel entry precedes every overflow
        // entry and this order is exact.
        prune_heap_top();
        if (heap_.empty() || tick_of(heap_.front().when) > bound) {
          return false;
        }
        advance_to(tick_of(heap_.front().when));
        while (!heap_.empty() &&
               (tick_of(heap_.front().when) >> kSpanBits) ==
                   (cur_tick_ >> kSpanBits)) {
          const HeapEntry entry = heap_.front();
          std::pop_heap(heap_.begin(), heap_.end(), Later{});
          heap_.pop_back();
          if (is_live(entry)) {
            push_entry(entry.when, entry.key);
          }
        }
        continue;
      }
      if (cand_level > 0) {
        // Enter the candidate window; its bucket cascades to lower levels
        // and the next iteration finds it there. The window base is a
        // lower bound on every tick inside, so stopping when it passes
        // `bound` never hides a due event.
        const std::uint64_t base =
            cur_tick_ &
            ~((std::uint64_t{1} << (kGroupBits * (cand_level + 1))) - 1);
        const std::uint64_t target =
            base | (static_cast<std::uint64_t>(cand_slot)
                    << (kGroupBits * cand_level));
        if (target > bound) {
          return false;
        }
        advance_to(target);
        continue;
      }
      const std::uint64_t cand_tick =
          (cur_tick_ & ~std::uint64_t{kWheelSlotCount - 1}) | cand_slot;
      if (cand_tick > bound) {
        return false;
      }
      advance_to(cand_tick);
      std::vector<HeapEntry>& bucket = wheel_[0][cand_slot];
      drain_.assign(bucket.begin(), bucket.end());
      bucket.clear();
      clear_bit(0, cand_slot);
      drain_pos_ = 0;
      std::sort(drain_.begin(), drain_.end(),
                [](const HeapEntry& a, const HeapEntry& b) {
                  return a.key < b.key;
                });
      draining_ = true;
      return true;
    }
  }

  /// Positions drain_pos_ on the earliest live entry; false when no event
  /// is pending at a tick <= `bound`. Entries already drained are always
  /// inspected (their when is compared by the caller); the bound only
  /// gates how far refill may advance the origin.
  bool prepare(std::uint64_t bound = ~std::uint64_t{0}) {
    while (true) {
      if (draining_) {
        merge_current_tick();
        while (drain_pos_ < drain_.size()) {
          if (is_live(drain_[drain_pos_])) {
            return true;
          }
          ++drain_pos_;  // tombstone: slot already released by cancel
        }
        draining_ = false;
        drain_.clear();
        drain_pos_ = 0;
      }
      if (live_ == 0) {
        // Fast exit; tombstones left in buckets/heap are reclaimed lazily
        // when the wheel advances past them (or with the arena).
        return false;
      }
      if (!refill(bound)) {
        return false;
      }
    }
  }

  /// Re-anchors the wheel at an earlier tick. Only reachable when an
  /// external peek() advanced the origin past `tick` and the caller then
  /// scheduled into the gap; the engine's own clock always trails the
  /// origin. Every filed wheel entry plus the undrained suffix is
  /// collected and re-filed relative to the new origin — O(pending), fine
  /// for this off-hot-path pattern. Overflow-heap entries stay put: their
  /// windows are later than the old origin's and thus later than `tick`.
  void rewind_to(std::uint64_t tick) {
    std::vector<HeapEntry> keep;
    keep.reserve(live_);
    for (std::size_t level = 0; level < kWheelLevels; ++level) {
      std::size_t slot = 0;
      while (slot < kWheelSlotCount &&
             (slot = next_occupied(level, slot)) < kWheelSlotCount) {
        for (const HeapEntry& entry : wheel_[level][slot]) {
          if (is_live(entry)) {
            keep.push_back(entry);
          }
        }
        wheel_[level][slot].clear();
        clear_bit(level, slot);
        ++slot;
      }
    }
    for (std::size_t i = drain_pos_; i < drain_.size(); ++i) {
      if (is_live(drain_[i])) {
        keep.push_back(drain_[i]);
      }
    }
    drain_.clear();
    drain_pos_ = 0;
    draining_ = false;
    cur_tick_ = tick;
    for (const HeapEntry& entry : keep) {
      push_entry(entry.when, entry.key);
    }
  }

  /// Consumes the prepared entry at drain_pos_ (prepare() returned true).
  void take(SimTime& when, EventCallback& callback) {
    const HeapEntry entry = drain_[drain_pos_++];
    when = entry.when;
    const std::uint32_t slot = slot_of(entry.key);
    callback = std::move(slots_[slot].callback);
    release(slot);
  }

  void release(std::uint32_t slot_index) {
    Slot& slot = slots_[slot_index];
    slot.callback.reset();  // free captured resources immediately
    slot.live = false;
    ++slot.generation;  // stale EventIds and ordering entries go inert
    slot.next_free = free_head_;
    free_head_ = slot_index;
    --live_;
  }

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;

  /// The wheel proper: per-level buckets of ordering entries plus their
  /// occupancy bitmaps, anchored at cur_tick_ (the tick of the bucket
  /// currently draining — never ahead of any live entry).
  std::vector<HeapEntry> wheel_[kWheelLevels][kWheelSlotCount];
  std::uint64_t occupied_[kWheelLevels][kBitmapWords] = {};
  std::uint64_t cur_tick_ = 0;
  /// Overflow tier: events beyond the wheel window, kept in a plain
  /// binary min-heap on (when, key) until their window arrives.
  std::vector<HeapEntry> heap_;
  /// The level-0 bucket being drained, sorted by key (= seq order).
  std::vector<HeapEntry> drain_;
  std::size_t drain_pos_ = 0;
  bool draining_ = false;
  std::vector<HeapEntry> scratch_;  // cascade staging
};

}  // namespace netclone::sim
