// Slot-map event storage for the discrete-event engine, ordered by one
// indexed 4-ary min-heap.
//
// Every pending event lives in a fixed slot (stable until it fires or is
// cancelled). A min-heap of 16-byte (when, seq‖slot) entries orders them,
// and each slot records where its entry sits, so insert, pop and cancel
// are one O(log n) sift each. No cancelled event stays in the heap:
// cancel removes the entry and destroys the callback (with its captures)
// at once. Generation counters make stale EventIds inert even after the
// slot has been reused. Four children per node and a root that pop leaves
// vacant for the next insert keep the sifts short (docs/ARCHITECTURE.md,
// "The event queue and reserved sequence numbers", has the measurements).
//
// Determinism contract: events pop in strict (when, seq) order; seq is the
// tie-break number drawn (or reserved) at scheduling time, and a reserved
// number materialized late still takes its place in seq order.
//
// Header-only, so the schedule/fire cycle inlines into the run loop;
// components schedule through Scheduler (scheduler.hpp), not the arena.
#pragma once

#include <algorithm>
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
  /// until insert_at_seq materializes it, so deferred schedulers (the link
  /// delivery FIFO) match eager per-item scheduling bit for bit.
  [[nodiscard]] std::uint64_t reserve_seq() {
    NETCLONE_CHECK(next_seq_ < kMaxSeq, "event sequence space exhausted");
    return next_seq_++;
  }

  /// insert(), but with a tie-break sequence number reserved earlier via
  /// reserve_seq(). Each reserved number must be used at most once.
  EventId insert_at_seq(SimTime when, std::uint64_t seq,
                        EventCallback&& callback) {
    // Pop times never go backwards (the engine never schedules the past).
    NETCLONE_CHECK(when >= last_popped_,
                   "event scheduled before an already popped event");
    std::uint32_t index;
    if (free_head_ != kNil) {
      index = free_head_;
      free_head_ = slots_[index].next_free;
    } else {
      NETCLONE_CHECK(slots_.size() < kMaxSlots, "event arena exhausted");
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[index].callback = std::move(callback);
    const Entry entry{when, (seq << kSlotBits) | index};
    if (root_vacant_) {
      root_vacant_ = false;
      sift_down(0, entry);
    } else {
      heap_.emplace_back();
      sift_up(heap_.size() - 1, entry);
    }
    return EventId{index, slots_[index].generation};
  }

  /// Removes the event and destroys its callback. Returns false (no-op)
  /// for invalid, stale, fired, or already-cancelled ids.
  bool cancel(EventId id) {
    if (!id.valid() || id.slot >= slots_.size() ||
        slots_[id.slot].heap_pos == kNil ||
        slots_[id.slot].generation != id.generation) {
      return false;  // already fired/cancelled, or the slot was reused
    }
    // A vacant root holds the entry just popped, which precedes every
    // pending entry, so this removal's sift never reaches it.
    const std::size_t pos = slots_[id.slot].heap_pos;
    release(id.slot);
    erase_at(pos);
    return true;
  }

  /// Removes the earliest pending event into `when`/`callback`. Returns
  /// false when no event is pending.
  bool pop(SimTime& when, EventCallback& callback) {
    return pop_due(SimTime::max(), when, callback);
  }

  /// pop(), but only if the earliest event fires at or before `deadline`:
  /// one ordering inspection per event of run_until(). The popped event's
  /// root entry stays, vacant, for the next insert or pop to fill.
  bool pop_due(SimTime deadline, SimTime& when, EventCallback& callback) {
    fill_vacant_root();
    if (heap_.empty() || heap_.front().when > deadline) {
      return false;
    }
    when = last_popped_ = heap_.front().when;
    const auto slot = static_cast<std::uint32_t>(heap_.front().key &
                                                 (kMaxSlots - 1));
    callback = std::move(slots_[slot].callback);
    release(slot);
    root_vacant_ = true;
    return true;
  }

  /// Exact number of pending events (cancelled events do not count).
  [[nodiscard]] std::size_t size() const {
    return heap_.size() - (root_vacant_ ? 1 : 0);
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFU;
  /// (seq, slot) pack into one 64-bit key: seq in the high 40 bits
  /// (checked in reserve_seq; ~20 hours of simulation at 15M events/sec),
  /// slot index in the low 24. So a heap entry is 16 bytes.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = 1ULL << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ULL << (64 - kSlotBits);
  static constexpr std::size_t kArity = 4;

  struct Slot {
    std::uint32_t generation = 1;
    std::uint32_t heap_pos = kNil;  // kNil once fired or cancelled
    std::uint32_t next_free = kNil;
    EventCallback callback;
  };

  struct Entry {
    SimTime when;
    std::uint64_t key;
  };

  /// Strict order on (when, key) as one 128-bit number (when is never
  /// negative). The key's high bits are the unique scheduling sequence
  /// number: same-time events keep scheduling order.
  static bool before(const Entry& a, const Entry& b) {
    __extension__ using U128 = unsigned __int128;
    const auto packed = [](const Entry& e) {
      return (U128{static_cast<std::uint64_t>(e.when.ns())} << 64) | e.key;
    };
    return packed(a) < packed(b);
  }

  /// Writes `entry` at heap position `pos` and records that in its slot.
  void place(std::size_t pos, const Entry& entry) {
    heap_[pos] = entry;
    slots_[entry.key & (kMaxSlots - 1)].heap_pos =
        static_cast<std::uint32_t>(pos);
  }

  /// Moves `entry`, destined for the hole at `pos`, toward the root past
  /// every parent that fires after it.
  void sift_up(std::size_t pos, const Entry& entry) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / kArity;
      if (!before(entry, heap_[parent])) {
        break;
      }
      place(pos, heap_[parent]);
      pos = parent;
    }
    place(pos, entry);
  }

  /// Position of the earliest child of `pos`, or the heap size when `pos`
  /// is a leaf. A full set of four is compared as two pairs, so the picks
  /// compile to selects rather than branches the CPU has to guess.
  [[nodiscard]] std::size_t earliest_child(std::size_t pos) const {
    const std::size_t first = kArity * pos + 1;
    const std::size_t n = heap_.size();
    if (first + 3 >= n) {  // the heap's last parent, or a leaf
      std::size_t earliest = std::min(first, n);
      for (std::size_t c = first + 1; c < n; ++c) {
        earliest = before(heap_[c], heap_[earliest]) ? c : earliest;
      }
      return earliest;
    }
    const auto pick = [this](std::size_t i) {
      return i + static_cast<std::size_t>(before(heap_[i + 1], heap_[i]));
    };
    const std::size_t a = pick(first);
    const std::size_t b = pick(first + 2);
    return before(heap_[b], heap_[a]) ? b : a;
  }

  /// Moves `entry`, destined for the hole at `pos`, toward the leaves past
  /// every child that fires before it.
  void sift_down(std::size_t pos, const Entry& entry) {
    for (std::size_t child = earliest_child(pos);
         child < heap_.size() && before(heap_[child], entry);
         child = earliest_child(pos)) {
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, entry);
  }

  /// Removes the heap entry at `pos`: the last entry fills the hole and
  /// sifts whichever way restores the order.
  void erase_at(std::size_t pos) {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) {
      return;  // the removed entry was the last one
    }
    if (pos > 0 && before(last, heap_[(pos - 1) / kArity])) {
      sift_up(pos, last);
    } else {
      sift_down(pos, last);
    }
  }

  /// Completes a pop whose vacant root no insert has filled.
  void fill_vacant_root() {
    if (root_vacant_) {
      root_vacant_ = false;
      erase_at(0);
    }
  }

  void release(std::uint32_t slot_index) {
    Slot& slot = slots_[slot_index];
    slot.callback.reset();  // free captured resources immediately
    slot.heap_pos = kNil;
    ++slot.generation;  // stale EventIds go inert
    slot.next_free = free_head_;
    free_head_ = slot_index;
  }

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 0;
  SimTime last_popped_ = SimTime::zero();
  /// Min-heap on (when, key) of every pending event; the children of i
  /// are kArity * i + 1 .. kArity * i + 4.
  std::vector<Entry> heap_;
  bool root_vacant_ = false;  // heap_[0] is the entry just popped
};

}  // namespace netclone::sim
