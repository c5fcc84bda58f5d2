// Event storage for the discrete-event engine: the cancellable handle
// (EventId), the inline plain-data callable (EventCallback), and the
// slot-map arena (EventArena) that holds the events no stream owns
// (stream.hpp): worker completions, retransmit timers, fault and harness
// events.
//
// Every pending event lives in a fixed slot (stable until it fires or is
// cancelled). An indexed 4-ary min-heap (quad_heap.hpp) of 16-byte
// (when, seq‖slot) entries orders them, and each slot records where its
// entry sits, so insert, pop and cancel are one O(log n) sift each. No
// cancelled event stays in the heap: cancel removes the entry, and since a
// capture owns nothing, that is all it does. Generation counters make
// stale EventIds inert even after the slot has been reused.
//
// Determinism contract: events pop in strict (when, seq) order; seq is the
// tie-break number each event draws from draw_seq() when it is scheduled
// (streams draw from the same counter), so same-time events fire in
// scheduling order.
//
// Header-only, so the schedule/fire cycle inlines into the run loop;
// components schedule through sim::Simulator (simulator.hpp), not the
// arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "sim/quad_heap.hpp"

namespace netclone::sim {

/// Handle for cancelling a scheduled event. A default-constructed id is
/// invalid (cancelling it is a no-op); after the event fires or is
/// cancelled the handle goes stale and is equally harmless.
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;  // 0 = never issued

  [[nodiscard]] bool valid() const { return generation != 0; }
  friend bool operator==(const EventId&, const EventId&) = default;
};

/// What an event capture may be: plain data (`this` and a few integers)
/// that the engine copies as bytes and that owns nothing, so neither
/// firing nor cancelling an event releases anything. A component keeps
/// its frames and other owned state itself (a FIFO, a slot table) and
/// captures an index into it.
template <typename F>
concept PlainCapture =
    std::is_trivially_copyable_v<F> && std::is_trivially_destructible_v<F>;

/// An event's action: a plain-data capture stored inline next to the
/// function that invokes it, so the schedule/fire cycle never touches the
/// heap. There is no heap fallback: a capture that owns something, is too
/// large or is over-aligned fails to compile.
class EventCallback {
 public:
  /// Inline capture budget, at 8-byte alignment. A component's capture is
  /// `this` and at most two integers (a worker completion's `this`, epoch
  /// and slot: 24 bytes); the largest in the tree, a replay driver's, is
  /// three pointers, a time and an index (40 bytes).
  static constexpr std::size_t kInlineCapacity = 48;
  static constexpr std::size_t kInlineAlignment = alignof(std::uint64_t);

  EventCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&> &&
             PlainCapture<std::decay_t<F>>)
  // NOLINTNEXTLINE(google-explicit-constructor): callables convert freely,
  // as with std::function.
  EventCallback(F&& fn) {
    using D = std::decay_t<F>;
    static_assert(sizeof(D) <= kInlineCapacity,
                  "event capture exceeds EventCallback::kInlineCapacity: "
                  "park the state in the component and capture an index");
    static_assert(alignof(D) <= kInlineAlignment,
                  "event capture is over-aligned for "
                  "EventCallback::kInlineCapacity storage");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
    invoke_ = &invoke<D>;
  }

  void operator()() { invoke_(storage_); }

 private:
  template <typename D>
  static void invoke(void* obj) {
    (*std::launder(static_cast<D*>(obj)))();
  }

  alignas(kInlineAlignment) std::byte storage_[kInlineCapacity];
  void (*invoke_)(void*) = nullptr;
};

class EventArena {
 public:
  EventArena() = default;
  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  /// Draws the next tie-break number. Every event takes one when it is
  /// scheduled, whether it waits here or in a stream (stream.hpp): one
  /// counter orders all same-time events by scheduling order.
  std::uint64_t draw_seq() {
    NETCLONE_CHECK(next_seq_ < kMaxSeq, "event sequence space exhausted");
    return next_seq_++;
  }

  /// Stores an event and orders it behind everything earlier (ties break
  /// by insertion order — the determinism contract).
  EventId insert(SimTime when, const EventCallback& callback) {
    const std::uint64_t seq = draw_seq();
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
    slots_[index].callback = callback;
    heap_.push(Entry{when, (seq << kSlotBits) | index});
    return EventId{index, slots_[index].generation};
  }

  /// Removes the event. Returns false (no-op) for invalid, stale, fired,
  /// or already-cancelled ids.
  bool cancel(EventId id) {
    if (!id.valid() || id.slot >= slots_.size() ||
        slots_[id.slot].heap_pos == kNil ||
        slots_[id.slot].generation != id.generation) {
      return false;  // already fired/cancelled, or the slot was reused
    }
    const std::size_t pos = slots_[id.slot].heap_pos;
    release(id.slot);
    heap_.erase(pos);
    return true;
  }

  /// True when no pending event fires before (when, seq): the head of a
  /// stream, whose seq came from draw_seq().
  [[nodiscard]] bool none_before(SimTime when, std::uint64_t seq) {
    const Entry* top = heap_.top();
    return top == nullptr || Entry{when, seq << kSlotBits} < *top;
  }

  /// Removes the earliest pending event into `when`/`callback` if it fires
  /// at or before `deadline`; returns false otherwise. The popped event's
  /// root entry stays, vacant, for the next insert or pop to fill.
  bool pop_due(SimTime deadline, SimTime& when, EventCallback& callback) {
    const Entry* top = heap_.top();
    if (top == nullptr || top->when > deadline) {
      return false;
    }
    when = last_popped_ = top->when;
    const auto slot = static_cast<std::uint32_t>(top->key & (kMaxSlots - 1));
    callback = slots_[slot].callback;
    release(slot);
    heap_.pop_top();
    return true;
  }

  /// Exact number of pending events (cancelled events do not count).
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFU;
  /// (seq, slot) pack into one 64-bit key: seq in the high 40 bits
  /// (checked in draw_seq; ~20 hours of simulation at 15M events/sec),
  /// slot index in the low 24. So a heap entry is 16 bytes.
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kMaxSlots = 1ULL << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ULL << (64 - kSlotBits);

  struct Slot {
    std::uint32_t generation = 1;
    std::uint32_t heap_pos = kNil;  // kNil once fired or cancelled
    std::uint32_t next_free = kNil;
    EventCallback callback;
  };

  struct Entry {
    SimTime when;
    std::uint64_t key;

    /// Strict order on (when, key) as one 128-bit number (when is never
    /// negative). The key's high bits are the unique scheduling sequence
    /// number: same-time events keep scheduling order.
    friend bool operator<(const Entry& a, const Entry& b) {
      __extension__ using U128 = unsigned __int128;
      const auto packed = [](const Entry& e) {
        return (U128{static_cast<std::uint64_t>(e.when.ns())} << 64) | e.key;
      };
      return packed(a) < packed(b);
    }
  };

  /// Records each entry's heap position in its slot.
  struct TrackSlot {
    std::vector<Slot>* slots;
    void operator()(const Entry& entry, std::uint32_t pos) const {
      (*slots)[entry.key & (kMaxSlots - 1)].heap_pos = pos;
    }
  };

  void release(std::uint32_t slot_index) {
    Slot& slot = slots_[slot_index];
    slot.heap_pos = kNil;
    ++slot.generation;  // stale EventIds go inert
    slot.next_free = free_head_;
    free_head_ = slot_index;
  }

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;
  std::uint64_t next_seq_ = 0;
  SimTime last_popped_ = SimTime::zero();
  /// Every pending event, ordered by (when, key).
  QuadHeap<Entry, TrackSlot> heap_{TrackSlot{&slots_}};
};

}  // namespace netclone::sim
