// Event storage for the discrete-event engine: the cancellable handle
// (EventId), the inline move-only callable (EventCallback), and the
// slot-map arena (EventArena) that holds the events no stream owns
// (stream.hpp): worker completions, retransmit timers, fault and harness
// events.
//
// Every pending event lives in a fixed slot (stable until it fires or is
// cancelled). An indexed 4-ary min-heap (quad_heap.hpp) of 16-byte
// (when, seq‖slot) entries orders them, and each slot records where its
// entry sits, so insert, pop and cancel are one O(log n) sift each. No
// cancelled event stays in the heap: cancel removes the entry and destroys
// the callback (with its captures) at once. Generation counters make stale
// EventIds inert even after the slot has been reused.
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
#include <cstring>
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

/// Move-only callable stored inline, sized so every event capture in the
/// simulator fits: a component pointer plus a frame handle or a few
/// scalars. The schedule/fire cycle therefore never touches the heap —
/// std::function, by contrast, spills almost every capture in this
/// codebase. There is no heap fallback: a capture that is too large,
/// over-aligned or throwing on move fails to compile, and the fix is to
/// park the state in the component (a FIFO, a slot table) and capture an
/// index or nothing.
class EventCallback {
 public:
  /// Inline capture budget. 64 bytes covers `this` + a frame handle + a
  /// few scalars without bloating the event arena's slots; a worker
  /// completion captures `this` and two scalars.
  static constexpr std::size_t kInlineCapacity = 64;

  EventCallback() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventCallback> &&
             std::is_invocable_r_v<void, std::decay_t<F>&>)
  // NOLINTNEXTLINE(google-explicit-constructor): callables convert freely,
  // as with std::function.
  EventCallback(F&& fn) {
    using D = std::decay_t<F>;
    static_assert(sizeof(D) <= kInlineCapacity,
                  "event capture exceeds EventCallback::kInlineCapacity: "
                  "park the state in the component and capture an index");
    static_assert(alignof(D) <= alignof(std::max_align_t),
                  "event capture is over-aligned for "
                  "EventCallback::kInlineCapacity storage");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "event capture must be nothrow-movable to live in "
                  "EventCallback::kInlineCapacity storage");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
    ops_ = &InlineOps<D>::table;
  }

  EventCallback(EventCallback&& other) noexcept { steal(other); }
  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;
  ~EventCallback() { reset(); }

  /// Destroys the held callable (releasing captured resources) and goes
  /// back to the empty state.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

  void operator()() { ops_->invoke(storage_); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(void* obj);
    /// Move-constructs into `dst` from `src` and destroys the source
    /// (relocation); both point at kInlineCapacity bytes of storage.
    /// nullptr means "memcpy the storage" — true for trivially relocatable
    /// captures (the common pointer+scalars case). Skipping the indirect
    /// call matters: the engine relocates twice per event.
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr means trivially destructible — nothing to do.
    void (*destroy)(void* obj) noexcept;
  };

  template <typename D>
  struct InlineOps {
    static void invoke(void* obj) { (*std::launder(static_cast<D*>(obj)))(); }
    static void relocate(void* dst, void* src) noexcept {
      D* from = std::launder(static_cast<D*>(src));
      ::new (dst) D(std::move(*from));
      from->~D();
    }
    static void destroy(void* obj) noexcept {
      std::launder(static_cast<D*>(obj))->~D();
    }
    static constexpr bool kTrivialRelocate =
        std::is_trivially_copyable_v<D> && std::is_trivially_destructible_v<D>;
    static constexpr Ops table{
        &invoke, kTrivialRelocate ? nullptr : &relocate,
        std::is_trivially_destructible_v<D> ? nullptr : &destroy};
  };

  void steal(EventCallback& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      if (ops_->relocate != nullptr) {
        ops_->relocate(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, kInlineCapacity);
      }
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineCapacity];
  const Ops* ops_ = nullptr;
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
  EventId insert(SimTime when, EventCallback&& callback) {
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
    slots_[index].callback = std::move(callback);
    heap_.push(Entry{when, (seq << kSlotBits) | index});
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
    callback = std::move(slots_[slot].callback);
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
  /// Every pending event, ordered by (when, key).
  QuadHeap<Entry, TrackSlot> heap_{TrackSlot{&slots_}};
};

}  // namespace netclone::sim
