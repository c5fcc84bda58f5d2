// The scheduling surface of the discrete-event engine.
//
// Components (links, NICs, switch pipelines, host threads) depend on this
// narrow interface only: schedule, cancel, read the clock. Running the
// event loop is the harness's job and lives on the concrete engine in
// simulator.hpp, which nothing outside src/sim and the loop owner needs.
//
// Two contracts every implementation must keep:
//   * determinism — events at the same timestamp execute in scheduling
//     order (ties broken by a monotonically increasing sequence number),
//     so a run is bit-for-bit reproducible for a given seed;
//   * cancel() removes the event from the queue in O(log n), destroys
//     its callback (and whatever it captured) immediately, and a returned
//     EventId can never cancel a later event that happens to reuse the
//     same storage (generation counters make stale handles inert).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "common/types.hpp"

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
  /// few scalars (the switch's loopback egress closure, 32 B) without
  /// bloating the event arena's slots; the link-delivery lambda captures
  /// only `this`.
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

/// What components schedule through. The engine that also runs the loop is
/// sim::Simulator; everything else takes a Scheduler&.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  virtual ~Scheduler() = default;

  /// Current simulated time.
  [[nodiscard]] virtual SimTime now() const = 0;

  /// Schedules `action` at absolute time `when` (must not be in the past).
  virtual EventId schedule_at(SimTime when, EventCallback action) = 0;

  /// Reserves the next tie-break sequence number without scheduling
  /// anything. A component that knows *now* that an event will exist but
  /// materializes it later (the link delivery FIFO arms one event for a
  /// whole queue of frames, and reserves each frame's number when the
  /// sender hands the frame over, possibly before the frame is ready to
  /// leave) reserves at decision time and passes the number to
  /// schedule_at_seq — same-timestamp ordering then matches what eager
  /// per-item schedule_at calls made at the same decision points would
  /// have produced, keeping runs bit-for-bit reproducible. Each
  /// reservation consumes one number whether or not it is ever
  /// materialized.
  [[nodiscard]] virtual std::uint64_t reserve_seq() = 0;

  /// schedule_at() with a previously reserved tie-break number. A
  /// reserved number must be used at most once.
  virtual EventId schedule_at_seq(SimTime when, std::uint64_t seq,
                                  EventCallback action) = 0;

  /// Schedules `action` after `delay` (must be non-negative).
  EventId schedule_after(SimTime delay, EventCallback action) {
    NETCLONE_CHECK(delay >= SimTime::zero(), "negative delay");
    return schedule_at(now() + delay, std::move(action));
  }

  /// Cancels a pending event: O(log n) removal, frees the callback now.
  /// Cancelling an invalid, already-fired, or already-cancelled id is a
  /// harmless no-op.
  virtual void cancel(EventId id) = 0;
};

/// A reschedulable one-shot timer: the cancel-and-rearm pattern (request
/// timeouts, arrival pacing) without per-arm closure plumbing.
//
// Semantics:
//   * arm_at/arm_after replace any pending expiry (rearm);
//   * the timer disarms itself just before invoking the callback, so the
//     callback may rearm it (periodic use) and cancel() after firing is a
//     no-op;
//   * destruction cancels a pending expiry — the callback will not run.
//
// A Timer must not outlive the Scheduler it was built against.
class Timer {
 public:
  Timer() = default;
  Timer(Scheduler& scheduler, EventCallback callback)
      : state_(std::make_unique<State>(scheduler, std::move(callback))) {}

  Timer(Timer&&) noexcept = default;
  Timer& operator=(Timer&&) noexcept = default;
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { cancel(); }

  /// Arms (or rearms) the timer to fire at absolute time `when`.
  void arm_at(SimTime when);

  /// Arms (or rearms) the timer to fire after `delay`.
  void arm_after(SimTime delay);

  /// Cancels the pending expiry, if any.
  void cancel();

  [[nodiscard]] bool armed() const {
    return state_ != nullptr && state_->armed;
  }
  [[nodiscard]] bool bound() const { return state_ != nullptr; }

 private:
  // Heap-pinned so the scheduled thunk's captured pointer survives moves
  // of the Timer object itself.
  struct State {
    State(Scheduler& s, EventCallback cb)
        : scheduler(s), callback(std::move(cb)) {}
    Scheduler& scheduler;
    EventCallback callback;
    EventId pending{};
    bool armed = false;
  };

  std::unique_ptr<State> state_;
};

}  // namespace netclone::sim
