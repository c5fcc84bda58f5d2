// Pooled, reference-counted frame buffers — the zero-copy packet path.
//
// The simulation used to re-materialize every packet at every hop: parse
// into structs, mutate, serialize into a brand-new heap vector, deep-copy
// once more per multicast port. This layer replaces that with two ideas:
//
//   * FramePool — a free-list arena of fixed size-class buffers, so the
//     per-hop cycle allocates from a recycled slab instead of malloc;
//   * FrameHandle — an intrusively refcounted handle to one contiguous
//     pooled frame. Copies share bytes (multicast fan-out is a refcount
//     bump); mutating a shared frame first copies the whole frame (at
//     most 138 bytes for the RPCs modeled here) from its own pool.
//
// Only a component's own state holds a handle: a link's FIFO, a switch's
// loopback ring, a server's queue. Events capture plain data
// (sim/event_arena.hpp), and a received payload is read through the
// frame's wire::PacketView.
//
// Everything here is single-threaded, like the event engine: refcounts are
// plain integers, and determinism is unaffected because sharing never
// changes the bytes observed at any wire boundary. A pool is therefore
// never shared between threads: every fresh frame comes from a pool its
// writer is handed (a node's, from its topology), and every copy-on-write
// copy from the buffer's own pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "common/check.hpp"
#include "wire/bytes.hpp"

namespace netclone::wire {

class FramePool;

/// One pooled buffer: an intrusive header immediately followed by
/// `capacity` bytes of frame storage in the same allocation.
struct FrameBuf {
  std::uint32_t refs = 0;
  std::uint32_t size = 0;      // bytes in use
  std::uint32_t capacity = 0;  // bytes available after the header
  std::uint8_t size_class = 0;
  FramePool* pool = nullptr;
  FrameBuf* next_free = nullptr;

  [[nodiscard]] std::byte* data() {
    return reinterpret_cast<std::byte*>(this) + sizeof(FrameBuf);
  }
  [[nodiscard]] const std::byte* data() const {
    return reinterpret_cast<const std::byte*>(this) + sizeof(FrameBuf);
  }
};

/// Free-list arena of FrameBufs in power-of-two size classes. A class's
/// buffers are carved from blocks of kBlockBuffers, so a pool growing to
/// a new peak of live frames makes one heap allocation per kBlockBuffers
/// buffers, and every block is freed with the pool. Oversized requests
/// fall through to plain heap allocations that are freed, not recycled.
/// Under AddressSanitizer recycling is disabled entirely — each buffer is
/// its own allocation, freed on release — so a use-after-release of a
/// frame is a real heap use-after-free ASan can see.
class FramePool {
 public:
#if defined(__SANITIZE_ADDRESS__)
  static constexpr bool kRecyclingEnabled = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  static constexpr bool kRecyclingEnabled = false;
#else
  static constexpr bool kRecyclingEnabled = true;
#endif
#else
  static constexpr bool kRecyclingEnabled = true;
#endif

  struct Stats {
    std::uint64_t slabs_allocated = 0;  // buffers first handed out
    std::uint64_t acquired = 0;
    std::uint64_t released = 0;
    std::uint64_t recycled = 0;  // acquires served from a free list
    std::uint64_t live = 0;      // currently acquired
  };

  FramePool() = default;
  ~FramePool();

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  /// Returns a buffer with refs == 1 and size == `size`, contents
  /// uninitialized. The caller owns the single reference.
  [[nodiscard]] FrameBuf* acquire(std::size_t size);

  /// Returns a buffer to its free list (or frees it). Called by the last
  /// handle release; `buf->refs` must already be zero.
  void release(FrameBuf* buf);

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// The process-wide pool, for frames built outside any topology:
  /// FrameHandle::copy_of, the Frame conversions and the Packet builder.
  /// Nodes never allocate from it unless their topology hands it to them
  /// (phys::Topology's default).
  [[nodiscard]] static FramePool& instance();

 private:
  static constexpr std::size_t kClassCount = 6;
  static constexpr std::size_t kClassSize[kClassCount] = {64,  128,  256,
                                                          512, 1024, 2048};
  static constexpr std::uint8_t kUnpooled = 0xFF;
  static constexpr std::size_t kBlockBuffers = 32;

  /// A block of one class's buffers; the buffers follow the header.
  struct Block {
    Block* next;
  };
  static constexpr std::size_t kBlockHeader = 32;  // keeps buffers aligned

  /// Storage for a new buffer of pooled class `cls`, carved from the
  /// class's newest block (allocating a block when it is used up).
  [[nodiscard]] void* carve(std::uint8_t cls);

  FrameBuf* free_[kClassCount] = {};
  /// Per class: the next uncarved buffer of its newest block, and how many
  /// of that block's buffers are left.
  std::byte* carve_next_[kClassCount] = {};
  std::size_t carve_left_[kClassCount] = {};
  Block* blocks_ = nullptr;  // every block, freed by the destructor
  Stats stats_;
};

/// Refcounted handle to one contiguous pooled frame. Copying a handle
/// never copies frame bytes; writing through writable() copies the whole
/// frame first when other holders share it.
class FrameHandle {
 public:
  FrameHandle() = default;
  // The special members are inline: handles ride through every per-hop
  // cycle, so a refcount bump must not cost a call.
  FrameHandle(const FrameHandle& other) : buf_(other.buf_) { add_ref(buf_); }
  FrameHandle& operator=(const FrameHandle& other) {
    if (this != &other) {
      add_ref(other.buf_);
      reset();
      buf_ = other.buf_;
    }
    return *this;
  }
  FrameHandle(FrameHandle&& other) noexcept
      : buf_(std::exchange(other.buf_, nullptr)) {}
  FrameHandle& operator=(FrameHandle&& other) noexcept {
    if (this != &other) {
      reset();
      buf_ = std::exchange(other.buf_, nullptr);
    }
    return *this;
  }
  ~FrameHandle() { reset(); }

  // Bridges from the legacy owned-vector frame type: copies the bytes into
  // a buffer of the process pool (copy_of). Implicit so call sites (and
  // tests) that still build wire::Frame values keep working unchanged.
  // NOLINTNEXTLINE(google-explicit-constructor)
  FrameHandle(const Frame& frame) : FrameHandle(copy_of(frame)) {}

  /// A unique handle to `size` uninitialized bytes from `pool`; fill
  /// through writable() before sharing.
  [[nodiscard]] static FrameHandle allocate(FramePool& pool,
                                            std::size_t size);
  /// A frame of the process pool holding a copy of `bytes`.
  [[nodiscard]] static FrameHandle copy_of(std::span<const std::byte> bytes);

  [[nodiscard]] std::size_t size() const {
    return buf_ != nullptr ? buf_->size : 0;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] explicit operator bool() const { return buf_ != nullptr; }

  /// The whole frame as one span.
  [[nodiscard]] std::span<const std::byte> bytes() const {
    NETCLONE_CHECK(buf_ != nullptr, "empty frame handle");
    return {buf_->data(), buf_->size};
  }

  /// Owned copy of the bytes — the oracle boundary (pcap dumps, legacy
  /// parse).
  [[nodiscard]] Frame to_frame() const;

  /// Write access to the whole frame with copy-on-write: when other
  /// handles share the buffer, this handle first moves to a private copy
  /// of the frame taken from the buffer's own pool, and the other holders
  /// keep the old bytes.
  [[nodiscard]] std::byte* writable();

  /// Takes the buffer over as a `size`-byte frame to rewrite in place,
  /// its bytes left as they were, when this handle holds the only
  /// reference and `size` fits the buffer's capacity. Returns false, and
  /// changes nothing, otherwise.
  [[nodiscard]] bool reuse(std::size_t size) {
    if (buf_ == nullptr || buf_->refs != 1 || size > buf_->capacity) {
      return false;
    }
    buf_->size = static_cast<std::uint32_t>(size);
    return true;
  }

  /// Reference count of the buffer.
  [[nodiscard]] std::uint32_t use_count() const {
    return buf_ != nullptr ? buf_->refs : 0;
  }
  [[nodiscard]] bool shares_buffer_with(const FrameHandle& other) const {
    return buf_ != nullptr && buf_ == other.buf_;
  }

  void reset() {
    if (buf_ == nullptr) {
      return;
    }
    NETCLONE_CHECK(buf_->refs > 0, "frame buffer over-released");
    if (--buf_->refs == 0) {
      buf_->pool->release(buf_);
    }
    buf_ = nullptr;
  }

 private:
  explicit FrameHandle(FrameBuf* buf) : buf_(buf) {}

  static void add_ref(FrameBuf* buf) {
    if (buf != nullptr) {
      ++buf->refs;
    }
  }

  FrameBuf* buf_ = nullptr;
};
static_assert(sizeof(FrameHandle) == sizeof(FrameBuf*),
              "a frame handle is one pointer");

}  // namespace netclone::wire
