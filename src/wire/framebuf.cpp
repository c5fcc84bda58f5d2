#include "wire/framebuf.hpp"

#include <cstring>
#include <new>

#include "common/check.hpp"

namespace netclone::wire {

// -- FramePool --------------------------------------------------------------

FramePool::~FramePool() {
  // Pooled buffers live in blocks; freeing the blocks frees them all.
  while (blocks_ != nullptr) {
    Block* next = blocks_->next;
    ::operator delete(static_cast<void*>(blocks_));
    blocks_ = next;
  }
}

void* FramePool::carve(std::uint8_t cls) {
  const std::size_t stride = sizeof(FrameBuf) + kClassSize[cls];
  if (carve_left_[cls] == 0) {
    void* raw = ::operator new(kBlockHeader + stride * kBlockBuffers);
    blocks_ = ::new (raw) Block{blocks_};
    carve_next_[cls] = static_cast<std::byte*>(raw) + kBlockHeader;
    carve_left_[cls] = kBlockBuffers;
  }
  void* raw = carve_next_[cls];
  carve_next_[cls] += stride;
  --carve_left_[cls];
  return raw;
}

FrameBuf* FramePool::acquire(std::size_t size) {
  ++stats_.acquired;
  ++stats_.live;

  std::uint8_t cls = kUnpooled;
  for (std::size_t i = 0; i < kClassCount; ++i) {
    if (size <= kClassSize[i]) {
      cls = static_cast<std::uint8_t>(i);
      break;
    }
  }

  if (cls != kUnpooled && free_[cls] != nullptr) {
    FrameBuf* buf = free_[cls];
    free_[cls] = buf->next_free;
    buf->next_free = nullptr;
    buf->refs = 1;
    buf->size = static_cast<std::uint32_t>(size);
    ++stats_.recycled;
    return buf;
  }

  const std::size_t capacity = cls != kUnpooled ? kClassSize[cls] : size;
  void* raw = kRecyclingEnabled && cls != kUnpooled
                  ? carve(cls)
                  : ::operator new(sizeof(FrameBuf) + capacity);
  auto* buf = ::new (raw) FrameBuf{};
  buf->refs = 1;
  buf->size = static_cast<std::uint32_t>(size);
  buf->capacity = static_cast<std::uint32_t>(capacity);
  buf->size_class = cls;
  buf->pool = this;
  ++stats_.slabs_allocated;
  return buf;
}

void FramePool::release(FrameBuf* buf) {
  NETCLONE_CHECK(buf->refs == 0, "releasing a referenced frame buffer");
  ++stats_.released;
  NETCLONE_CHECK(stats_.live > 0, "pool released more buffers than acquired");
  --stats_.live;
  if (!kRecyclingEnabled || buf->size_class == kUnpooled) {
    ::operator delete(static_cast<void*>(buf));
    return;
  }
  buf->next_free = free_[buf->size_class];
  free_[buf->size_class] = buf;
}

FramePool& FramePool::instance() {
  static FramePool pool;
  return pool;
}

// -- FrameHandle ------------------------------------------------------------

FrameHandle FrameHandle::allocate(FramePool& pool, std::size_t size) {
  return FrameHandle{pool.acquire(size)};
}

FrameHandle FrameHandle::copy_of(std::span<const std::byte> bytes) {
  FrameHandle h = allocate(FramePool::instance(), bytes.size());
  if (!bytes.empty()) {
    std::memcpy(h.writable(), bytes.data(), bytes.size());
  }
  return h;
}

Frame FrameHandle::to_frame() const {
  const auto b = buf_ != nullptr ? bytes() : std::span<const std::byte>{};
  return Frame{b.begin(), b.end()};
}

std::byte* FrameHandle::writable() {
  NETCLONE_CHECK(buf_ != nullptr, "empty frame handle");
  if (buf_->refs > 1) {
    FrameBuf* fresh = buf_->pool->acquire(buf_->size);
    std::memcpy(fresh->data(), buf_->data(), buf_->size);
    reset();
    buf_ = fresh;
  }
  return buf_->data();
}

}  // namespace netclone::wire
