#include "wire/framebuf.hpp"

#include <cstring>
#include <new>

#include "common/check.hpp"

namespace netclone::wire {

namespace {

/// Pool the current thread allocates from when one is bound (the running
/// experiment's pool); nullptr falls back to the process-wide singleton.
thread_local FramePool* g_bound_pool = nullptr;

}  // namespace

FramePool* FramePool::bind_to_thread(FramePool* pool) {
  FramePool* prev = g_bound_pool;
  g_bound_pool = pool;
  return prev;
}

// -- FramePool --------------------------------------------------------------

FramePool::~FramePool() {
  for (FrameBuf*& head : free_) {
    while (head != nullptr) {
      FrameBuf* next = head->next_free;
      ::operator delete(static_cast<void*>(head));
      head = next;
    }
  }
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
  void* raw = ::operator new(sizeof(FrameBuf) + capacity);
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
  if (g_bound_pool != nullptr) {
    return *g_bound_pool;
  }
  static FramePool pool;
  return pool;
}

// -- FrameHandle ------------------------------------------------------------

FrameHandle FrameHandle::allocate(std::size_t size) {
  return allocate(FramePool::instance(), size);
}

FrameHandle FrameHandle::allocate(FramePool& pool, std::size_t size) {
  return FrameHandle{nullptr, pool.acquire(size), 0};
}

FrameHandle FrameHandle::copy_of(std::span<const std::byte> bytes) {
  FrameHandle h = allocate(bytes.size());
  if (!bytes.empty()) {
    std::memcpy(h.writable_all(), bytes.data(), bytes.size());
  }
  return h;
}

FrameHandle FrameHandle::compose(FrameHandle head, const FrameHandle& tail) {
  NETCLONE_CHECK(head.body_ != nullptr && !head.split() &&
                     head.body_->refs == 1,
                 "scatter-gather head must be a unique, unsplit block");
  NETCLONE_CHECK(head.size() <= kMaxHeaderRegion,
                 "scatter-gather head exceeds the header region");
  if (tail.body_ == nullptr || tail.size() == 0) {
    return head;  // nothing to gather; the head alone stays contiguous
  }
  NETCLONE_CHECK(!tail.split(),
                 "scatter-gather tail must be contiguous");
  add_ref(tail.body_);
  FrameHandle out{head.body_, tail.body_, tail.body_off_};
  head.body_ = nullptr;  // the single head reference moved into `out`
  return out;
}

Frame FrameHandle::to_frame() const {
  Frame out(size());
  if (!out.empty()) {
    copy_to(out.data());
  }
  return out;
}

void FrameHandle::copy_to(std::byte* dst) const {
  if (body_ == nullptr) {
    return;
  }
  std::size_t off = 0;
  if (split()) {
    std::memcpy(dst, head_->data(), head_->size);
    off = head_->size;
  }
  std::memcpy(dst + off, body_->data() + body_off_,
              body_->size - body_off_);
}

std::byte* FrameHandle::writable_all() {
  NETCLONE_CHECK(body_ != nullptr, "empty frame handle");
  NETCLONE_CHECK(!split() && body_->refs == 1,
                 "whole-frame writes need a unique, unsplit buffer");
  return body_->data();
}

std::byte* FrameHandle::writable_head(std::size_t head_len,
                                      std::uint32_t tolerated_body_refs) {
  NETCLONE_CHECK(body_ != nullptr, "empty frame handle");
  NETCLONE_CHECK(head_len <= kMaxHeaderRegion && head_len <= size(),
                 "header region out of range");
  if (split()) {
    NETCLONE_CHECK(head_->size == head_len,
                   "header region does not match the existing split");
    if (head_->refs == 1) {
      return head_->data();
    }
    // The head itself is shared (this handle was copied after a split):
    // duplicate just the head block.
    FrameBuf* fresh = body_->pool->acquire(head_len);
    std::memcpy(fresh->data(), head_->data(), head_len);
    release_ref(head_);
    head_ = fresh;
    return head_->data();
  }
  if (body_->refs <= tolerated_body_refs) {
    return body_->data();  // sole logical owner: patch in place
  }
  // Copy-on-write split: private header region, shared payload tail.
  FrameBuf* fresh = body_->pool->acquire(head_len);
  std::memcpy(fresh->data(), body_->data(), head_len);
  head_ = fresh;
  body_off_ = static_cast<std::uint32_t>(head_len);
  return head_->data();
}

}  // namespace netclone::wire
