// Ring — a FIFO in one power-of-two circular buffer: the queue type of the
// packet path (link FIFOs, the server's dispatch and FCFS queues, the
// LÆDGE coordinator's rx and request queues).
//
// std::deque frees a chunk when its front leaves one and allocates a new
// chunk when its back enters one, so even a queue that never holds more
// than a few entries costs heap traffic per entry passing through. A ring
// reuses one buffer: it doubles when full and never shrinks, so once a
// queue has reached its peak depth it allocates nothing more.
//
// Entries are reached by position from the front (operator[]); erase()
// removes one from the middle by moving the later entries forward, which
// is linear and meant for rare events (a cancelled request).
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace netclone {

template <typename T>
class Ring {
 public:
  Ring() = default;
  ~Ring() {
    clear();
    if (slots_ != nullptr) {
      std::allocator<T>{}.deallocate(slots_, capacity_);
    }
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Entries the buffer holds before it next grows.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// The entry `i` places behind the front.
  [[nodiscard]] T& operator[](std::size_t i) {
    return slots_[(head_ + i) & (capacity_ - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return slots_[(head_ + i) & (capacity_ - 1)];
  }
  [[nodiscard]] T& front() { return (*this)[0]; }
  [[nodiscard]] const T& front() const { return (*this)[0]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }
  [[nodiscard]] const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T value) { emplace_back(std::move(value)); }
  /// Constructs the new back entry in place, as T{args...}.
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      grow();
    }
    T* slot = &slots_[(head_ + size_) & (capacity_ - 1)];
    ::new (static_cast<void*>(slot)) T{std::forward<Args>(args)...};
    ++size_;
    return *slot;
  }
  void pop_front() {
    std::destroy_at(&front());
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }
  void pop_back() {
    std::destroy_at(&back());
    --size_;
  }
  /// Removes the entry at position `i`; the entries behind it move one
  /// place forward.
  void erase(std::size_t i) {
    for (std::size_t j = i; j + 1 < size_; ++j) {
      (*this)[j] = std::move((*this)[j + 1]);
    }
    pop_back();
  }
  /// Destroys every entry; the buffer is kept.
  void clear() {
    while (size_ > 0) {
      pop_front();
    }
    head_ = 0;
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  void grow() {
    const std::size_t capacity =
        capacity_ == 0 ? kMinCapacity : 2 * capacity_;
    T* slots = std::allocator<T>{}.allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      std::construct_at(&slots[i], std::move((*this)[i]));
      std::destroy_at(&(*this)[i]);
    }
    if (slots_ != nullptr) {
      std::allocator<T>{}.deallocate(slots_, capacity_);
    }
    slots_ = slots;
    capacity_ = capacity;
    head_ = 0;
  }

  T* slots_ = nullptr;
  std::size_t capacity_ = 0;  // zero or a power of two
  std::size_t head_ = 0;      // slot of the front entry
  std::size_t size_ = 0;
};

}  // namespace netclone
