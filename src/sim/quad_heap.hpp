// The indexed 4-ary min-heap both halves of the event engine order their
// entries with: the arena's pending events (event_arena.hpp) and the heads
// of the armed streams (stream.hpp).
//
// Each entry's owner records where the entry sits: every move calls the
// heap's `Track` functor with the entry and its new position, so the owner
// can erase an entry from the interior in one O(log n) sift. Four children
// per node and a root that pop_top() leaves vacant for the next push keep
// the sifts short (docs/ARCHITECTURE.md, "The event queue").
//
// Entries order by `operator<` ("fires before"), which must be a strict
// total order. A vacant root still holds the entry just taken, and the
// engine never schedules the past, so every entry pushed or moved after a
// take orders after it: no sift ever passes a vacant root.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace netclone::sim {

template <typename Entry, typename Track>
class QuadHeap {
 public:
  explicit QuadHeap(Track track) : track_(track) {}

  /// The earliest entry, or nullptr when the heap is empty. Completes a
  /// pop_top() that no push has filled.
  [[nodiscard]] const Entry* top() {
    fill_vacant_root();
    return heap_.empty() ? nullptr : heap_.data();
  }

  /// Takes the entry top() returned out of the order. Its root stays,
  /// vacant, for the next push (or the next other operation) to fill; the
  /// owner forgets the entry's position itself.
  void pop_top() { root_vacant_ = true; }

  void push(const Entry& entry) {
    if (root_vacant_) {
      root_vacant_ = false;
      sift_down(0, entry);
    } else {
      heap_.emplace_back();
      sift_up(heap_.size() - 1, entry);
    }
  }

  /// Removes the entry at `pos` (as last tracked): the last entry fills
  /// the hole and sifts whichever way restores the order.
  void erase(std::size_t pos) {
    const Entry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size()) {
      return;  // the removed entry was the last one
    }
    if (pos > 0 && last < heap_[(pos - 1) / kArity]) {
      sift_up(pos, last);
    } else {
      sift_down(pos, last);
    }
  }

  /// Entries in the order, a vacant root not counted.
  [[nodiscard]] std::size_t size() const {
    return heap_.size() - (root_vacant_ ? 1 : 0);
  }

  /// Calls `fn` on every entry in the order (not on a vacant root).
  template <typename F>
  void for_each(F&& fn) const {
    for (std::size_t i = root_vacant_ ? 1 : 0; i < heap_.size(); ++i) {
      fn(heap_[i]);
    }
  }

 private:
  static constexpr std::size_t kArity = 4;

  /// Writes `entry` at heap position `pos` and tells its owner.
  void place(std::size_t pos, const Entry& entry) {
    heap_[pos] = entry;
    track_(entry, static_cast<std::uint32_t>(pos));
  }

  /// Moves `entry`, destined for the hole at `pos`, toward the root past
  /// every parent that fires after it.
  void sift_up(std::size_t pos, const Entry& entry) {
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / kArity;
      if (!(entry < heap_[parent])) {
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
        earliest = heap_[c] < heap_[earliest] ? c : earliest;
      }
      return earliest;
    }
    const auto pick = [this](std::size_t i) {
      return i + static_cast<std::size_t>(heap_[i + 1] < heap_[i]);
    };
    const std::size_t a = pick(first);
    const std::size_t b = pick(first + 2);
    return heap_[b] < heap_[a] ? b : a;
  }

  /// Moves `entry`, destined for the hole at `pos`, toward the leaves past
  /// every child that fires before it.
  void sift_down(std::size_t pos, const Entry& entry) {
    for (std::size_t child = earliest_child(pos);
         child < heap_.size() && heap_[child] < entry;
         child = earliest_child(pos)) {
      place(pos, heap_[child]);
      pos = child;
    }
    place(pos, entry);
  }

  void fill_vacant_root() {
    if (root_vacant_) {
      root_vacant_ = false;
      erase(0);
    }
  }

  /// Min-heap of every entry; the children of i are kArity * i + 1 ..
  /// kArity * i + 4.
  std::vector<Entry> heap_;
  bool root_vacant_ = false;  // heap_[0] is the entry just taken
  [[no_unique_address]] Track track_;
};

}  // namespace netclone::sim
