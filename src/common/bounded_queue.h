// Fixed-capacity FIFO with one up-front allocation.
//
// PE input buffers are bounded by construction (paper §III-D: B SDOs), yet
// the simulator held them in std::deque, whose chunked allocation is a
// per-SDO hot-path cost. BoundedQueue allocates its slots exactly once at
// the declared capacity — pushes and pops are pointer arithmetic, which is
// what "pooling SDO allocations" means for a buffer whose size never
// exceeds a known bound.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace aces {

/// Circular FIFO of at most `capacity()` elements. push_back past capacity
/// is a checked error: callers enforce admission (drop / backpressure)
/// before enqueueing, so an overflow here is a logic bug, not load.
template <typename T>
class BoundedQueue {
 public:
  BoundedQueue() = default;
  explicit BoundedQueue(std::size_t capacity) : slots_(capacity) {}

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == slots_.size(); }

  void push_back(T value) {
    ACES_CHECK_MSG(size_ < slots_.size(), "BoundedQueue overflow");
    slots_[wrap(head_ + size_)] = std::move(value);
    ++size_;
  }

  [[nodiscard]] const T& front() const {
    ACES_CHECK_MSG(size_ > 0, "front() on empty BoundedQueue");
    return slots_[head_];
  }

  /// Peek the i-th element from the front (0 == front()).
  [[nodiscard]] const T& at(std::size_t i) const {
    ACES_CHECK_MSG(i < size_, "at() past BoundedQueue size");
    return slots_[wrap(head_ + i)];
  }

  void pop_front() {
    ACES_CHECK_MSG(size_ > 0, "pop_front() on empty BoundedQueue");
    head_ = wrap(head_ + 1);
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  /// Slot of logical position `i` < 2·capacity(): a compare and a
  /// subtract, not a division.
  [[nodiscard]] std::size_t wrap(std::size_t i) const {
    return i >= slots_.size() ? i - slots_.size() : i;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace aces
