// Bounded blocking channel — the multi-producer fallback transport of the
// threaded runtime (the stand-in for the paper's SPC transport).
//
// Multi-producer / multi-consumer, mutex + condition variables. Since the
// data-plane fast-path work this is no longer the only transport: PE inputs
// that provably have a single producer thread ride the lock-free
// runtime/spsc_ring.h instead (runtime/sdo_channel.h picks per PE), and
// this channel serves the MPSC cases — fan-in PEs fed by several node
// workers, and any input also written by the MessageBus dispatcher. The two
// full-buffer behaviours the evaluated policies need map onto the API:
//   * try_push  — fail immediately when full (ACES / UDP drop semantics)
//   * push_wait — block until space or timeout (Lock-Step min-flow)
// Both backends share the API surface, including the batched try_push_n /
// pop_burst (one lock round-trip resp. one index publish per batch).
//
// Lock discipline is machine-checked: every mutable member is
// ACES_GUARDED_BY(mutex_) and clang's -Wthread-safety proves each access
// holds the lock. Waits use aces::CondVar over aces::Mutex with explicit
// while-loops (the analysis can't see through predicate lambdas), which is
// behaviourally identical to wait_for(pred). Every notify comes after the
// unlock, so a woken waiter never finds the lock still held.
#pragma once

#include <chrono>
#include <deque>
#include <optional>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/registry.h"

namespace aces::runtime {

template <typename T>
class Channel {
 public:
  explicit Channel(std::size_t capacity) : capacity_(capacity) {
    ACES_CHECK_MSG(capacity > 0, "channel capacity must be positive");
  }

  /// Non-blocking send; false when the channel is full or closed.
  bool try_push(T value) ACES_EXCLUDES(mutex_) {
    ACES_PERF_SCOPE("channel_send");
    {
      MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking send with timeout; false on timeout or close.
  bool push_wait(T value, std::chrono::nanoseconds timeout)
      ACES_EXCLUDES(mutex_) {
    ACES_PERF_SCOPE("channel_send");
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    {
      MutexLock lock(mutex_);
      while (!closed_ && items_.size() >= capacity_) {
        ACES_PERF_COUNT("channel_block");
        if (not_full_.wait_until(mutex_, deadline) ==
            std::cv_status::timeout) {
          if (closed_ || items_.size() < capacity_) break;
          return false;
        }
      }
      if (closed_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Batched send: accepts up to `n` items from `items` under ONE lock
  /// round-trip and one notify. Returns the count accepted — the same
  /// prefix a try_push loop would have accepted.
  std::size_t try_push_n(T* items, std::size_t n) ACES_EXCLUDES(mutex_) {
    ACES_PERF_SCOPE("channel_send");
    std::size_t k = 0;
    {
      MutexLock lock(mutex_);
      if (closed_) return 0;
      while (k < n && items_.size() < capacity_) {
        items_.push_back(std::move(items[k]));
        ++k;
      }
    }
    if (k > 0) not_empty_.notify_one();
    return k;
  }

  /// Non-blocking receive.
  std::optional<T> try_pop() ACES_EXCLUDES(mutex_) {
    ACES_PERF_SCOPE("channel_recv");
    std::optional<T> out;
    {
      MutexLock lock(mutex_);
      if (items_.empty()) return std::nullopt;
      out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return out;
  }

  /// Batched receive: drains up to `max` items into `out` under ONE lock
  /// round-trip. Returns the count drained. notify_all (not _one) because a
  /// burst can free several slots for several blocked producers at once.
  std::size_t pop_burst(T* out, std::size_t max) ACES_EXCLUDES(mutex_) {
    ACES_PERF_SCOPE("channel_recv");
    std::size_t k = 0;
    {
      MutexLock lock(mutex_);
      while (k < max && !items_.empty()) {
        out[k] = std::move(items_.front());
        items_.pop_front();
        ++k;
      }
    }
    if (k > 0) not_full_.notify_all();
    return k;
  }

  /// Blocking receive with timeout; nullopt on timeout, or when the channel
  /// is closed and drained.
  std::optional<T> pop_wait(std::chrono::nanoseconds timeout)
      ACES_EXCLUDES(mutex_) {
    ACES_PERF_SCOPE("channel_recv");
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::optional<T> out;
    {
      MutexLock lock(mutex_);
      while (!closed_ && items_.empty()) {
        if (not_empty_.wait_until(mutex_, deadline) ==
            std::cv_status::timeout) {
          if (closed_ || !items_.empty()) break;
          return std::nullopt;
        }
        ACES_PERF_COUNT("channel_wakeup");
      }
      if (items_.empty()) return std::nullopt;  // closed and drained
      out = std::move(items_.front());
      items_.pop_front();
    }
    not_full_.notify_one();
    return out;
  }

  /// Unblocks all waiters; subsequent pushes fail, pops drain the backlog.
  void close() ACES_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t size() const ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return items_.size();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool closed() const ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return closed_;
  }
  /// Free slots right now (racy by nature; used for occupancy sampling and
  /// Lock-Step's conservative space probe).
  [[nodiscard]] std::size_t free_slots() const ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return capacity_ - items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ ACES_GUARDED_BY(mutex_);
  bool closed_ ACES_GUARDED_BY(mutex_) = false;
};

}  // namespace aces::runtime
