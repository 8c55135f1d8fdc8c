// Lock-free single-producer / single-consumer ring — the data-plane fast
// path of the threaded runtime.
//
// The mutex channel (runtime/channel.h) pays a lock round-trip plus a
// condition-variable notify per SDO. For the common topology case — a PE
// whose input is fed by exactly one thread (its single upstream node's
// worker, the source thread, or the bus dispatcher) — that cost is pure
// overhead: a bounded FIFO with one writer and one reader needs no lock at
// all. SpscRing is the classic Lamport ring with the two standard
// refinements:
//
//  * **Cache-line separation.** The producer index, the consumer index,
//    and the shared slot array live on distinct cache lines (alignas(64)),
//    so a push never invalidates the line the consumer is spinning on and
//    vice versa. Each side also keeps a *cached* copy of the opposite
//    index and only re-reads the shared atomic when the cached value says
//    the ring looks full/empty — in steady state a push/pop touches one
//    shared line, not two.
//  * **Power-of-two slot count.** Indices are free-running 64-bit
//    counters; `index & mask_` replaces the modulo. The *logical* capacity
//    is whatever the caller asked for (PE buffer bounds are model
//    parameters, §III-D), enforced against the counter difference, so a
//    capacity-20 ring drops exactly like a capacity-20 channel even though
//    it owns 32 slots.
//
// Memory-ordering argument (the full version is docs/performance.md; the
// bounded model checker exhausts it mechanically — docs/model_checking.md):
// the producer writes slots_[tail & mask] and then store-releases tail_;
// the consumer load-acquires tail_ before reading the slot, so the slot
// write happens-before the slot read. Symmetrically the consumer
// store-releases head_ after moving out of a slot and the producer
// load-acquires head_ before overwriting it. The consumer's reads of
// closed_ are load-ACQUIRE: observing closed == true must also make every
// item pushed before the close visible, or "closed and drained" could be
// concluded with backlog still in flight and an SDO lost at shutdown (the
// checker's close-with-backlog harness reaches exactly that trace when
// these loads are demoted to relaxed — see check::MiniDrainRing).
// Everything else is single-threaded by the SPSC contract: tail_ has one
// writer (producer), head_ has one writer (consumer), and the cached
// indices are plain members touched only by their owning side.
//
// Blocking (push_wait / pop_wait) is a *slow path*: after a short bounded
// spin the waiter parks on an aces::CondVar behind aces::Mutex. Wakeups
// are an optimization, not a correctness dependency — the fast-path
// publish does a plain load of the waiter flag (no fence), so a
// freshly-parked waiter can miss one notify; every park therefore sleeps
// in bounded slices (kParkSliceNs) and re-checks. The engine never relies on wakeup latency
// (it paces in virtual time), and the slices bound the worst case for
// callers that do. close() takes the park mutex and notifies everyone.
//
// MPSC inputs (a PE fed by several node threads) keep using the annotated
// mutex Channel; runtime/sdo_channel.h picks the backend per PE from the
// graph. See tests/runtime/spsc_ring_test.cc for the two-thread torture
// oracle and the mutex-channel differential.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/atomic_shim.h"
#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/registry.h"

namespace aces::runtime {

template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : capacity_(capacity), mask_(slot_count(capacity) - 1) {
    ACES_CHECK_MSG(capacity > 0, "ring capacity must be positive");
    slots_.resize(mask_ + 1);
    tail_.set_check_name("ring.tail_");
    head_.set_check_name("ring.head_");
    closed_.set_check_name("ring.closed_");
    consumer_parked_.set_check_name("ring.consumer_parked_");
    producer_parked_.set_check_name("ring.producer_parked_");
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Non-blocking send (producer thread only); false when full or closed.
  bool try_push(T value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= capacity_) return false;
    }
    if (closed_.load(std::memory_order_relaxed)) return false;
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    wake_consumer();
    return true;
  }

  /// Batched send (producer thread only): moves up to `n` items from
  /// `items` into the ring with ONE index publish and at most one wakeup.
  /// Returns the count accepted — exactly what a try_push loop would have
  /// accepted, so batching never changes admission decisions, only the
  /// number of atomic operations spent making them.
  std::size_t try_push_n(T* items, std::size_t n) {
    if (n == 0 || closed_.load(std::memory_order_relaxed)) return 0;
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::uint64_t free = capacity_ - (tail - cached_head_);
    if (free < n) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free = capacity_ - (tail - cached_head_);
    }
    const std::size_t k = free < n ? static_cast<std::size_t>(free) : n;
    if (k == 0) return 0;
    for (std::size_t i = 0; i < k; ++i) {
      slots_[(tail + i) & mask_] = std::move(items[i]);
    }
    tail_.store(tail + k, std::memory_order_release);
    ACES_PERF_COUNT("ring_batch_publish");
    ACES_PERF_COUNT_N("ring_batch_sdos", k);
    wake_consumer();
    return k;
  }

  /// Blocking send with timeout (producer thread only); false on timeout
  /// or close. Spins briefly, then parks in bounded slices.
  bool push_wait(T value, std::chrono::nanoseconds timeout)
      ACES_EXCLUDES(park_mutex_) {
    // Under the model checker the spin phase is one attempt: each retry is
    // several schedule points, and 128 identical failing probes explode the
    // interleaving space without adding behaviours (the park path covers
    // the waiting semantics). check::active() is constexpr false in
    // production builds, so this folds to kSpinBound.
    const int spin_bound = check::active() ? 1 : kSpinBound;
    for (int spin = 0; spin < spin_bound; ++spin) {
      if (try_push(std::move(value))) return true;
      if (closed_.load(std::memory_order_relaxed)) return false;
      cpu_relax();
    }
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (true) {
      if (try_push(std::move(value))) return true;
      if (closed_.load(std::memory_order_relaxed)) return false;
      if (std::chrono::steady_clock::now() >= deadline) return false;
      park(/*producer=*/true, deadline);
    }
  }

  /// Non-blocking receive (consumer thread only).
  std::optional<T> try_pop() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return std::nullopt;
    }
    std::optional<T> out(std::move(slots_[head & mask_]));
    head_.store(head + 1, std::memory_order_release);
    wake_producer();
    return out;
  }

  /// Batched receive (consumer thread only): moves up to `max` items into
  /// `out` with ONE index publish. Returns the count drained.
  std::size_t pop_burst(T* out, std::size_t max) {
    if (max == 0) return 0;
    ACES_PERF_SCOPE("ring_drain");
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::uint64_t avail = cached_tail_ - head;
    if (avail < max) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = cached_tail_ - head;
    }
    const std::size_t k = avail < max ? static_cast<std::size_t>(avail) : max;
    if (k == 0) return 0;
    for (std::size_t i = 0; i < k; ++i) {
      out[i] = std::move(slots_[(head + i) & mask_]);
    }
    head_.store(head + k, std::memory_order_release);
    ACES_PERF_COUNT("ring_drain_burst");
    ACES_PERF_COUNT_N("ring_drain_sdos", k);
    wake_producer();
    return k;
  }

  /// Blocking receive with timeout (consumer thread only); nullopt on
  /// timeout, or when the ring is closed and drained.
  std::optional<T> pop_wait(std::chrono::nanoseconds timeout)
      ACES_EXCLUDES(park_mutex_) {
    // The closed_ loads are ACQUIRE: concluding "closed and drained" is
    // only sound if every push sequenced before the close is visible to
    // the final try_pop (see the header comment). Acquire is free on x86;
    // the model checker's close-with-backlog harness is the regression
    // gate for anyone tempted to demote it.
    const int spin_bound = check::active() ? 1 : kSpinBound;
    for (int spin = 0; spin < spin_bound; ++spin) {
      if (auto out = try_pop()) return out;
      if (closed_.load(std::memory_order_acquire)) return try_pop();
      cpu_relax();
    }
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (true) {
      if (auto out = try_pop()) return out;
      if (closed_.load(std::memory_order_acquire)) return try_pop();
      if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
      park(/*producer=*/false, deadline);
    }
  }

  /// Unblocks all waiters; subsequent pushes fail, pops drain the backlog.
  /// Callable from any thread.
  void close() ACES_EXCLUDES(park_mutex_) {
    closed_.store(true, std::memory_order_seq_cst);
#if defined(ACES_MODEL_CHECK)
    if (check::active()) {
      check::notify(&not_empty_);
      check::notify(&not_full_);
      return;
    }
#endif
    MutexLock lock(park_mutex_);
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Racy-by-nature occupancy sample (any thread): exact only when both
  /// sides are quiescent, a consistent snapshot meanwhile.
  [[nodiscard]] std::size_t size() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t free_slots() const {
    const std::size_t used = size();
    return used >= capacity_ ? 0 : capacity_ - used;
  }

 private:
  static constexpr int kSpinBound = 128;
  /// Longest uninterrupted park: bounds the cost of a missed wakeup (the
  /// fast path deliberately carries no fence; see the header comment).
  static constexpr std::chrono::nanoseconds kParkSliceNs =
      std::chrono::milliseconds(1);

  static std::size_t slot_count(std::size_t capacity) {
    std::size_t n = 1;
    while (n < capacity) n <<= 1;
    return n;
  }

  static void cpu_relax() {
#if defined(__x86_64__) || defined(_M_X64)
    __builtin_ia32_pause();
#else
    std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
  }

  /// One bounded park slice. The flag tells the opposite side a waiter
  /// exists; the recheck under the mutex plus the bounded slice make a
  /// missed notify cost at most kParkSliceNs, never a hang.
  void park(bool producer, std::chrono::steady_clock::time_point deadline)
      ACES_EXCLUDES(park_mutex_) {
    Atomic<int>& flag = producer ? producer_parked_ : consumer_parked_;
    CondVar& cv = producer ? not_full_ : not_empty_;
    if (producer) {
      ACES_PERF_COUNT("ring_full_park");
    } else {
      ACES_PERF_COUNT("ring_empty_park");
    }
#if defined(ACES_MODEL_CHECK)
    if (check::active()) {
      // Model: flag publish + park are ONE transition, mirroring the
      // atomicity the park mutex provides below (a notify can never slip
      // between the flag store and the wait). A timeout wakeup stands in
      // for one elapsed kParkSliceNs slice.
      flag.park_after_store(1, std::memory_order_seq_cst, &cv);
      flag.store(0, std::memory_order_relaxed);
      return;
    }
#endif
    MutexLock lock(park_mutex_);
    flag.store(1, std::memory_order_seq_cst);
    const auto slice = std::chrono::steady_clock::now() + kParkSliceNs;
    cv.wait_until(park_mutex_, slice < deadline ? slice : deadline);
    flag.store(0, std::memory_order_relaxed);
  }

  void wake_consumer() ACES_EXCLUDES(park_mutex_) {
    if (consumer_parked_.load(std::memory_order_relaxed) != 0) {
#if defined(ACES_MODEL_CHECK)
      if (check::active()) {
        check::notify(&not_empty_);
        return;
      }
#endif
      MutexLock lock(park_mutex_);
      not_empty_.notify_all();
    }
  }
  void wake_producer() ACES_EXCLUDES(park_mutex_) {
    if (producer_parked_.load(std::memory_order_relaxed) != 0) {
#if defined(ACES_MODEL_CHECK)
      if (check::active()) {
        check::notify(&not_full_);
        return;
      }
#endif
      MutexLock lock(park_mutex_);
      not_full_.notify_all();
    }
  }

  const std::size_t capacity_;  ///< logical bound (what full() means)
  const std::size_t mask_;      ///< slot_count - 1, slot_count a power of 2
  std::vector<T> slots_;        ///< one up-front allocation, never resized

  /// Producer cache line: the index it owns plus its cache of head_.
  alignas(64) Atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_ = 0;  // producer-thread-only

  /// Consumer cache line.
  alignas(64) Atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_ = 0;  // consumer-thread-only

  /// Slow-path parking lot; untouched by the lock-free fast path.
  alignas(64) Atomic<bool> closed_{false};
  Atomic<int> consumer_parked_{0};
  Atomic<int> producer_parked_{0};
  Mutex park_mutex_;
  CondVar not_empty_;
  CondVar not_full_;
};

}  // namespace aces::runtime
