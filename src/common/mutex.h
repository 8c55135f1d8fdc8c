// Annotated mutex wrapper for clang thread-safety analysis.
//
// libstdc++'s std::mutex carries no capability attributes, so
// ACES_GUARDED_BY(some_std_mutex) is rejected by -Wthread-safety. aces::Mutex
// is a zero-overhead std::mutex wrapper declared as a capability, and
// aces::MutexLock the matching scoped acquire — the pair every
// mutex-protected structure in the tree is annotated against.
//
// Condition variables: waiting code pairs a scoped MutexLock with
// aces::CondVar and passes the held Mutex to its waits (the cv unlocks and
// relocks it around the sleep). See runtime/channel.h for the canonical
// pattern.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace aces {

class ACES_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACES_ACQUIRE() { m_.lock(); }
  void unlock() ACES_RELEASE() { m_.unlock(); }
  bool try_lock() ACES_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex m_;
};

/// RAII acquire/release of an aces::Mutex (std::lock_guard equivalent that
/// the thread-safety analysis understands).
class ACES_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACES_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() ACES_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// A condition variable for waits on an aces::Mutex: a
/// std::condition_variable over the std::mutex inside it. Unlike
/// std::condition_variable_any, it keeps no mutex of its own, so a notify
/// wakes its waiter once. condition_variable_any signals while holding its
/// internal mutex; on one CPU the woken waiter preempts the notifier, finds
/// that mutex taken and sleeps again.
///
/// Each wait takes the Mutex its caller holds, as condition_variable_any
/// did, and returns with it held again.
class CondVar {
  // Defined first: the waits below deduce their return type from it.
  /// Runs `wait` on a unique_lock that adopts the held std::mutex inside
  /// `mu`, and hands the mutex back, still held, on every path: the
  /// caller's MutexLock releases it.
  template <class Wait>
  static auto borrowed(Mutex& mu, Wait wait) {
    std::unique_lock<std::mutex> lock(mu.m_, std::adopt_lock);
    struct HandBack {
      std::unique_lock<std::mutex>& lock;
      ~HandBack() { lock.release(); }
    } hand_back{lock};
    return wait(lock);
  }

 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(Mutex& mu) ACES_REQUIRES(mu) {
    borrowed(mu, [this](std::unique_lock<std::mutex>& lock) {
      cv_.wait(lock);
    });
  }

  template <class Clock, class Duration>
  std::cv_status wait_until(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      ACES_REQUIRES(mu) {
    return borrowed(mu, [&](std::unique_lock<std::mutex>& lock) {
      return cv_.wait_until(lock, deadline);
    });
  }

  template <class Rep, class Period>
  std::cv_status wait_for(Mutex& mu,
                          const std::chrono::duration<Rep, Period>& timeout)
      ACES_REQUIRES(mu) {
    return borrowed(mu, [&](std::unique_lock<std::mutex>& lock) {
      return cv_.wait_for(lock, timeout);
    });
  }

 private:
  std::condition_variable cv_;
};

}  // namespace aces
