// The metrics registry: named counters, gauges and timers behind every
// exposure — the worker's MetricsReport, the bench-JSON `perf` block and
// the CLI's timer summary all read one MetricsSnapshot.
//
// Two kinds of instance, one type:
//  * a run's registry (SimOptions::counters, RuntimeOptions::counters, a
//    distributed worker's own) holds that run's counters, gauges and
//    control-phase timers (`controller_tick`, `optimizer_solve`);
//  * process_metrics() holds the hot-path probes below, whose call sites
//    have no run to report to.
//
// Design constraints, in order:
//  * a disabled handle (no registry attached) costs one null test, and a
//    disabled ScopedTimer reads no clock;
//  * writers are wait-free: relaxed fetch_adds into one of kShards
//    cache-line-padded cells picked by this_thread_shard(), no lock, no
//    allocation;
//  * snapshot() works at any instant without stopping writers — it takes
//    the registry mutex only to walk the name tables.
//
// Registration (counter()/gauge()/timer()) is mutex-guarded and meant for
// setup time; handles are then free-floating pointers into registry-owned
// cells, valid for the registry's lifetime.
//
// Hot-path probes:
//
//     ACES_PERF_SCOPE("calendar_insert");
//     ACES_PERF_COUNT("buffer_pool_hit");
//     ACES_PERF_COUNT_N("ring_batch_sdos", k);
//
// Unless the build sets -DACES_PERF_INSTRUMENT (CMake option
// ACES_PERF_INSTRUMENT=ON), the macros expand to ((void)0): the argument
// tokens vanish at preprocessing time, so an uninstrumented build carries
// no probe code at all. When on, each site resolves its handle once,
// through a function-local static, into process_metrics(). Probes measure;
// nothing here may feed a RunReport, a fingerprint or a deterministic JSON
// field.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/atomic_shim.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace aces::obs {

/// Writer cells per counter and timer. Threads past the 16th share cells.
inline constexpr std::size_t kShards = 16;

/// The bucket geometry of every timer, in seconds: LogHistogram(1e-9, 1e3,
/// 20). Control phases run from sub-microsecond ticks to millisecond
/// solves, below the default histogram's 1 µs floor.
[[nodiscard]] const LogHistogram& timer_geometry();

namespace detail {
/// Shard of the calling thread: a dense id assigned on first use, masked.
inline std::size_t this_thread_shard() {
  static Atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return shard;
}
}  // namespace detail

// Relaxed ordering invariant for every cell below: a cell is a pure
// commutative sum (or a last-value gauge) — no reader infers the state of
// OTHER memory from it, so no acquire/release edge is needed. Readers see
// a possibly stale lower bound while writers run, and the exact total once
// the writing threads have joined (thread join supplies the ordering).

struct alignas(64) CounterCell {
  Atomic<std::uint64_t> value{0};
};

struct TimerCell;
class Registry;

/// Monotonic counter. Default-constructed handles are disabled.
class Counter {
 public:
  Counter() = default;

  void inc(std::uint64_t n = 1) const {
    if (cells_ != nullptr) {
      cells_[detail::this_thread_shard()].value.fetch_add(
          n, std::memory_order_relaxed);
    }
  }
  /// Sum over shards.
  [[nodiscard]] std::uint64_t value() const;
  [[nodiscard]] bool enabled() const { return cells_ != nullptr; }

 private:
  friend class Registry;
  explicit Counter(CounterCell* cells) : cells_(cells) {}
  CounterCell* cells_ = nullptr;
};

/// Last-value-wins gauge: one unsharded cell, since a last write has no
/// meaningful per-thread merge. Default-constructed handles are disabled.
class Gauge {
 public:
  Gauge() = default;

  void set(double v) const {
    if (cell_ != nullptr) cell_->store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return cell_ != nullptr ? cell_->load(std::memory_order_relaxed) : 0.0;
  }
  [[nodiscard]] bool enabled() const { return cell_ != nullptr; }

 private:
  friend class Registry;
  explicit Gauge(Atomic<double>* cell) : cell_(cell) {}
  Atomic<double>* cell_ = nullptr;
};

/// Call count, total nanoseconds and a duration histogram. Default-
/// constructed handles are disabled.
class Timer {
 public:
  Timer() = default;

  /// Records one interval of `ns` nanoseconds.
  void record(std::uint64_t ns) const;
  [[nodiscard]] bool enabled() const { return cells_ != nullptr; }

 private:
  friend class Registry;
  explicit Timer(TimerCell* cells) : cells_(cells) {}
  TimerCell* cells_ = nullptr;
};

/// Times its own lifetime into `timer`; reads no clock when it is disabled.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer timer) : timer_(timer) {
    if (timer_.enabled()) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (!timer_.enabled()) return;
    timer_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Timer timer_;
  std::chrono::steady_clock::time_point start_;
};

/// One timer's totals. `seconds` has timer_geometry(), each non-empty cell
/// re-added at its geometric midpoint, so its quantiles keep the bucket
/// resolution.
struct TimerSample {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  LogHistogram seconds;
};

/// Point-in-time copy of every registered entry, each list sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<TimerSample> timers;
};

class Registry {
 public:
  // Out of line: TimerCell, the timer layout, is private to registry.cc.
  Registry();
  ~Registry();

  /// Each returns, registering on first use, the entry called `name`.
  Counter counter(const std::string& name) ACES_EXCLUDES(mutex_);
  Gauge gauge(const std::string& name) ACES_EXCLUDES(mutex_);
  Timer timer(const std::string& name) ACES_EXCLUDES(mutex_);

  [[nodiscard]] MetricsSnapshot snapshot() const ACES_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  // The name tables are guarded; the cells they point to are written
  // lock-free by the handles.
  std::map<std::string, std::unique_ptr<CounterCell[]>> counters_
      ACES_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Atomic<double>>> gauges_
      ACES_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<TimerCell[]>> timers_
      ACES_GUARDED_BY(mutex_);
};

/// Null-safe handle acquisition: a disabled handle when `registry` is null.
Counter make_counter(Registry* registry, const std::string& name);
Timer make_timer(Registry* registry, const std::string& name);

/// The process-wide registry behind the ACES_PERF_* probes. Empty unless
/// the build is instrumented.
Registry& process_metrics();

/// True when the build compiled the probes in.
[[nodiscard]] constexpr bool perf_instrumented() {
#ifdef ACES_PERF_INSTRUMENT
  return true;
#else
  return false;
#endif
}

/// Peak resident set size of this process in bytes (getrusage; 0 where
/// unsupported). Monotonic over the process lifetime — a high-water mark,
/// not a current reading. Always compiled; nondeterministic, so it only
/// ever lands in timing-gated report fields.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Global operator-new invocation count since process start. Only tracked
/// under ACES_PERF_INSTRUMENT (0 otherwise). Deterministic for a
/// deterministic program — but allocator-library dependent, so treated as
/// a soft (not bit-stable) trajectory field.
[[nodiscard]] std::uint64_t alloc_count();

#ifdef ACES_PERF_INSTRUMENT

// Each site's lambda resolves its handle once, into a function-local static.
#define ACES_PERF_PASTE2(a, b) a##b
#define ACES_PERF_PASTE(a, b) ACES_PERF_PASTE2(a, b)
#define ACES_PERF_SCOPE(name)                                            \
  const ::aces::obs::ScopedTimer ACES_PERF_PASTE(aces_perf_probe_,       \
                                                 __LINE__)([] {          \
    static const ::aces::obs::Timer timer =                              \
        ::aces::obs::process_metrics().timer(name);                      \
    return timer;                                                        \
  }())
#define ACES_PERF_COUNT_N(name, n)                                       \
  ([] {                                                                  \
    static const ::aces::obs::Counter counter =                          \
        ::aces::obs::process_metrics().counter(name);                    \
    return counter;                                                      \
  }().inc(n))
#define ACES_PERF_COUNT(name) ACES_PERF_COUNT_N(name, 1)

#else  // !ACES_PERF_INSTRUMENT

// ((void)0) keeps the macros valid single statements inside unbraced
// if/else.
#define ACES_PERF_SCOPE(name) ((void)0)
#define ACES_PERF_COUNT(name) ((void)0)
#define ACES_PERF_COUNT_N(name, n) ((void)0)

#endif  // ACES_PERF_INSTRUMENT

}  // namespace aces::obs
