// Hot-path perf probes: the build's telemetry about itself.
//
// The paper's controllers act on resource-usage measurements; this header
// gives the *implementation* the same treatment. A fixed vocabulary of
// stages (scoped timers: steady_clock ns + TSC cycles + call count) and
// events (monotonic counts, including hit/miss pairs for the pooled SDO
// buffers) is compiled into the hot paths behind two macros:
//
//     ACES_PERF_SCOPE(PerfStage::kCalendarInsert);
//     ACES_PERF_COUNT(PerfEvent::kBufferPoolHit);
//
// Build discipline — zero overhead when off:
//  * Unless the build sets -DACES_PERF_INSTRUMENT (CMake option
//    ACES_PERF_INSTRUMENT=ON), both macros expand to NOTHING. Not a
//    disabled branch, not a null check: the argument tokens are discarded
//    at preprocessing time, so an uninstrumented build carries no probe
//    code at all. CI proves it by diffing RunReport fingerprints between
//    an ON and an OFF build of the same scenario.
//  * When on, writers follow the counters.h idiom: relaxed atomics into
//    cache-line-padded cells sharded by a thread-local id, so probes never
//    make threads share a line. Slots are a fixed static array — no
//    registration, no allocation, safe from any thread at any time.
//  * Probes measure, they never participate in results. Nothing here may
//    feed a RunReport, a fingerprint, or a deterministic JSON field; the
//    snapshot surfaces only through the bench JSON "perf" block, which
//    bench-diff treats as informational.
//
// The snapshot/reset API below is compiled unconditionally (empty results
// when off) so report writers need no #ifdefs. peak_rss_bytes() is also
// unconditional — it reads getrusage, not a probe. alloc_count() reports
// the global operator-new count, which is only tracked when instrumented
// (0 otherwise).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#ifdef ACES_PERF_INSTRUMENT
#include <chrono>

#include "common/atomic_shim.h"
#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif
#endif

namespace aces::obs {

/// Scoped-timing probe sites. Append only; names in perf.cc must match.
enum class PerfStage : unsigned {
  kCalendarInsert = 0,  ///< simulator event-heap push (schedule_at())
  kCalendarDrain,       ///< simulator event-heap pop (run_next())
  kControllerTick,      ///< one NodeController::tick()
  kOptimizerSolve,      ///< one tier-1 optimize() solve
  kChannelSend,         ///< runtime channel try_push()/push_wait()
  kChannelRecv,         ///< runtime channel try_pop()/pop_wait()
  kRingDrain,           ///< SPSC ring pop_burst() (batched consumer drain)
  kCount,
};

/// Event-count probe sites (hit/miss pairs and rarities).
enum class PerfEvent : unsigned {
  kBufferPoolHit = 0,       ///< SDO accepted into a pooled PE buffer
  kBufferPoolMiss,          ///< SDO rejected: pooled buffer full
  kChannelBlock,            ///< channel push had to wait for space
  kChannelWakeup,           ///< channel pop woke from a CV wait
  kRingFullPark,            ///< SPSC producer parked: ring full past spin bound
  kRingEmptyPark,           ///< SPSC consumer parked: ring empty past spin bound
  kRingBatchPublish,        ///< one try_push_n index publish (any size)
  kRingBatchSdos,           ///< SDOs moved by try_push_n publishes
  kRingDrainBurst,          ///< one pop_burst index publish (any size)
  kRingDrainSdos,           ///< SDOs moved by pop_burst drains
  kCount,
};

[[nodiscard]] const char* perf_stage_name(PerfStage stage);
[[nodiscard]] const char* perf_event_name(PerfEvent event);

/// One stage's accumulated totals across all threads.
struct PerfStageSample {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;      ///< steady_clock nanoseconds inside the scope
  std::uint64_t cycles = 0;  ///< TSC cycles (0 on non-x86_64 builds)
};

/// Point-in-time totals for every stage/event that fired at least once.
/// Empty (and `instrumented == false`) in uninstrumented builds.
struct PerfSnapshot {
  bool instrumented = false;
  std::vector<PerfStageSample> stages;
  std::vector<std::pair<std::string, std::uint64_t>> events;
  [[nodiscard]] bool empty() const { return stages.empty() && events.empty(); }
};

/// Global totals since process start (or the last perf_reset()).
[[nodiscard]] PerfSnapshot perf_snapshot();

/// Zero every probe cell. Totals are relaxed atomics, so a concurrent
/// writer may land an increment on either side of the reset; callers
/// quiesce workers first when they need exact windows (benches do).
void perf_reset();

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

namespace perf_detail {

/// Dense per-thread id, same construction as counters.h but a separate
/// counter so perf shard density does not depend on counter usage.
inline std::size_t this_thread_shard() {
  static aces::Atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

inline std::uint64_t read_cycles() {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return 0;
#endif
}

constexpr std::size_t kShards = 16;  // power of two; cap on writer spread
constexpr std::size_t kShardMask = kShards - 1;

struct alignas(64) StageCell {
  aces::Atomic<std::uint64_t> calls{0};
  aces::Atomic<std::uint64_t> ns{0};
  aces::Atomic<std::uint64_t> cycles{0};
};

struct alignas(64) EventCell {
  aces::Atomic<std::uint64_t> count{0};
};

/// Fixed-slot registry: [stage-or-event][shard] cell matrix, zero setup.
struct PerfRegistry {
  StageCell stages[static_cast<std::size_t>(PerfStage::kCount)][kShards];
  EventCell events[static_cast<std::size_t>(PerfEvent::kCount)][kShards];

  static PerfRegistry& instance() {
    static PerfRegistry registry;
    return registry;
  }
};

inline void count_event(PerfEvent event, std::uint64_t n = 1) {
  PerfRegistry::instance()
      .events[static_cast<std::size_t>(event)][this_thread_shard() & kShardMask]
      .count.fetch_add(n, std::memory_order_relaxed);
}

/// RAII scope probe: one steady_clock + TSC read at each end, accumulated
/// into the calling thread's shard on destruction.
class ScopedProbe {
 public:
  explicit ScopedProbe(PerfStage stage)
      : cell_(&PerfRegistry::instance()
                   .stages[static_cast<std::size_t>(stage)]
                          [this_thread_shard() & kShardMask]),
        start_ns_(std::chrono::steady_clock::now()),
        start_cycles_(read_cycles()) {}

  ScopedProbe(const ScopedProbe&) = delete;
  ScopedProbe& operator=(const ScopedProbe&) = delete;

  ~ScopedProbe() {
    const std::uint64_t cycles = read_cycles() - start_cycles_;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_ns_)
                        .count();
    cell_->calls.fetch_add(1, std::memory_order_relaxed);
    cell_->ns.fetch_add(static_cast<std::uint64_t>(ns),
                        std::memory_order_relaxed);
    cell_->cycles.fetch_add(cycles, std::memory_order_relaxed);
  }

 private:
  StageCell* cell_;
  std::chrono::steady_clock::time_point start_ns_;
  std::uint64_t start_cycles_;
};

}  // namespace perf_detail

#define ACES_PERF_PASTE2(a, b) a##b
#define ACES_PERF_PASTE(a, b) ACES_PERF_PASTE2(a, b)
#define ACES_PERF_SCOPE(stage)                                      \
  ::aces::obs::perf_detail::ScopedProbe ACES_PERF_PASTE(            \
      aces_perf_probe_, __LINE__)(::aces::obs::stage)
#define ACES_PERF_COUNT(event) \
  ::aces::obs::perf_detail::count_event(::aces::obs::event)
#define ACES_PERF_COUNT_N(event, n) \
  ::aces::obs::perf_detail::count_event(::aces::obs::event, (n))

#else  // !ACES_PERF_INSTRUMENT

// The argument tokens vanish at preprocessing time, so an uninstrumented
// build contains no trace of the probes. ((void)0) keeps the macros valid
// single statements inside unbraced if/else.
#define ACES_PERF_SCOPE(stage) ((void)0)
#define ACES_PERF_COUNT(event) ((void)0)
#define ACES_PERF_COUNT_N(event, n) ((void)0)

#endif  // ACES_PERF_INSTRUMENT

}  // namespace aces::obs
