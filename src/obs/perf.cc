#include "obs/perf.h"

#include <cstddef>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#ifdef ACES_PERF_INSTRUMENT
#include <atomic>
#include <cstdlib>
#include <new>
#endif

namespace aces::obs {

namespace {

constexpr const char* kStageNames[] = {
    "calendar_insert", "calendar_drain", "controller_tick",
    "optimizer_solve", "channel_send",   "channel_recv",
    "ring_drain",
};
static_assert(sizeof(kStageNames) / sizeof(kStageNames[0]) ==
                  static_cast<std::size_t>(PerfStage::kCount),
              "kStageNames must cover every PerfStage");

constexpr const char* kEventNames[] = {
    "buffer_pool_hit",    "buffer_pool_miss", "channel_block",
    "channel_wakeup",     "ring_full_park",   "ring_empty_park",
    "ring_batch_publish", "ring_batch_sdos",  "ring_drain_burst",
    "ring_drain_sdos",
};
static_assert(sizeof(kEventNames) / sizeof(kEventNames[0]) ==
                  static_cast<std::size_t>(PerfEvent::kCount),
              "kEventNames must cover every PerfEvent");

}  // namespace

const char* perf_stage_name(PerfStage stage) {
  return kStageNames[static_cast<std::size_t>(stage)];
}

const char* perf_event_name(PerfEvent event) {
  return kEventNames[static_cast<std::size_t>(event)];
}

std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(usage.ru_maxrss);  // already bytes
#else
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;  // kilobytes
#endif
#else
  return 0;
#endif
}

#ifdef ACES_PERF_INSTRUMENT

namespace perf_detail {
namespace {
// Operator-new hit counter. Plain malloc backing: the override must not
// itself allocate, and must compose with sanitizer interceptors being OFF
// in instrumented builds (CI never combines the two). Deliberately NOT
// aces::Atomic: the shim would make every allocation a model schedule
// point — including the checker's own allocations — and CI keeps
// ACES_PERF_INSTRUMENT and ACES_MODEL_CHECK disjoint anyway.
// aces-lint: allow(raw-atomic) operator-new counter must never become a model schedule point
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

std::uint64_t allocation_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void* counted_alloc_aligned(std::size_t size, std::size_t alignment) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::aligned_alloc(alignment, (size + alignment - 1) / alignment *
                                           alignment);
}

}  // namespace perf_detail

PerfSnapshot perf_snapshot() {
  PerfSnapshot snapshot;
  snapshot.instrumented = true;
  auto& registry = perf_detail::PerfRegistry::instance();
  for (std::size_t s = 0; s < static_cast<std::size_t>(PerfStage::kCount);
       ++s) {
    PerfStageSample sample;
    sample.name = kStageNames[s];
    for (std::size_t shard = 0; shard < perf_detail::kShards; ++shard) {
      const auto& cell = registry.stages[s][shard];
      sample.calls += cell.calls.load(std::memory_order_relaxed);
      sample.ns += cell.ns.load(std::memory_order_relaxed);
      sample.cycles += cell.cycles.load(std::memory_order_relaxed);
    }
    if (sample.calls != 0) snapshot.stages.push_back(std::move(sample));
  }
  for (std::size_t e = 0; e < static_cast<std::size_t>(PerfEvent::kCount);
       ++e) {
    std::uint64_t total = 0;
    for (std::size_t shard = 0; shard < perf_detail::kShards; ++shard) {
      total += registry.events[e][shard].count.load(std::memory_order_relaxed);
    }
    if (total != 0) snapshot.events.emplace_back(kEventNames[e], total);
  }
  return snapshot;
}

void perf_reset() {
  auto& registry = perf_detail::PerfRegistry::instance();
  for (auto& row : registry.stages) {
    for (auto& cell : row) {
      cell.calls.store(0, std::memory_order_relaxed);
      cell.ns.store(0, std::memory_order_relaxed);
      cell.cycles.store(0, std::memory_order_relaxed);
    }
  }
  for (auto& row : registry.events) {
    for (auto& cell : row) cell.count.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t alloc_count() { return perf_detail::allocation_count(); }

#else  // !ACES_PERF_INSTRUMENT

PerfSnapshot perf_snapshot() { return PerfSnapshot{}; }

void perf_reset() {}

std::uint64_t alloc_count() { return 0; }

#endif  // ACES_PERF_INSTRUMENT

}  // namespace aces::obs

#ifdef ACES_PERF_INSTRUMENT

// Global allocation counting. Every replaceable form funnels through the
// two counted helpers; delete stays free()-based to match. Only compiled
// under ACES_PERF_INSTRUMENT, which CI keeps disjoint from sanitizer
// builds (their interceptors want the default operators).
void* operator new(std::size_t size) {
  if (void* p = aces::obs::perf_detail::counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = aces::obs::perf_detail::counted_alloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return aces::obs::perf_detail::counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return aces::obs::perf_detail::counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  if (void* p = aces::obs::perf_detail::counted_alloc_aligned(
          size, static_cast<std::size_t>(alignment))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  if (void* p = aces::obs::perf_detail::counted_alloc_aligned(
          size, static_cast<std::size_t>(alignment))) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // ACES_PERF_INSTRUMENT
