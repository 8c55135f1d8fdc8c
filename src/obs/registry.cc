#include "obs/registry.h"

#include <cmath>
#include <cstddef>

#include "common/check.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#ifdef ACES_PERF_INSTRUMENT
#include <atomic>
#include <cstdlib>
#include <new>
#endif

namespace aces::obs {

/// Raw cells of a timer's duration histogram: the layout of
/// timer_geometry().raw_counts() (12 decades × 20 buckets + under/overflow).
constexpr std::size_t kTimerCells = 242;

struct alignas(64) TimerCell {
  Atomic<std::uint64_t> calls{0};
  Atomic<std::uint64_t> ns{0};
  Atomic<std::uint64_t> buckets[kTimerCells];
};

namespace {

LogHistogram make_timer_geometry() {
  LogHistogram geometry(1e-9, 1e3, 20);
  ACES_CHECK(geometry.raw_counts().size() == kTimerCells);
  return geometry;
}

/// A value LogHistogram::add files into raw cell `i`: the geometric
/// midpoint of an interior bucket, or a point past either end of the span.
double cell_value(const LogHistogram& geometry, std::size_t i) {
  const std::size_t interior = geometry.bucket_count();
  if (i == 0) return 0.0;
  if (i > interior) return 2.0 * geometry.bucket_lower(interior);
  return std::sqrt(geometry.bucket_lower(i - 1) * geometry.bucket_lower(i));
}

std::uint64_t load(const Atomic<std::uint64_t>& cell) {
  return cell.load(std::memory_order_relaxed);
}

}  // namespace

const LogHistogram& timer_geometry() {
  static const LogHistogram geometry = make_timer_geometry();
  return geometry;
}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  if (cells_ == nullptr) return total;
  for (std::size_t s = 0; s < kShards; ++s) total += load(cells_[s].value);
  return total;
}

void Timer::record(std::uint64_t ns) const {
  if (cells_ == nullptr) return;
  TimerCell& cell = cells_[detail::this_thread_shard()];
  cell.calls.fetch_add(1, std::memory_order_relaxed);
  cell.ns.fetch_add(ns, std::memory_order_relaxed);
  cell.buckets[timer_geometry().index_of(static_cast<double>(ns) * 1e-9)]
      .fetch_add(1, std::memory_order_relaxed);
}

Registry::Registry() = default;
Registry::~Registry() = default;

Counter Registry::counter(const std::string& name) {
  MutexLock lock(mutex_);
  auto& cells = counters_[name];
  if (cells == nullptr) cells = std::make_unique<CounterCell[]>(kShards);
  return Counter(cells.get());
}

Gauge Registry::gauge(const std::string& name) {
  MutexLock lock(mutex_);
  auto& cell = gauges_[name];
  if (cell == nullptr) cell = std::make_unique<Atomic<double>>(0.0);
  return Gauge(cell.get());
}

Timer Registry::timer(const std::string& name) {
  MutexLock lock(mutex_);
  auto& cells = timers_[name];
  if (cells == nullptr) cells = std::make_unique<TimerCell[]>(kShards);
  return Timer(cells.get());
}

MetricsSnapshot Registry::snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, cells] : counters_) {
    snap.counters.emplace_back(name, Counter(cells.get()).value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.emplace_back(name, cell->load(std::memory_order_relaxed));
  }
  const LogHistogram& geometry = timer_geometry();
  snap.timers.reserve(timers_.size());
  for (const auto& [name, cells] : timers_) {
    TimerSample t{name, 0, 0, geometry};
    for (std::size_t s = 0; s < kShards; ++s) {
      t.calls += load(cells[s].calls);
      t.ns += load(cells[s].ns);
    }
    for (std::size_t i = 0; i < kTimerCells; ++i) {
      std::uint64_t count = 0;
      for (std::size_t s = 0; s < kShards; ++s) {
        count += load(cells[s].buckets[i]);
      }
      if (count != 0) t.seconds.add(cell_value(geometry, i), count);
    }
    snap.timers.push_back(std::move(t));
  }
  return snap;
}

Counter make_counter(Registry* registry, const std::string& name) {
  return registry != nullptr ? registry->counter(name) : Counter();
}

Timer make_timer(Registry* registry, const std::string& name) {
  return registry != nullptr ? registry->timer(name) : Timer();
}

Registry& process_metrics() {
  // Never destroyed: a probe may fire on a thread that outlives static
  // destruction.
  static Registry* const registry = new Registry();
  return *registry;
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

std::uint64_t alloc_count() {
  return perf_detail::g_alloc_count.load(std::memory_order_relaxed);
}

#else  // !ACES_PERF_INSTRUMENT

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
