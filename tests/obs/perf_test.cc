// Tests for the hot-path probes (ACES_PERF_* in obs/registry.h).
//
// The suite runs in both build flavours: uninstrumented (the default —
// the process registry must stay empty) and ACES_PERF_INSTRUMENT=ON
// (probes must accumulate into it). The bit-identical-fingerprint guard
// lives in CI (dual-build `aces simulate --fingerprint` diff); here we pin
// the contract both flavours share.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.h"
#include "sim/simulator.h"

namespace aces::obs {
namespace {

std::uint64_t counter_value(const MetricsSnapshot& snap,
                            const std::string& name) {
  for (const auto& [n, value] : snap.counters) {
    if (n == name) return value;
  }
  return 0;
}

std::uint64_t timer_calls(const MetricsSnapshot& snap,
                          const std::string& name) {
  for (const TimerSample& t : snap.timers) {
    if (t.name == name) return t.calls;
  }
  return 0;
}

TEST(PerfSnapshot, UninstrumentedBuildStaysEmpty) {
  if (perf_instrumented()) GTEST_SKIP() << "instrumented build";
  // The macros must be valid no-op statements, including in unbraced
  // if/else positions.
  if (perf_instrumented())
    ACES_PERF_COUNT("buffer_pool_hit");
  else
    ACES_PERF_COUNT("buffer_pool_miss");
  ACES_PERF_SCOPE("calendar_insert");
  ACES_PERF_COUNT_N("buffer_pool_hit", 3);
  const MetricsSnapshot snap = process_metrics().snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.timers.empty());
  EXPECT_EQ(alloc_count(), 0u);
}

TEST(PerfSnapshot, ProbesAccumulate) {
  if (!perf_instrumented()) GTEST_SKIP() << "uninstrumented build";
  const MetricsSnapshot before = process_metrics().snapshot();
  for (int i = 0; i < 2; ++i) {
    // Each site resolves its handle once; the second pass reuses it.
    ACES_PERF_SCOPE("perf_test_scope");
    if (i == 0)
      ACES_PERF_COUNT("perf_test_miss");
    else
      ACES_PERF_COUNT_N("perf_test_hit", 5);
  }
  const MetricsSnapshot after = process_metrics().snapshot();
  EXPECT_EQ(timer_calls(after, "perf_test_scope") -
                timer_calls(before, "perf_test_scope"),
            2u);
  EXPECT_EQ(counter_value(after, "perf_test_miss") -
                counter_value(before, "perf_test_miss"),
            1u);
  EXPECT_EQ(counter_value(after, "perf_test_hit") -
                counter_value(before, "perf_test_hit"),
            5u);
}

TEST(PerfSnapshot, CountsFromSeveralThreadsSum) {
  if (!perf_instrumented()) GTEST_SKIP() << "uninstrumented build";
  const std::uint64_t before =
      counter_value(process_metrics().snapshot(), "perf_test_wakeup");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        ACES_PERF_COUNT("perf_test_wakeup");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(counter_value(process_metrics().snapshot(), "perf_test_wakeup") -
                before,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(PerfSnapshot, CalendarProbesTimeEveryLaneAndHeapEvent) {
  if (!perf_instrumented()) GTEST_SKIP() << "uninstrumented build";
  const MetricsSnapshot before = process_metrics().snapshot();
  sim::Simulator sim;
  sim.add_lane(0.5);
  std::uint64_t scheduled = 0;
  // Each root event schedules one lane and one heap child when it runs.
  for (int i = 0; i < 100; ++i) {
    const auto child = [] {};
    sim.schedule_in(0.1 * (i % 3 + 1), [&sim, &scheduled, child] {
      sim.schedule_in(0.5, child);
      sim.schedule_at(sim.now() + 2.0, child);
      scheduled += 2;
    });
    sim.schedule_in(0.5, [] {});
    scheduled += 2;
  }
  sim.run_all();
  const MetricsSnapshot after = process_metrics().snapshot();
  EXPECT_EQ(sim.executed(), scheduled);
  EXPECT_EQ(timer_calls(after, "calendar_insert") -
                timer_calls(before, "calendar_insert"),
            scheduled);
  EXPECT_EQ(timer_calls(after, "calendar_drain") -
                timer_calls(before, "calendar_drain"),
            sim.executed());
}

TEST(PerfMemory, PeakRssIsPositiveOnSupportedPlatforms) {
#if defined(__linux__) || defined(__APPLE__)
  EXPECT_GT(peak_rss_bytes(), 0u);
#else
  SUCCEED();
#endif
}

}  // namespace
}  // namespace aces::obs
