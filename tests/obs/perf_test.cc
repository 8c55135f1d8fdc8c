// Tests for the hot-path perf probes (obs/perf.h).
//
// The suite runs in both build flavours: uninstrumented (the default —
// snapshots must stay empty and cost nothing) and ACES_PERF_INSTRUMENT=ON
// (probes must accumulate and reset). The bit-identical-fingerprint guard
// lives in CI (dual-build `aces simulate --fingerprint` diff); here we pin
// the API contract both flavours share.
#include "obs/perf.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

namespace aces::obs {
namespace {

TEST(PerfNames, StagesAreNamedAndDistinct) {
  std::set<std::string> names;
  for (unsigned i = 0; i < static_cast<unsigned>(PerfStage::kCount); ++i) {
    const char* name = perf_stage_name(static_cast<PerfStage>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(std::string(name).empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate stage name " << name;
  }
}

TEST(PerfNames, EventsAreNamedAndDistinct) {
  std::set<std::string> names;
  for (unsigned i = 0; i < static_cast<unsigned>(PerfEvent::kCount); ++i) {
    const char* name = perf_event_name(static_cast<PerfEvent>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_FALSE(std::string(name).empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate event name " << name;
  }
}

TEST(PerfSnapshot, InstrumentedFlagMatchesBuild) {
  EXPECT_EQ(perf_snapshot().instrumented, perf_instrumented());
}

TEST(PerfSnapshot, UninstrumentedBuildStaysEmpty) {
  if (perf_instrumented()) GTEST_SKIP() << "instrumented build";
  // The macros must be valid no-op statements, including in unbraced
  // if/else positions.
  if (perf_instrumented())
    ACES_PERF_COUNT(PerfEvent::kBufferPoolHit);
  else
    ACES_PERF_COUNT(PerfEvent::kBufferPoolMiss);
  ACES_PERF_SCOPE(PerfStage::kCalendarInsert);
  ACES_PERF_COUNT_N(PerfEvent::kBufferPoolHit, 3);
  EXPECT_TRUE(perf_snapshot().empty());
  EXPECT_EQ(alloc_count(), 0u);
}

TEST(PerfSnapshot, ProbesAccumulateAndReset) {
  if (!perf_instrumented()) GTEST_SKIP() << "uninstrumented build";
  perf_reset();
  {
    ACES_PERF_SCOPE(PerfStage::kCalendarInsert);
    ACES_PERF_COUNT(PerfEvent::kBufferPoolMiss);
    ACES_PERF_COUNT_N(PerfEvent::kBufferPoolHit, 5);
  }
  const PerfSnapshot snapshot = perf_snapshot();
  EXPECT_TRUE(snapshot.instrumented);
  ASSERT_EQ(snapshot.stages.size(), 1u);
  EXPECT_EQ(snapshot.stages[0].name,
            perf_stage_name(PerfStage::kCalendarInsert));
  EXPECT_EQ(snapshot.stages[0].calls, 1u);

  std::uint64_t misses = 0;
  std::uint64_t pool = 0;
  for (const auto& [name, count] : snapshot.events) {
    if (name == perf_event_name(PerfEvent::kBufferPoolMiss)) misses = count;
    if (name == perf_event_name(PerfEvent::kBufferPoolHit)) pool = count;
  }
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(pool, 5u);

  perf_reset();
  EXPECT_TRUE(perf_snapshot().empty());
}

TEST(PerfSnapshot, CountsFromSeveralThreadsSum) {
  if (!perf_instrumented()) GTEST_SKIP() << "uninstrumented build";
  perf_reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        ACES_PERF_COUNT(PerfEvent::kChannelWakeup);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::uint64_t total = 0;
  for (const auto& [name, count] : perf_snapshot().events) {
    if (name == perf_event_name(PerfEvent::kChannelWakeup)) total = count;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
  perf_reset();
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
