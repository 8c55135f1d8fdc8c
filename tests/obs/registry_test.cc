#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

namespace aces::obs {
namespace {

TEST(CounterRegistryTest, DisabledHandleIsInertAndSafe) {
  Counter counter;  // no registry attached — the hot-path default
  EXPECT_FALSE(counter.enabled());
  counter.inc();
  counter.inc(100);
  EXPECT_EQ(counter.value(), 0u);

  Gauge gauge;
  EXPECT_FALSE(gauge.enabled());
  gauge.set(3.5);
  EXPECT_EQ(gauge.value(), 0.0);

  Timer timer;
  EXPECT_FALSE(timer.enabled());
  timer.record(1000);
  { const ScopedTimer scope(timer); }
}

TEST(CounterRegistryTest, MakeHelpersToleratesNullRegistry) {
  EXPECT_FALSE(make_counter(nullptr, "anything").enabled());
  EXPECT_FALSE(make_timer(nullptr, "anything").enabled());
  Registry registry;
  EXPECT_TRUE(make_counter(&registry, "anything").enabled());
  EXPECT_TRUE(make_timer(&registry, "anything").enabled());
}

TEST(CounterRegistryTest, CountsAndSnapshots) {
  Registry registry;
  Counter sends = registry.counter("channel.send");
  Counter drops = registry.counter("channel.drop");
  Gauge fill = registry.gauge("buffer.fill");

  sends.inc();
  sends.inc(2);
  drops.inc();
  fill.set(0.75);

  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  // Map-backed: sorted by name.
  EXPECT_EQ(snap.counters[0].first, "channel.drop");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "channel.send");
  EXPECT_EQ(snap.counters[1].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "buffer.fill");
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 0.75);
  EXPECT_TRUE(snap.timers.empty());
}

TEST(CounterRegistryTest, SameNameSharesOneCell) {
  Registry registry;
  Counter a = registry.counter("shared");
  Counter b = registry.counter("shared");
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(registry.snapshot().counters[0].second, 5u);
}

TEST(CounterRegistryTest, ConcurrentIncrementsAreLossless) {
  Registry registry;
  Counter counter = registry.counter("contended");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(CounterRegistryTest, ShardedRegistrySumsAcrossThreads) {
  // More writers than shards: threads past the 16th share cells, and
  // value() and snapshot() still report the global sum.
  Registry registry;
  Counter counter = registry.counter("sharded");
  constexpr int kThreads = static_cast<int>(kShards) + 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(registry.snapshot().counters[0].second,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(CounterRegistryTest, ShardedHandlesShareTotalsAcrossCopies) {
  Registry registry;
  Counter a = registry.counter("shared");
  Counter b = registry.counter("shared");
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
}

TEST(CounterRegistryTest, SnapshotWhileWritersRun) {
  Registry registry;
  Counter counter = registry.counter("live");
  std::thread writer([&counter] {
    for (int i = 0; i < 100000; ++i) counter.inc();
  });
  // Snapshots must be callable at any instant without stopping workers.
  std::uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t seen = registry.snapshot().counters[0].second;
    EXPECT_GE(seen, last);  // monotone
    last = seen;
  }
  writer.join();
  EXPECT_EQ(registry.snapshot().counters[0].second, 100000u);
}

TEST(RegistryTimerTest, SnapshotKeepsEveryCellOfTheHistogram) {
  // One duration per decade from 0 ns to past the 1000 s overflow bound:
  // the snapshot's histogram must hold each in the cell LogHistogram
  // itself files it into, under- and overflow included.
  Registry registry;
  const Timer timer = registry.timer("phase");
  LogHistogram expected = timer_geometry();
  std::uint64_t total_ns = 0;
  std::uint64_t ns = 0;
  for (int i = 0; i < 15; ++i) {
    timer.record(ns);
    expected.add(static_cast<double>(ns) * 1e-9);
    total_ns += ns;
    ns = ns == 0 ? 1 : ns * 10;
  }
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.timers.size(), 1u);
  const TimerSample& t = snap.timers[0];
  EXPECT_EQ(t.name, "phase");
  EXPECT_EQ(t.calls, 15u);
  EXPECT_EQ(t.ns, total_ns);
  EXPECT_EQ(t.seconds.count(), 15u);
  EXPECT_EQ(t.seconds.raw_counts(), expected.raw_counts());
  EXPECT_EQ(t.seconds.underflow(), 1u);  // 0 ns
  EXPECT_GE(t.seconds.overflow(), 1u);   // 10^13 ns
}

TEST(RegistryTimerTest, QuantilesKeepTheBucketResolution) {
  Registry registry;
  const Timer timer = registry.timer("tick");
  for (int i = 0; i < 90; ++i) timer.record(300);        // 0.3 µs
  for (int i = 0; i < 10; ++i) timer.record(2'000'000);  // 2 ms
  const TimerSample t = registry.snapshot().timers.at(0);
  // Twenty buckets per decade: a bucket midpoint is within 10^(1/40) of
  // every value in its bucket.
  const double tolerance = 1.06;
  EXPECT_LT(t.seconds.median() / 300e-9, tolerance);
  EXPECT_GT(t.seconds.median() / 300e-9, 1.0 / tolerance);
  EXPECT_LT(t.seconds.p99() / 2e-3, tolerance);
  EXPECT_GT(t.seconds.p99() / 2e-3, 1.0 / tolerance);
}

TEST(RegistryTimerTest, ScopedTimersFromSeveralThreadsSum) {
  Registry registry;
  const Timer timer = registry.timer("scope");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([timer] {
      for (int i = 0; i < 100; ++i) {
        const ScopedTimer scope(timer);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const TimerSample t = registry.snapshot().timers.at(0);
  EXPECT_EQ(t.calls, 400u);
  EXPECT_EQ(t.seconds.count(), 400u);
  EXPECT_EQ(t.seconds.overflow(), 0u);
}

}  // namespace
}  // namespace aces::obs
