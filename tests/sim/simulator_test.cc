#include "sim/simulator.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"

namespace aces::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> trace;
  sim.schedule_in(3.0, [&] { trace.push_back(3); });
  sim.schedule_in(1.0, [&] { trace.push_back(1); });
  sim.schedule_in(2.0, [&] { trace.push_back(2); });
  sim.run_until(10.0);
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(SimulatorTest, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> trace;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(1.0, [&trace, i] { trace.push_back(i); });
  sim.run_until(1.0);
  EXPECT_EQ(trace, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ClockReadsEventTimeDuringHandler) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_in(2.5, [&] { seen = sim.now(); });
  sim.run_until(5.0);
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);  // advances to the horizon
}

TEST(SimulatorTest, RunUntilLeavesFutureEventsPending) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] { ++fired; });
  sim.schedule_in(9.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(9.0);  // boundary events (time == end) run
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  std::vector<double> times;
  // A self-rescheduling ticker.
  std::function<void()> tick = [&] {
    times.push_back(sim.now());
    if (times.size() < 4) sim.schedule_in(1.0, tick);
  };
  sim.schedule_in(1.0, tick);
  sim.run_until(10.0);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
}

TEST(SimulatorTest, SchedulingIntoThePastThrows) {
  Simulator sim;
  sim.run_until(5.0);
  EXPECT_THROW(sim.schedule_at(4.0, [] {}), CheckFailure);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), CheckFailure);
  EXPECT_THROW(sim.run_until(4.0), CheckFailure);
}

TEST(SimulatorTest, ZeroDelayRunsAtCurrentTime) {
  Simulator sim;
  sim.run_until(2.0);
  bool fired = false;
  sim.schedule_in(0.0, [&] { fired = true; });
  sim.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, RunAllDrainsEverything) {
  Simulator sim;
  int fired = 0;
  sim.schedule_in(1.0, [&] {
    ++fired;
    sim.schedule_in(100.0, [&] { ++fired; });
  });
  sim.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 101.0);
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  double last = -1.0;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    const double t = (i * 7919) % 1000 / 10.0;
    sim.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  sim.run_all();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.executed(), 10000u);
}

// The remaining tests check the event order under traffic shapes that
// stress an event set: many duplicate timestamps, far-future jumps with
// backfill, long hops between sparse events, interleaved execute/schedule
// traffic, nanosecond spacing, and handler slots reused while they run.

TEST(SimulatorTest, DuplicateTimestampsKeepScheduleOrderAcrossRebuilds) {
  Simulator sim;
  std::vector<int> trace;
  // Many events at only 3 distinct times, scheduled in a shuffled
  // pattern.
  for (int i = 0; i < 600; ++i) {
    const double t = static_cast<double>((i * 7) % 3);
    sim.schedule_at(t, [&trace, i] { trace.push_back(i); });
  }
  sim.run_all();
  ASSERT_EQ(trace.size(), 600u);
  // Within each timestamp, events run in schedule order (seq order).
  std::vector<int> last_at_time(3, -1);
  for (const int i : trace) {
    const int t = (i * 7) % 3;
    EXPECT_LT(last_at_time[t], i);
    last_at_time[t] = i;
  }
}

TEST(SimulatorTest, FarFutureJumpThenBackfillStaysOrdered) {
  Simulator sim;
  std::vector<double> times;
  const auto record = [&] { times.push_back(sim.now()); };
  sim.schedule_at(1e6, record);   // far beyond everything else
  sim.schedule_at(0.001, record); // backfill near now
  sim.schedule_at(999.0, record);
  sim.schedule_at(1e-9, record);
  sim.run_all();
  EXPECT_EQ(times, (std::vector<double>{1e-9, 0.001, 999.0, 1e6}));
}

TEST(SimulatorTest, HandlersSchedulingAcrossBucketBoundaries) {
  Simulator sim;
  // Each event schedules one follow-up far ahead, so the queue holds a
  // single event at a time.
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 50) sim.schedule_in(97.3, hop);
  };
  sim.schedule_in(0.1, hop);
  sim.run_all();
  EXPECT_EQ(hops, 50);
  EXPECT_DOUBLE_EQ(sim.now(), 0.1 + 49 * 97.3);
}

TEST(SimulatorTest, InterleavedScheduleAndRunKeepsGlobalOrder) {
  Simulator sim;
  std::vector<double> times;
  std::uint64_t rng = 12345;
  const auto record = [&] { times.push_back(sim.now()); };
  double horizon = 0.0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 50; ++i) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      const double dt = static_cast<double>(rng >> 40) / (1ULL << 20);
      sim.schedule_in(dt * 16.0, record);
    }
    horizon += 3.0;
    sim.run_until(horizon);
  }
  sim.run_all();
  ASSERT_EQ(times.size(), 2000u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]) << "out of order at " << i;
  }
}

TEST(SimulatorTest, TinyTimeScaleDoesNotOverflowDayIndex) {
  Simulator sim;
  // All events nanoseconds apart, scheduled latest first.
  std::vector<double> times;
  for (int i = 100; i > 0; --i) {
    sim.schedule_at(static_cast<double>(i) * 1e-9,
                    [&] { times.push_back(sim.now()); });
  }
  sim.run_all();
  ASSERT_EQ(times.size(), 100u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LT(times[i - 1], times[i]);
  }
}


/// Seeded random traffic mirrored into a reference ordered set of
/// (time, seq). Each handler checks, when it runs, that it is the
/// reference's earliest pending entry and that the clock reads its time.
/// Lanes are registered for zero delay and for 0.25 s and 0.5 s, which sit
/// on the tie grid; 0.25 s is registered twice and keeps one lane.
struct ReferenceTraffic {
  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr std::array<double, 3> kLaneDelays{0.0, 0.25, 0.5};
  static constexpr int kHeap = -1;  // route of an event no lane holds

  Simulator sim;
  std::mt19937_64 rng{20061};
  std::set<std::pair<double, std::uint64_t>> pending;
  std::uint64_t next_seq = 0;  // mirrors the simulator's schedule count
  std::uint64_t ran = 0;
  std::uint64_t misordered = 0;
  std::uint64_t ties = 0;            // runs at the previous run's time
  std::uint64_t lane_lane_ties = 0;  // ... from two different lanes
  std::uint64_t lane_heap_ties = 0;  // ... one from a lane, one from the heap
  std::uint64_t same_lane_ties = 0;  // ... both from one lane
  std::uint64_t zero_delays = 0;     // scheduled at now() from a handler
  std::uint64_t infinite = 0;        // scheduled at +inf
  bool spawn = true;                 // handlers schedule children
  double last_run = -1.0;
  int last_route = kHeap;

  ReferenceTraffic() {
    for (const double delay : kLaneDelays) sim.add_lane(delay);
    sim.add_lane(0.25);
  }

  /// Schedules one event from the mix: zero delay, nanosecond gaps, exact
  /// ties on a 0.25 s grid, far future (1e6 s) or +inf, a lane's delay, or
  /// a plain delay. Lane delays and plain delays go through schedule_in,
  /// the rest through schedule_at.
  void schedule(bool from_handler) {
    const double now = sim.now();
    double t = now;
    double delay = -1.0;  // >= 0: scheduled with schedule_in(delay)
    int route = kHeap;
    switch (rng() % 10) {
      case 0:
        break;
      case 1:
        t = now + static_cast<double>(1 + rng() % 4) * 1e-9;
        break;
      case 2:
        t = (std::floor(now / 0.25) + static_cast<double>(1 + rng() % 3)) *
            0.25;
        break;
      case 3:
        t = rng() % 3 == 0 ? kInf : now + 1e6;
        break;
      case 4:
      case 5:
        route = static_cast<int>(rng() % kLaneDelays.size());
        delay = kLaneDelays[static_cast<std::size_t>(route)];
        t = now + delay;
        break;
      default:
        delay = std::uniform_real_distribution<double>(0.0, 2.0)(rng);
        t = now + delay;
        break;
    }
    const std::uint64_t seq = next_seq++;
    if (from_handler && t == now) ++zero_delays;
    if (t == kInf) ++infinite;
    pending.emplace(t, seq);
    Simulator::Handler fn = [this, t, seq, route] { run(t, seq, route); };
    if (delay >= 0.0) {
      sim.schedule_in(delay, std::move(fn));
    } else {
      sim.schedule_at(t, std::move(fn));
    }
  }

  void run(double t, std::uint64_t seq, int route) {
    if (pending.empty() || *pending.begin() != std::make_pair(t, seq) ||
        sim.now() != t) {
      ++misordered;
    }
    pending.erase({t, seq});
    if (t == last_run) {
      ++ties;
      if (route != kHeap && last_route != kHeap) {
        ++(route == last_route ? same_lane_ties : lane_lane_ties);
      } else if (route != kHeap || last_route != kHeap) {
        ++lane_heap_ties;
      }
    }
    last_run = t;
    last_route = route;
    ++ran;
    // Mean 2/3 children per event keeps every cascade finite.
    if (spawn && rng() % 3 == 0) {
      schedule(true);
      schedule(true);
    }
  }
};

TEST(SimulatorTest, MatchesReferenceOrderUnderMixedTraffic) {
  ReferenceTraffic traffic;
  Simulator& sim = traffic.sim;
  double horizon = 0.0;
  for (int round = 0; round < 300; ++round) {
    for (int i = 0; i < 10; ++i) traffic.schedule(false);
    switch (traffic.rng() % 4) {
      case 0:
        break;  // the same horizon again
      case 1:
        horizon += 1e-9;
        break;
      case 2:  // exactly on a grid time that ties may sit at
        horizon = (std::floor(horizon / 0.25) + 1.0) * 0.25;
        break;
      default:
        horizon +=
            std::uniform_real_distribution<double>(0.0, 3.0)(traffic.rng);
        break;
    }
    sim.run_until(horizon);
    ASSERT_EQ(traffic.misordered, 0u) << "round " << round;
    ASSERT_EQ(sim.now(), horizon);
    ASSERT_EQ(sim.pending(), traffic.pending.size());
    ASSERT_EQ(sim.executed(), traffic.ran);
    ASSERT_TRUE(traffic.pending.empty() ||
                traffic.pending.begin()->first > horizon);
  }
  // The mix must have produced every shape it exists to test.
  EXPECT_GT(traffic.ties, 100u);
  EXPECT_GT(traffic.zero_delays, 100u);
  EXPECT_GT(traffic.infinite, 100u);
  EXPECT_GT(traffic.lane_lane_ties, 10u);
  EXPECT_GT(traffic.lane_heap_ties, 10u);
  EXPECT_GT(traffic.same_lane_ties, 10u);

  // Every finite event runs under a finite horizon; the +inf ones stay.
  traffic.spawn = false;
  sim.run_until(1e12);
  EXPECT_EQ(traffic.misordered, 0u);
  EXPECT_EQ(sim.pending(), traffic.infinite);
  EXPECT_EQ(sim.executed(), traffic.next_seq - traffic.infinite);
  for (const auto& [t, seq] : traffic.pending) {
    EXPECT_EQ(t, ReferenceTraffic::kInf);
  }

  // Draining runs them last, in schedule order.
  sim.run_all();
  EXPECT_EQ(traffic.misordered, 0u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), traffic.next_seq);
  EXPECT_EQ(sim.now(), ReferenceTraffic::kInf);
}

/// Shared state for handlers whose captures fill kHandlerCapacity.
struct SlotProbe {
  Simulator sim;
  std::vector<int> runs;
  std::vector<std::uint64_t> order;  // handler ids in the order they ran
  std::uint64_t next_id = 0;
  int corrupted = 0;
};

std::array<std::uint64_t, 5> pattern(std::uint64_t id) {
  std::array<std::uint64_t, 5> words{};
  for (std::size_t k = 0; k < words.size(); ++k) {
    words[k] = (id + 1) * 0x9E3779B97F4A7C15ULL + k;
  }
  return words;
}

/// A handler with a full 64-byte capture. When it runs it schedules
/// `fanout` children with fanout `child_fanout` at zero delay, and checks
/// its own capture before and after.
Simulator::Handler probe_handler(SlotProbe* p, std::uint32_t fanout,
                                 std::uint32_t child_fanout) {
  const std::uint64_t id = p->next_id++;
  auto fn = [p, id, fanout, child_fanout, words = pattern(id)] {
    if (words != pattern(id)) ++p->corrupted;
    ++p->runs[id];
    p->order.push_back(id);
    for (std::uint32_t c = 0; c < fanout; ++c) {
      p->sim.schedule_in(0.0, probe_handler(p, child_fanout, 0));
    }
    if (words != pattern(id)) ++p->corrupted;
  };
  static_assert(sizeof(fn) == Simulator::kHandlerCapacity);
  return fn;
}

TEST(SimulatorTest, SlotsGrowAndAreReusedWithCapturesIntact) {
  SlotProbe probe;
  Simulator& sim = probe.sim;
  constexpr std::uint32_t kChildren = 200;
  // Four warm-up handlers, the parent, its children, and one grandchild
  // per child.
  probe.runs.assign(4 + 1 + 2 * kChildren, 0);
  // Warm four slots so the parent's children first reuse freed ones.
  for (int i = 0; i < 4; ++i) {
    sim.schedule_in(0.5, probe_handler(&probe, 0, 0));
  }
  sim.run_until(0.5);
  ASSERT_EQ(sim.pending(), 0u);

  // The parent outgrows the four slots while it runs; each child then
  // schedules its grandchild into the slot it has just vacated.
  sim.schedule_at(1.0, probe_handler(&probe, kChildren, 1));
  sim.run_all();

  EXPECT_EQ(probe.next_id, probe.runs.size());
  EXPECT_EQ(probe.corrupted, 0);
  for (std::size_t id = 0; id < probe.runs.size(); ++id) {
    EXPECT_EQ(probe.runs[id], 1) << "handler " << id;
  }
  EXPECT_EQ(sim.executed(), probe.runs.size());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(SimulatorTest, LaneRingGrowsUnderItsRunningHandlerWithCapturesIntact) {
  SlotProbe probe;
  Simulator& sim = probe.sim;
  sim.add_lane(0.0);
  constexpr std::uint32_t kChildren = 200;
  // Five warm-up handlers, the parent, its children, and one grandchild
  // per child.
  probe.runs.assign(5 + 1 + 2 * kChildren, 0);
  // Advance the lane's head so the children wrap around its first ring.
  for (int i = 0; i < 5; ++i) {
    sim.schedule_in(0.0, probe_handler(&probe, 0, 0));
  }
  sim.run_until(0.5);
  ASSERT_EQ(sim.pending(), 0u);

  // The parent runs off the zero-delay lane and pushes its children onto
  // that lane, which doubles its ring several times while the parent runs;
  // each child then queues its grandchild behind the other children.
  sim.run_until(1.0);
  sim.schedule_in(0.0, probe_handler(&probe, kChildren, 1));
  sim.run_all();

  EXPECT_EQ(probe.next_id, probe.runs.size());
  EXPECT_EQ(probe.corrupted, 0);
  for (std::size_t id = 0; id < probe.runs.size(); ++id) {
    EXPECT_EQ(probe.runs[id], 1) << "handler " << id;
  }
  // Handler ids are handed out in schedule order, so FIFO runs them in
  // id order.
  ASSERT_EQ(probe.order.size(), probe.runs.size());
  for (std::size_t k = 0; k < probe.order.size(); ++k) {
    EXPECT_EQ(probe.order[k], k);
  }
  EXPECT_EQ(sim.executed(), probe.runs.size());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

}  // namespace
}  // namespace aces::sim
