// FaultInjector semantics: half-open windows, certain and impossible
// draws, per-seed determinism of the stochastic decisions, delay
// composition, and the fault.* counter wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "fault/fault_injector.h"
#include "obs/registry.h"

namespace aces::fault {
namespace {

TEST(FaultInjectorTest, WindowQueriesAreHalfOpen) {
  FaultInjector inj(parse_fault_spec("crash node=2 at=10 until=20; "
                                     "stall pe=1 at=5 for=2"),
                    /*seed=*/1, /*pe_count=*/4);
  EXPECT_FALSE(inj.node_down(NodeId(2), 9.999));
  EXPECT_TRUE(inj.node_down(NodeId(2), 10.0));   // inclusive start
  EXPECT_TRUE(inj.node_down(NodeId(2), 19.999));
  EXPECT_FALSE(inj.node_down(NodeId(2), 20.0));  // exclusive end
  EXPECT_FALSE(inj.node_down(NodeId(0), 15.0));  // other nodes unaffected

  EXPECT_FALSE(inj.pe_stalled(PeId(1), 4.999));
  EXPECT_TRUE(inj.pe_stalled(PeId(1), 5.0));
  EXPECT_TRUE(inj.pe_stalled(PeId(1), 6.999));
  EXPECT_FALSE(inj.pe_stalled(PeId(1), 7.0));
  EXPECT_FALSE(inj.pe_stalled(PeId(2), 6.0));
}

TEST(FaultInjectorTest, CertainAndImpossibleDraws) {
  FaultInjector inj(parse_fault_spec("advert_loss pe=0 from=1 until=2 prob=1;"
                                     "drop pe=1 from=1 until=2 prob=0"),
                    1, 2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(inj.advert_lost(PeId(0), 1.5));    // certain in window
    EXPECT_FALSE(inj.advert_lost(PeId(0), 0.5));   // outside: never
    EXPECT_FALSE(inj.advert_lost(PeId(1), 1.5));   // other PE: never
    EXPECT_FALSE(inj.drop_delivery(PeId(1), 1.5));  // prob=0: never
  }
}

TEST(FaultInjectorTest, DrawsAreDeterministicPerSeed) {
  const FaultSchedule s =
      parse_fault_spec("drop pe=0 from=0 until=100 prob=0.5");
  FaultInjector a(s, 42, 1), b(s, 42, 1), c(s, 43, 1);
  std::vector<bool> seq_a, seq_b, seq_c;
  for (int i = 0; i < 256; ++i) {
    seq_a.push_back(a.drop_delivery(PeId(0), 0.1 * i));
    seq_b.push_back(b.drop_delivery(PeId(0), 0.1 * i));
    seq_c.push_back(c.drop_delivery(PeId(0), 0.1 * i));
  }
  EXPECT_EQ(seq_a, seq_b);  // same seed: bit-identical decision stream
  EXPECT_NE(seq_a, seq_c);  // different seed: different stream
  // A fair-ish coin, not a constant.
  const auto drops = std::count(seq_a.begin(), seq_a.end(), true);
  EXPECT_GT(drops, 64);
  EXPECT_LT(drops, 192);
}

TEST(FaultInjectorTest, OverlappingClausesComposeOneDrawPerEvent) {
  // Two certain-loss clauses overlap: still one decision (lost), and the
  // combined probability 1 - (1-p1)(1-p2) covers the partial overlap.
  FaultInjector inj(
      parse_fault_spec("advert_loss pe=0 from=0 until=10 prob=1;"
                       "advert_loss pe=0 from=5 until=15 prob=1"),
      7, 1);
  EXPECT_TRUE(inj.advert_lost(PeId(0), 7.0));
  EXPECT_TRUE(inj.advert_lost(PeId(0), 12.0));
  EXPECT_FALSE(inj.advert_lost(PeId(0), 16.0));
}

TEST(FaultInjectorTest, DelayIsMaxOverActiveClauses) {
  FaultInjector inj(
      parse_fault_spec("advert_delay pe=0 from=0 until=10 delay=0.05;"
                       "advert_delay pe=0 from=5 until=15 delay=0.1"),
      1, 1);
  EXPECT_DOUBLE_EQ(inj.advert_delay(PeId(0), 2.0), 0.05);
  EXPECT_DOUBLE_EQ(inj.advert_delay(PeId(0), 7.0), 0.1);  // max in overlap
  EXPECT_DOUBLE_EQ(inj.advert_delay(PeId(0), 12.0), 0.1);
  EXPECT_DOUBLE_EQ(inj.advert_delay(PeId(0), 20.0), 0.0);
}

TEST(FaultInjectorTest, CountsFaultEvents) {
  obs::Registry registry;
  FaultInjector inj(parse_fault_spec("advert_loss pe=0 from=0 until=1 prob=1;"
                                     "drop pe=0 from=0 until=1 prob=1;"
                                     "advert_delay pe=1 from=0 until=1 "
                                     "delay=0.5"),
                    1, 2, &registry);
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(inj.advert_lost(PeId(0), 0.5));
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(inj.drop_delivery(PeId(0), 0.5));
  (void)inj.advert_delay(PeId(1), 0.5);
  inj.note_node_crash(17);
  inj.note_node_restart();
  inj.note_pe_stall();

  std::uint64_t lost = 0, dropped = 0, delayed = 0, crashes = 0,
                restarts = 0, stalls = 0, lost_sdos = 0;
  for (const auto& [name, value] : registry.snapshot().counters) {
    if (name == "fault.advert_lost") lost = value;
    if (name == "fault.delivery_dropped") dropped = value;
    if (name == "fault.advert_delayed") delayed = value;
    if (name == "fault.node_crash") crashes = value;
    if (name == "fault.node_restart") restarts = value;
    if (name == "fault.pe_stall") stalls = value;
    if (name == "fault.crash_lost_sdos") lost_sdos = value;
  }
  EXPECT_EQ(lost, 3u);
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(delayed, 1u);
  EXPECT_EQ(crashes, 1u);
  EXPECT_EQ(restarts, 1u);
  EXPECT_EQ(stalls, 1u);
  EXPECT_EQ(lost_sdos, 17u);
}

TEST(FaultInjectorTest, RejectsPeIdsBeyondPeCount) {
  EXPECT_THROW(FaultInjector(parse_fault_spec("stall pe=5 at=0 for=1"), 1, 3),
               CheckFailure);
  EXPECT_THROW(
      FaultInjector(parse_fault_spec("drop pe=3 from=0 until=1"), 1, 3),
      CheckFailure);
}

}  // namespace
}  // namespace aces::fault
