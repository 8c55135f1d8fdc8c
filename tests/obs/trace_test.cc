#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "obs/export.h"
#include "obs/registry.h"
#include "obs/trace_summary.h"

namespace aces::obs {
namespace {

TickRecord make_record(double time, std::uint32_t pe, double buffer) {
  TickRecord rec;
  rec.time = time;
  rec.node = 1;
  rec.pe = pe;
  rec.buffer_occupancy = buffer;
  rec.arrived_sdos = 10.0;
  rec.processed_sdos = 9.5;
  rec.cpu_share = 0.25;
  rec.cpu_seconds_used = 0.05;
  rec.token_fill = 0.4;
  rec.dropped_total = 3;
  return rec;
}

TEST(ControlTraceRecorderTest, RecordsAndSnapshots) {
  ControlTraceRecorder recorder;
  EXPECT_TRUE(recorder.empty());
  recorder.record(make_record(0.1, 0, 5.0));
  recorder.record(make_record(0.2, 1, 7.0));
  EXPECT_EQ(recorder.size(), 2u);

  const auto snap = recorder.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_DOUBLE_EQ(snap[0].time, 0.1);
  EXPECT_EQ(snap[1].pe, 1u);
  EXPECT_DOUBLE_EQ(snap[1].buffer_occupancy, 7.0);

  recorder.clear();
  EXPECT_TRUE(recorder.empty());
}

TEST(TraceExportTest, JsonlRoundTripsIncludingInfinity) {
  std::vector<TickRecord> records;
  records.push_back(make_record(0.5, 2, 12.0));
  records.back().advertised_rmax = 80.0;
  records.back().downstream_rmax = 55.5;
  records.back().output_blocked = true;
  records.back().fault_flags = kFaultPeStalled | kFaultAdvertStale;
  // Defaults: both rmax fields +inf ("no constraint").
  records.push_back(make_record(1.0, 3, 4.0));

  std::ostringstream out;
  write_trace_jsonl(out, records);

  // +inf must serialize as JSON null, not "inf" (invalid JSON).
  EXPECT_EQ(out.str().find("inf"), std::string::npos);
  EXPECT_NE(out.str().find("null"), std::string::npos);

  std::istringstream in(out.str());
  const auto back = read_trace_jsonl(in);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_DOUBLE_EQ(back[0].time, 0.5);
  EXPECT_EQ(back[0].node, 1u);
  EXPECT_EQ(back[0].pe, 2u);
  EXPECT_DOUBLE_EQ(back[0].buffer_occupancy, 12.0);
  EXPECT_DOUBLE_EQ(back[0].arrived_sdos, 10.0);
  EXPECT_DOUBLE_EQ(back[0].processed_sdos, 9.5);
  EXPECT_DOUBLE_EQ(back[0].cpu_share, 0.25);
  EXPECT_DOUBLE_EQ(back[0].cpu_seconds_used, 0.05);
  EXPECT_DOUBLE_EQ(back[0].advertised_rmax, 80.0);
  EXPECT_DOUBLE_EQ(back[0].downstream_rmax, 55.5);
  EXPECT_DOUBLE_EQ(back[0].token_fill, 0.4);
  EXPECT_TRUE(back[0].output_blocked);
  EXPECT_EQ(back[0].dropped_total, 3u);
  EXPECT_EQ(back[0].fault_flags, kFaultPeStalled | kFaultAdvertStale);
  EXPECT_EQ(back[1].fault_flags, 0u);  // absent key defaults to healthy
  EXPECT_TRUE(std::isinf(back[1].advertised_rmax));
  EXPECT_TRUE(std::isinf(back[1].downstream_rmax));
  EXPECT_FALSE(back[1].output_blocked);
}

TEST(TraceExportTest, CsvHasHeaderAndOneRowPerRecord) {
  std::vector<TickRecord> records = {make_record(0.1, 0, 1.0),
                                     make_record(0.2, 0, 2.0)};
  std::ostringstream out;
  write_trace_csv(out, records);
  std::istringstream lines(out.str());
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header,
            "time,node,pe,buffer,arrived,processed,cpu_share,cpu_used,"
            "advertised_rmax,downstream_rmax,tokens,blocked,drops,fault");
  int rows = 0;
  std::string row;
  while (std::getline(lines, row)) {
    if (!row.empty()) ++rows;
  }
  EXPECT_EQ(rows, 2);
}

TEST(TraceSummaryTest, ConvergingTrajectorySettles) {
  // Exponential approach to 20 SDOs: |b - 20| < 1 from some tick on.
  std::vector<TickRecord> records;
  for (int i = 0; i < 100; ++i) {
    const double t = 0.1 * (i + 1);
    const double buffer = 20.0 + 80.0 * std::exp(-0.5 * i);
    auto rec = make_record(t, 4, buffer);
    rec.cpu_share = 0.5;
    records.push_back(rec);
  }
  // Shuffle-ish ordering: summarize_trace must sort by time per PE.
  std::swap(records[10], records[90]);

  const auto summaries = summarize_trace(records);
  ASSERT_EQ(summaries.size(), 1u);
  const PeTraceSummary& s = summaries[0];
  EXPECT_EQ(s.pe, 4u);
  EXPECT_EQ(s.ticks, 100u);
  EXPECT_NEAR(s.steady_target, 20.0, 1.0);
  EXPECT_TRUE(std::isfinite(s.settling_time));
  EXPECT_GT(s.settling_time, 0.0);
  EXPECT_LT(s.settling_time, 5.0);  // e^{-0.5i} decays fast
  EXPECT_LT(s.oscillation_amplitude, 1.0);
  EXPECT_DOUBLE_EQ(s.share_mean, 0.5);
  EXPECT_EQ(s.drops, 3u);
  EXPECT_DOUBLE_EQ(s.occupancy_max, 100.0);
}

TEST(TraceSummaryTest, DivergingTrajectoryNeverSettles) {
  // Ramp that never stops growing: always exits the trailing-mean band.
  std::vector<TickRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(make_record(0.1 * (i + 1), 0, 10.0 * i));
  }
  const auto summaries = summarize_trace(records);
  ASSERT_EQ(summaries.size(), 1u);
  EXPECT_TRUE(std::isinf(summaries[0].settling_time));
}

TEST(TraceSummaryTest, GroupsByPeOrderedById) {
  std::vector<TickRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(make_record(0.1 * i, 7, 5.0));
    records.push_back(make_record(0.1 * i, 2, 5.0));
  }
  const auto summaries = summarize_trace(records);
  ASSERT_EQ(summaries.size(), 2u);
  EXPECT_EQ(summaries[0].pe, 2u);
  EXPECT_EQ(summaries[1].pe, 7u);
  // Flat series settles immediately (tolerance floor 1 SDO).
  EXPECT_DOUBLE_EQ(summaries[0].settling_time, 0.0);
  EXPECT_DOUBLE_EQ(summaries[0].oscillation_amplitude, 0.0);
}

TEST(ScopedTimerTest, RecordsIntoProfiler) {
  Registry registry;
  const Timer tick = registry.timer("controller_tick");
  const Timer solve = registry.timer("optimizer_solve");
  { const ScopedTimer timer(tick); }
  { const ScopedTimer timer(tick); }
  { const ScopedTimer timer(solve); }
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.timers.size(), 2u);
  EXPECT_EQ(snap.timers[0].name, "controller_tick");
  EXPECT_EQ(snap.timers[0].calls, 2u);
  EXPECT_EQ(snap.timers[0].seconds.count(), 2u);
  EXPECT_EQ(snap.timers[1].name, "optimizer_solve");
  EXPECT_EQ(snap.timers[1].calls, 1u);
  // Durations are positive and sub-second; with the 1e-9 floor the nanosecond
  // scale must land in interior buckets, not underflow.
  EXPECT_EQ(snap.timers[0].seconds.underflow(), 0u);

  std::ostringstream os;
  write_timer_summary(os, snap);
  EXPECT_NE(os.str().find("controller_tick: count=2 p50="), std::string::npos);
  EXPECT_NE(os.str().find("optimizer_solve: count=1 p50="), std::string::npos);
}

TEST(ScopedTimerTest, NullProfilerIsSafe) {
  const ScopedTimer timer{Timer()};  // disabled: must not crash
  Registry registry;
  EXPECT_TRUE(registry.snapshot().timers.empty());
  std::ostringstream os;
  write_timer_summary(os, registry.snapshot());
  EXPECT_TRUE(os.str().empty());
}

TEST(TraceExportTest, ReadSkipsBlankLinesAndUnknownKeys) {
  std::istringstream in(
      "\n"
      "not json at all\n"
      "{\"time\":1.5,\"pe\":9,\"buffer\":3,\"future_key\":42}\n"
      "\n");
  const auto records = read_trace_jsonl(in);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_DOUBLE_EQ(records[0].time, 1.5);
  EXPECT_EQ(records[0].pe, 9u);
  EXPECT_DOUBLE_EQ(records[0].buffer_occupancy, 3.0);
  // Missing keys keep defaults.
  EXPECT_DOUBLE_EQ(records[0].cpu_share, 0.0);
  EXPECT_TRUE(std::isinf(records[0].advertised_rmax));
}

}  // namespace
}  // namespace aces::obs
