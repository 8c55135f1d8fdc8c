#include "metrics/report_merge.h"

#include <vector>

#include <gtest/gtest.h>

#include "metrics/run_report.h"

namespace aces::metrics {
namespace {

TEST(ReportMergeTest, EmptyInputYieldsDefaultReport) {
  const RunReport merged = merge_reports({});
  EXPECT_EQ(merged.sdos_processed, 0u);
  EXPECT_EQ(merged.latency.count(), 0u);
  EXPECT_TRUE(merged.per_pe.empty());
}

TEST(ReportMergeTest, CountersSumAndWindowIsMax) {
  RunReport a;
  a.measured_seconds = 6.0;
  a.weighted_throughput = 10.0;
  a.output_rate = 4.0;
  a.internal_drops = 3;
  a.ingress_drops = 1;
  a.sdos_processed = 100;
  a.cpu_utilization = 0.25;
  a.events_executed = 500;
  a.reoptimizations = 1;
  RunReport b;
  b.measured_seconds = 5.5;  // a straggler shard measured slightly less
  b.weighted_throughput = 20.0;
  b.output_rate = 8.0;
  b.internal_drops = 7;
  b.ingress_drops = 2;
  b.sdos_processed = 50;
  b.cpu_utilization = 0.15;
  b.events_executed = 250;
  b.reoptimizations = 2;

  const RunReport m = merge_reports({a, b});
  EXPECT_DOUBLE_EQ(m.measured_seconds, 6.0);
  EXPECT_DOUBLE_EQ(m.weighted_throughput, 30.0);
  EXPECT_DOUBLE_EQ(m.output_rate, 12.0);
  EXPECT_EQ(m.internal_drops, 10u);
  EXPECT_EQ(m.ingress_drops, 3u);
  EXPECT_EQ(m.sdos_processed, 150u);
  // Workers compute utilization against the GLOBAL capacity, so partial
  // utilizations sum to the whole.
  EXPECT_DOUBLE_EQ(m.cpu_utilization, 0.40);
  EXPECT_EQ(m.events_executed, 750u);
  EXPECT_EQ(m.reoptimizations, 3u);
}

TEST(ReportMergeTest, AccumulatorsMergeExactly) {
  // Splitting a sample stream across two partial reports and merging must
  // equal accumulating the merged stream with OnlineStats::merge — the
  // exact property the wire transfer (from_raw) relies on.
  RunReport a;
  RunReport b;
  OnlineStats whole_latency;
  for (int i = 0; i < 100; ++i) {
    const double sample = 0.001 * (i + 1);
    ((i % 2 == 0) ? a : b).latency.add(sample);
    ((i % 2 == 0) ? a : b).latency_histogram.add(sample);
  }
  whole_latency.merge(a.latency);
  whole_latency.merge(b.latency);

  const RunReport m = merge_reports({a, b});
  EXPECT_EQ(m.latency.count(), 100u);
  EXPECT_DOUBLE_EQ(m.latency.mean(), whole_latency.mean());
  EXPECT_DOUBLE_EQ(m.latency.m2(), whole_latency.m2());
  EXPECT_EQ(m.latency_histogram.count(), 100u);
}

TEST(ReportMergeTest, PositionalVectorsAddElementwise) {
  RunReport a;
  a.egress_outputs = {10, 20};
  a.per_pe.resize(3);
  a.per_pe[0].arrived = 5;
  a.per_pe[2].cpu_seconds = 1.5;
  RunReport b;
  b.egress_outputs = {1, 2, 3};  // a shard that saw one more egress slot
  b.per_pe.resize(2);
  b.per_pe[0].arrived = 7;
  b.per_pe[1].processed = 9;

  const RunReport m = merge_reports({a, b});
  ASSERT_EQ(m.egress_outputs.size(), 3u);
  EXPECT_EQ(m.egress_outputs[0], 11u);
  EXPECT_EQ(m.egress_outputs[1], 22u);
  EXPECT_EQ(m.egress_outputs[2], 3u);
  ASSERT_EQ(m.per_pe.size(), 3u);
  EXPECT_EQ(m.per_pe[0].arrived, 12u);
  EXPECT_EQ(m.per_pe[1].processed, 9u);
  EXPECT_DOUBLE_EQ(m.per_pe[2].cpu_seconds, 1.5);
}

}  // namespace
}  // namespace aces::metrics
