#include "common/histogram.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

namespace aces {
namespace {

TEST(LogHistogramTest, EmptyQuantileIsZero) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.median(), 0.0);
}

TEST(LogHistogramTest, SinglePointQuantiles) {
  LogHistogram h;
  h.add(0.25);
  // Bucket resolution: 20 buckets/decade -> ~12% relative width.
  EXPECT_NEAR(h.median(), 0.25, 0.25 * 0.13);
  EXPECT_NEAR(h.quantile(0.0), 0.25, 0.25 * 0.13);
  EXPECT_NEAR(h.quantile(1.0), 0.25, 0.25 * 0.13);
}

TEST(LogHistogramTest, QuantilesOfUniformSample) {
  LogHistogram h(1e-3, 1e3, 40);
  Rng rng(3);
  for (int i = 0; i < 200000; ++i) h.add(rng.uniform(1.0, 101.0));
  EXPECT_NEAR(h.median(), 51.0, 51.0 * 0.06);
  EXPECT_NEAR(h.quantile(0.25), 26.0, 26.0 * 0.08);
  EXPECT_NEAR(h.p99(), 100.0, 100.0 * 0.08);
}

TEST(LogHistogramTest, BoundedRelativeErrorAcrossMagnitudes) {
  LogHistogram h(1e-6, 1e4, 20);
  for (double value : {1e-5, 1e-3, 0.1, 10.0, 1000.0}) {
    LogHistogram single(1e-6, 1e4, 20);
    single.add(value);
    EXPECT_NEAR(single.median(), value, value * 0.13)
        << "value " << value;
  }
  (void)h;
}

TEST(LogHistogramTest, UnderflowAndOverflowBuckets) {
  LogHistogram h(1e-3, 1e3, 10);
  h.add(1e-9);
  h.add(0.0);
  h.add(-5.0);
  h.add(1e9);
  EXPECT_EQ(h.underflow(), 3u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 4u);
}

TEST(LogHistogramTest, IndexOfNamesTheCellAddFills) {
  const LogHistogram geometry(1e-3, 1e3, 10);
  const std::size_t last = geometry.raw_counts().size() - 1;
  EXPECT_EQ(geometry.index_of(0.0), 0u);
  EXPECT_EQ(geometry.index_of(std::nan("")), 0u);
  EXPECT_EQ(geometry.index_of(1e9), last);
  EXPECT_EQ(geometry.index_of(std::numeric_limits<double>::infinity()), last);
  for (const double v : {1e-9, 1e-3, 0.0123, 1.0, 42.0, 999.0, 1e9}) {
    LogHistogram h = geometry;
    h.add(v);
    EXPECT_EQ(h.raw_counts()[geometry.index_of(v)], 1u) << v;
  }
}

TEST(LogHistogramTest, NanLandsInUnderflowNotUb) {
  LogHistogram h;
  h.add(std::nan(""));
  EXPECT_EQ(h.underflow(), 1u);
}

TEST(LogHistogramTest, WeightedAdd) {
  LogHistogram h;
  h.add(1.0, 10);
  h.add(100.0, 1);
  EXPECT_EQ(h.count(), 11u);
  EXPECT_NEAR(h.median(), 1.0, 0.15);
}

TEST(LogHistogramTest, MergeCombinesCounts) {
  LogHistogram a(1e-3, 1e3, 10);
  LogHistogram b(1e-3, 1e3, 10);
  a.add(1.0);
  b.add(100.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_GT(a.quantile(0.9), 50.0);
}

TEST(LogHistogramTest, MergeRejectsMismatchedGeometry) {
  LogHistogram a(1e-3, 1e3, 10);
  LogHistogram b(1e-3, 1e3, 20);
  EXPECT_THROW(a.merge(b), CheckFailure);
}

TEST(LogHistogramTest, ResetClearsCounts) {
  LogHistogram h;
  h.add(1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.median(), 0.0);
}

TEST(LogHistogramTest, QuantileRejectsOutOfRange) {
  LogHistogram h;
  h.add(1.0);
  EXPECT_THROW((void)h.quantile(-0.1), CheckFailure);
  EXPECT_THROW((void)h.quantile(1.1), CheckFailure);
}

TEST(LogHistogramTest, BucketLowerIsGeometric) {
  LogHistogram h(1.0, 100.0, 10);
  EXPECT_NEAR(h.bucket_lower(0), 1.0, 1e-12);
  EXPECT_NEAR(h.bucket_lower(10), 10.0, 1e-9);
  EXPECT_NEAR(h.bucket_lower(20), 100.0, 1e-9);
}

TEST(LogHistogramTest, RejectsBadGeometry) {
  EXPECT_THROW(LogHistogram(0.0, 10.0, 10), CheckFailure);
  EXPECT_THROW(LogHistogram(10.0, 1.0, 10), CheckFailure);
  EXPECT_THROW(LogHistogram(1.0, 10.0, 0), CheckFailure);
}

TEST(LogHistogramTest, TracksExactMinMaxSumMean) {
  LogHistogram h;
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  h.add(0.5);
  h.add(2.0);
  h.add(8.0, 2);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  EXPECT_DOUBLE_EQ(h.sum(), 18.5);
  EXPECT_DOUBLE_EQ(h.mean(), 18.5 / 4.0);
}

TEST(LogHistogramTest, InfinityLandsInOverflowNotUb) {
  LogHistogram h(1e-3, 1e3, 10);
  h.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(), 1u);
  // A non-finite sample contributes no exact extremum or sum.
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(LogHistogramTest, OverflowQuantileReportsObservedMax) {
  LogHistogram h(1e-3, 1e3, 10);
  h.add(5e7);  // far past the top bucket boundary
  h.add(1.0);
  // Before the max-tracking fix the overflow quantile reported the last
  // bucket boundary (1e3), under-reporting by 4+ orders of magnitude.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5e7);
  EXPECT_DOUBLE_EQ(h.p999(), 5e7);
}

TEST(LogHistogramTest, QuantilesClampToObservedRange) {
  LogHistogram h;
  h.add(0.25);
  // A single sample: every quantile is exactly that sample, not a bucket
  // midpoint artifact.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.25);
  EXPECT_DOUBLE_EQ(h.median(), 0.25);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.25);
}

TEST(LogHistogramTest, ExtraQuantileHelpers) {
  LogHistogram h(1e-3, 1e3, 40);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i) / 10.0);
  EXPECT_NEAR(h.p90(), 90.0, 90.0 * 0.06);
  EXPECT_NEAR(h.p999(), 99.9, 99.9 * 0.06);
}

TEST(LogHistogramTest, MergeCombinesMinMaxSum) {
  LogHistogram a(1e-3, 1e3, 10);
  LogHistogram b(1e-3, 1e3, 10);
  a.add(2.0);
  b.add(0.1);
  b.add(500.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.min(), 0.1);
  EXPECT_DOUBLE_EQ(a.max(), 500.0);
  EXPECT_DOUBLE_EQ(a.sum(), 502.1);
  LogHistogram empty(1e-3, 1e3, 10);
  a.merge(empty);  // merging an empty histogram must not disturb extrema
  EXPECT_DOUBLE_EQ(a.min(), 0.1);
  EXPECT_DOUBLE_EQ(a.max(), 500.0);
}

}  // namespace
}  // namespace aces
