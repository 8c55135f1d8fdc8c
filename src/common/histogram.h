// Log-bucketed histogram for latency distributions.
//
// End-to-end SDO latencies span ~4 orders of magnitude (sub-millisecond to
// tens of seconds under congestion); logarithmic buckets give bounded memory
// with bounded relative quantile error, the same trade HdrHistogram makes.
// Like HdrHistogram, the exact min/max/sum of the samples are tracked next
// to the buckets, so the tails reported for the extreme quantiles are real
// observed values instead of bucket-boundary artifacts.
#pragma once

#include <cstdint>
#include <vector>

namespace aces {

/// Histogram over (0, +inf) with geometrically-spaced bucket boundaries.
class LogHistogram {
 public:
  /// Buckets span [min_value, max_value] with `buckets_per_decade` buckets per
  /// factor of 10. Values below/above the span land in under/overflow buckets.
  /// explicit: a bare double is a sample, not a histogram geometry — the
  /// implicit conversion this previously permitted is exactly the
  /// accidental-temporary bug clang-tidy's explicit-constructor check exists
  /// to prevent.
  explicit LogHistogram(double min_value = 1e-6, double max_value = 1e4,
                        int buckets_per_decade = 20);

  void add(double value, std::uint64_t weight = 1);
  /// Raw cell (see raw_counts()) that add() files `value` into: 0 is the
  /// underflow, which also takes NaN and non-positive values, and
  /// raw_counts().size() - 1 the overflow.
  [[nodiscard]] std::size_t index_of(double value) const;
  void merge(const LogHistogram& other);
  void reset();

  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Quantile in [0,1]; returns the geometric midpoint of the bucket holding
  /// the q-th sample, clamped to the observed [min, max] so the extreme
  /// quantiles never report values outside what was actually recorded
  /// (which also keeps the under/overflow buckets honest). 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double p90() const { return quantile(0.90); }
  [[nodiscard]] double p99() const { return quantile(0.99); }
  [[nodiscard]] double p999() const { return quantile(0.999); }

  /// Exact smallest sample; 0 when empty.
  [[nodiscard]] double min() const { return count_ ? min_seen_ : 0.0; }
  /// Exact largest sample; 0 when empty.
  [[nodiscard]] double max() const { return count_ ? max_seen_ : 0.0; }
  /// Exact sum of weighted samples (non-finite samples excluded).
  [[nodiscard]] double sum() const { return sum_; }
  /// sum()/count(); 0 when empty.
  [[nodiscard]] double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Number of interior buckets (excludes under/overflow).
  [[nodiscard]] std::size_t bucket_count() const { return counts_.size() - 2; }
  [[nodiscard]] std::uint64_t underflow() const { return counts_.front(); }
  [[nodiscard]] std::uint64_t overflow() const { return counts_.back(); }

  /// Lower bound of interior bucket i (i == bucket_count() gives the upper
  /// bound of the last interior bucket).
  [[nodiscard]] double bucket_lower(std::size_t i) const;
  [[nodiscard]] std::uint64_t bucket_value(std::size_t i) const {
    return counts_[i + 1];
  }

  /// Raw bucket vector including the under/overflow cells, for exact wire
  /// transfer between processes (runtime/wire.h). Pairs with from_raw.
  [[nodiscard]] const std::vector<std::uint64_t>& raw_counts() const {
    return counts_;
  }
  /// Reconstructs a histogram with the *default* geometry from raw parts
  /// captured on a peer with the same geometry. Throws CheckFailure when
  /// `counts` does not match the default bucket layout.
  static LogHistogram from_raw(std::vector<std::uint64_t> counts,
                               std::uint64_t count, double min_seen,
                               double max_seen, double sum);

 private:
  double min_value_ = 0.0;
  double log_min_ = 0.0;
  double inv_log_step_ = 0.0;
  double log_step_ = 0.0;
  std::vector<std::uint64_t> counts_;  // [underflow, interior..., overflow]
  std::uint64_t count_ = 0;
  double min_seen_ = 0.0;
  double max_seen_ = 0.0;
  double sum_ = 0.0;
};

}  // namespace aces
