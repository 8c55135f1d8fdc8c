#include "common/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace aces {

LogHistogram::LogHistogram(double min_value, double max_value,
                           int buckets_per_decade)
    : min_value_(min_value) {
  // Validate BEFORE deriving: log10 of a non-positive min_value is NaN/-inf
  // and previously flowed into log_min_ in the init list, ahead of this
  // check ever firing.
  ACES_CHECK(min_value > 0.0 && max_value > min_value);
  ACES_CHECK(buckets_per_decade > 0);
  log_min_ = std::log10(min_value);
  log_step_ = 1.0 / buckets_per_decade;
  inv_log_step_ = buckets_per_decade;
  const double decades = std::log10(max_value) - log_min_;
  const auto interior =
      static_cast<std::size_t>(std::ceil(decades * buckets_per_decade));
  counts_.assign(interior + 2, 0);
}

std::size_t LogHistogram::index_of(double value) const {
  if (!(value > 0.0) || value < min_value_) return 0;
  const double pos = (std::log10(value) - log_min_) * inv_log_step_;
  // Guard the top bucket: +inf (and any value past the configured span)
  // must land in overflow *before* the size_t cast — casting a double
  // that exceeds the integer range is undefined behaviour.
  if (!(pos < static_cast<double>(bucket_count()))) return counts_.size() - 1;
  return static_cast<std::size_t>(pos) + 1;
}

void LogHistogram::add(double value, std::uint64_t weight) {
  counts_[index_of(value)] += weight;
  if (std::isfinite(value)) {
    if (count_ == 0) {
      min_seen_ = max_seen_ = value;
    } else {
      min_seen_ = std::min(min_seen_, value);
      max_seen_ = std::max(max_seen_, value);
    }
    sum_ += value * static_cast<double>(weight);
  } else if (count_ == 0) {
    min_seen_ = max_seen_ = 0.0;
  }
  count_ += weight;
}

void LogHistogram::merge(const LogHistogram& other) {
  ACES_CHECK_MSG(counts_.size() == other.counts_.size() &&
                     min_value_ == other.min_value_,
                 "merging histograms with different geometry");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_seen_ = other.min_seen_;
      max_seen_ = other.max_seen_;
    } else {
      min_seen_ = std::min(min_seen_, other.min_seen_);
      max_seen_ = std::max(max_seen_, other.max_seen_);
    }
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

LogHistogram LogHistogram::from_raw(std::vector<std::uint64_t> counts,
                                    std::uint64_t count, double min_seen,
                                    double max_seen, double sum) {
  LogHistogram h;
  ACES_CHECK_MSG(counts.size() == h.counts_.size(),
                 "raw histogram parts do not match the default geometry");
  h.counts_ = std::move(counts);
  h.count_ = count;
  h.min_seen_ = min_seen;
  h.max_seen_ = max_seen;
  h.sum_ = sum;
  return h;
}

void LogHistogram::reset() {
  for (auto& c : counts_) c = 0;
  count_ = 0;
  min_seen_ = max_seen_ = 0.0;
  sum_ = 0.0;
}

double LogHistogram::bucket_lower(std::size_t i) const {
  return std::pow(10.0, log_min_ + static_cast<double>(i) * log_step_);
}

double LogHistogram::quantile(double q) const {
  ACES_CHECK(q >= 0.0 && q <= 1.0);
  if (count_ == 0) return 0.0;
  // Nearest-rank: the q-quantile is the ceil(q·N)-th smallest sample.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  const auto clamp = [this](double v) {
    return std::clamp(v, min_seen_, max_seen_);
  };
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      if (i == 0) return clamp(min_value_);  // underflow bucket
      // Overflow bucket: the exact maximum is tracked, report it rather
      // than the last boundary (which under-reports arbitrarily badly).
      if (i == counts_.size() - 1) return clamp(max_seen_);
      // Geometric midpoint of interior bucket i-1.
      const double lo = bucket_lower(i - 1);
      const double hi = bucket_lower(i);
      return clamp(std::sqrt(lo * hi));
    }
  }
  return clamp(max_seen_);
}

}  // namespace aces
