// Machine-readable perf output for the bench/ targets.
//
// Every figure bench can emit a BENCH_*.json document (--json=FILE via
// BenchOptions) with one record per experimental run: label, wall ms, and
// weighted throughput. The documents share the schema described in
// docs/benchmarking.md, so a CI job or a plotting script can track the
// perf trajectory (runs/sec, per-run wall ms) across commits without
// scraping tables.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace aces::obs {
struct MetricsSnapshot;
}  // namespace aces::obs

namespace aces::harness {

/// %.17g round-trips doubles exactly, so identical results serialize to
/// identical bytes — the property the determinism tests lean on.
std::string num(double v);

/// `s` escaped for use inside a JSON string.
std::string escape_json(const std::string& s);

/// Writes the `"stages"` (timers: calls, ns, ns_per_call) and `"events"`
/// (counters) members of a `perf` block, each preceded by a comma and
/// omitted when none of its entries fired.
void write_probe_json(std::ostream& os, const obs::MetricsSnapshot& snapshot);

/// Collects per-run perf records and writes one BENCH_*.json document.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench_name);

  /// Records one run. `weighted_throughput` < 0 means "not applicable"
  /// (micro benches); the field is then omitted. Same convention for the
  /// optional end-to-end latency percentiles (seconds).
  void add_run(const std::string& label, double wall_ms,
               double weighted_throughput = -1.0, double latency_p50 = -1.0,
               double latency_p99 = -1.0);

  [[nodiscard]] std::size_t runs() const { return runs_.size(); }

  /// Deterministic work totals over the whole bench, summed across runs.
  /// Setting them turns on the document's "perf" block. These are
  /// bit-stable for a fixed workload, so `aces bench-diff` hard-fails on
  /// any change — a silent behaviour change, not noise.
  void set_perf_work(std::uint64_t events_executed,
                     std::uint64_t sdos_processed,
                     std::uint64_t reoptimizations);

  /// Memory-trajectory fields for the "perf" block: process peak RSS (MB)
  /// and the operator-new count (0 unless ACES_PERF_INSTRUMENT). Both are
  /// environment-dependent, so bench-diff treats them as soft fields.
  void set_perf_memory(double peak_rss_mb, std::uint64_t alloc_count);

  /// Serializes {bench, runs, total_wall_ms, runs_per_sec, per_run[],
  /// weighted_throughput{mean,min,max}}.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_json() to `path`; returns false (and prints to stderr) on
  /// I/O failure. No-op returning true when `path` is empty.
  bool write_file(const std::string& path) const;

 private:
  struct Run {
    std::string label;
    double wall_ms = 0.0;
    double weighted_throughput = -1.0;
    double latency_p50 = -1.0;  ///< seconds; < 0 omits the field
    double latency_p99 = -1.0;  ///< seconds; < 0 omits the field
  };
  std::string name_;
  std::vector<Run> runs_;
  bool has_perf_ = false;
  std::uint64_t events_executed_ = 0;
  std::uint64_t sdos_processed_ = 0;
  std::uint64_t reoptimizations_ = 0;
  double peak_rss_mb_ = 0.0;
  std::uint64_t alloc_count_ = 0;
};

/// Wall-clock stopwatch for bench loops.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace aces::harness
