// Experiment driver: topology → tier-1 plan → simulated run(s) → summary.
//
// Every bench reproducing a paper figure goes through this module so that
// the pipeline (generation, optimization, simulation, measurement) is
// identical across experiments and the benches contain only sweep logic.
#pragma once

#include <cstdint>
#include <vector>

#include "control/config.h"
#include "graph/topology_generator.h"
#include "metrics/run_report.h"
#include "opt/global_optimizer.h"
#include "sim/stream_simulation.h"

namespace aces::harness {

/// Everything needed to reproduce one experimental cell.
struct ExperimentSpec {
  graph::TopologyParams topology;
  sim::SimOptions sim;
  /// One full run (fresh topology + fresh workload randomness) per seed;
  /// results are averaged, matching the paper's "multiple randomly generated
  /// topologies ... averaged over the multiple runs".
  std::vector<std::uint64_t> seeds = {1, 2, 3};
};

/// Scalar summary of one run (or the mean of several).
struct RunSummary {
  double weighted_throughput = 0.0;
  /// Tier-1 fluid-model optimum for the same topology: an upper reference
  /// for weighted throughput.
  double fluid_bound = 0.0;
  double latency_mean = 0.0;
  double latency_std = 0.0;
  double latency_p50 = 0.0;
  double latency_p99 = 0.0;
  double ingress_drops_per_sec = 0.0;
  double internal_drops_per_sec = 0.0;
  double cpu_utilization = 0.0;
  double buffer_fill_mean = 0.0;
  double output_rate = 0.0;

  /// Deterministic work totals (perf trajectory): bit-stable for a fixed
  /// (topology, seed, options), so bench-diff hard-fails on any change.
  /// average() SUMS these across seeds — a total over the cell, not a mean
  /// — keeping the aggregate integral and exactly reproducible.
  std::uint64_t events_executed = 0;
  std::uint64_t sdos_processed = 0;
  std::uint64_t reoptimizations = 0;

  /// Memory trajectory. peak_rss_mb is the process high-water mark after
  /// the run (monotonic across runs in one process — comparable between
  /// processes, not between runs of one bench); average() takes the max.
  /// alloc_count is the operator-new delta across the run, summed like the
  /// work totals; 0 unless the build sets ACES_PERF_INSTRUMENT. Both are
  /// environment-dependent, so reports treat them as soft fields.
  double peak_rss_mb = 0.0;
  std::uint64_t alloc_count = 0;

  /// Weighted throughput normalized by the fluid bound, in [0, ~1].
  [[nodiscard]] double normalized_throughput() const {
    return fluid_bound > 0.0 ? weighted_throughput / fluid_bound : 0.0;
  }
};

struct ExperimentResult {
  std::vector<RunSummary> runs;  ///< per seed
  RunSummary mean;               ///< field-wise average over runs
};

/// Collapses a RunReport + plan into a RunSummary.
RunSummary summarize(const metrics::RunReport& report, double fluid_bound);

/// Field-wise mean of summaries.
RunSummary average(const std::vector<RunSummary>& runs);

/// Runs the spec under `policy`: for each seed, generates the topology,
/// optimizes, simulates, summarizes.
ExperimentResult run_experiment(const ExperimentSpec& spec,
                                control::FlowPolicy policy);

/// Single run on a pre-built graph + plan (used by calibration and examples).
RunSummary run_single(const graph::ProcessingGraph& graph,
                      const opt::AllocationPlan& plan,
                      const sim::SimOptions& sim_options);

}  // namespace aces::harness
