#include "harness/experiment.h"

#include <algorithm>

#include "common/check.h"
#include "obs/registry.h"

namespace aces::harness {

RunSummary summarize(const metrics::RunReport& report, double fluid_bound) {
  RunSummary s;
  s.weighted_throughput = report.weighted_throughput;
  s.fluid_bound = fluid_bound;
  s.latency_mean = report.latency.mean();
  s.latency_std = report.latency.stddev();
  s.latency_p50 = report.latency_histogram.median();
  s.latency_p99 = report.latency_histogram.p99();
  s.ingress_drops_per_sec =
      static_cast<double>(report.ingress_drops) / report.measured_seconds;
  s.internal_drops_per_sec =
      static_cast<double>(report.internal_drops) / report.measured_seconds;
  s.cpu_utilization = report.cpu_utilization;
  s.buffer_fill_mean = report.buffer_fill.mean();
  s.output_rate = report.output_rate;
  s.events_executed = report.events_executed;
  s.sdos_processed = report.sdos_processed;
  s.reoptimizations = report.reoptimizations;
  return s;
}

RunSummary average(const std::vector<RunSummary>& runs) {
  ACES_CHECK_MSG(!runs.empty(), "cannot average zero runs");
  RunSummary mean;
  const double n = static_cast<double>(runs.size());
  for (const RunSummary& r : runs) {
    mean.weighted_throughput += r.weighted_throughput / n;
    mean.fluid_bound += r.fluid_bound / n;
    mean.latency_mean += r.latency_mean / n;
    mean.latency_std += r.latency_std / n;
    mean.latency_p50 += r.latency_p50 / n;
    mean.latency_p99 += r.latency_p99 / n;
    mean.ingress_drops_per_sec += r.ingress_drops_per_sec / n;
    mean.internal_drops_per_sec += r.internal_drops_per_sec / n;
    mean.cpu_utilization += r.cpu_utilization / n;
    mean.buffer_fill_mean += r.buffer_fill_mean / n;
    mean.output_rate += r.output_rate / n;
    // Work totals aggregate by sum (exact), RSS by max (high-water mark).
    mean.events_executed += r.events_executed;
    mean.sdos_processed += r.sdos_processed;
    mean.reoptimizations += r.reoptimizations;
    mean.alloc_count += r.alloc_count;
    mean.peak_rss_mb = std::max(mean.peak_rss_mb, r.peak_rss_mb);
  }
  return mean;
}

RunSummary run_single(const graph::ProcessingGraph& graph,
                      const opt::AllocationPlan& plan,
                      const sim::SimOptions& sim_options) {
  const std::uint64_t allocs_before = obs::alloc_count();
  const metrics::RunReport report = sim::simulate(graph, plan, sim_options);
  RunSummary s = summarize(report, plan.weighted_throughput);
  s.alloc_count = obs::alloc_count() - allocs_before;
  s.peak_rss_mb =
      static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0);
  return s;
}

ExperimentResult run_experiment(const ExperimentSpec& spec,
                                control::FlowPolicy policy) {
  ACES_CHECK_MSG(!spec.seeds.empty(), "experiment needs at least one seed");
  ExperimentResult result;
  for (const std::uint64_t seed : spec.seeds) {
    const graph::ProcessingGraph g = generate_topology(spec.topology, seed);
    const opt::AllocationPlan plan = opt::optimize(g);
    sim::SimOptions sim_options = spec.sim;
    sim_options.controller.policy = policy;
    sim_options.seed = seed * 0x9E3779B9ULL + 17;
    result.runs.push_back(run_single(g, plan, sim_options));
  }
  result.mean = average(result.runs);
  return result;
}

}  // namespace aces::harness
