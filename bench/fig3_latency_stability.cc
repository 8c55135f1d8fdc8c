// Reproduces Figure 3: mean and first standard deviation of end-to-end
// latency, ACES vs Lock-Step.
//
// Paper topology: 200 PEs / 80 nodes, §VI-C defaults, averaged over random
// topologies. Expected shape: ACES has both a lower mean latency and a much
// smaller standard deviation than Lock-Step across the operating range
// (paper §VII: "the standard deviation of the mean end-to-end latency of
// ACES was much smaller than the Lock-Step approach").
#include <iostream>

#include "harness/bench_json.h"
#include "harness/bench_options.h"
#include "harness/defaults.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "obs/registry.h"

int main(int argc, char** argv) {
  using namespace aces;
  using control::FlowPolicy;

  const harness::BenchOptions bench =
      harness::parse_bench_options(argc, argv);

  std::cout << "=== Figure 3: end-to-end latency, mean +/- stddev ===\n"
            << "200 PEs / 80 nodes, B = 50, b0 = B/2, burstiness sweep\n"
            << "Paper shape: ACES mean and stddev both well below "
               "Lock-Step.\n\n";

  harness::ExperimentSpec spec;
  spec.topology = harness::scaled_topology();
  spec.sim = harness::default_sim_options();
  spec.seeds = {1, 2, 3};
  bench.apply(spec.sim.duration, spec.sim.warmup, spec.seeds);

  harness::BenchJsonWriter json("fig3_latency_stability");
  harness::RunSummary work;  // deterministic totals over the whole bench
  harness::Table table({"burstiness", "policy", "lat mean ms", "lat std ms",
                        "lat p99 ms", "wtput"});
  for (const double burst : {1.0, 2.0, 4.0}) {
    harness::ExperimentSpec cell = spec;
    cell.topology = harness::with_burstiness(spec.topology, burst);
    for (const FlowPolicy policy :
         {FlowPolicy::kAces, FlowPolicy::kLockStep}) {
      const harness::WallTimer timer;
      const auto mean = run_experiment(cell, policy).mean;
      work.events_executed += mean.events_executed;
      work.sdos_processed += mean.sdos_processed;
      work.reoptimizations += mean.reoptimizations;
      json.add_run("burst" + harness::cell(burst, 1) + "/" +
                       to_string(policy),
                   timer.elapsed_ms(), mean.weighted_throughput,
                   mean.latency_p50, mean.latency_p99);
      table.add_row({harness::cell(burst, 1), to_string(policy),
                     harness::cell(mean.latency_mean * 1e3, 1),
                     harness::cell(mean.latency_std * 1e3, 1),
                     harness::cell(mean.latency_p99 * 1e3, 1),
                     harness::cell(mean.weighted_throughput, 0)});
    }
  }
  harness::print_table(table, bench.csv, std::cout);
  json.set_perf_work(work.events_executed, work.sdos_processed,
                     work.reoptimizations);
  json.set_perf_memory(
      static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0),
      obs::alloc_count());
  return json.write_file(bench.json) ? 0 : 1;
}
