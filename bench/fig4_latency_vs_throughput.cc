// Reproduces Figure 4: mean latency versus weighted throughput for ACES and
// Lock-Step on the 200 PE / 80 node simulator topology.
//
// "The variation in latency and weighted throughput was accomplished by
//  altering the input buffer size (B) of the PEs."
//
// Expected shape: both curves climb in throughput as B grows; at equal
// weighted throughput ACES sits at a fraction of Lock-Step's latency ("as
// little as a third"), and in the limit of small buffers ACES holds >20%
// more weighted throughput.
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

  std::cout << "=== Figure 4: mean latency vs weighted throughput "
               "(parametric in buffer size B) ===\n"
            << "200 PEs / 80 nodes, burstiness x2, seeds averaged\n"
            << "Paper shape: for the same weighted throughput ACES has the "
               "lower latency;\nACES >20% more throughput at small B.\n\n";

  harness::ExperimentSpec spec;
  spec.topology = harness::with_burstiness(harness::scaled_topology(), 2.0);
  spec.sim = harness::default_sim_options();
  spec.seeds = {1, 2, 3};
  bench.apply(spec.sim.duration, spec.sim.warmup, spec.seeds);

  harness::BenchJsonWriter json("fig4_latency_vs_throughput");
  harness::RunSummary work;  // deterministic totals over the whole bench
  harness::Table table({"B", "policy", "wtput", "wtput/fluid",
                        "lat mean ms", "lat std ms"});
  for (const int buffer : {5, 10, 15, 25, 50, 100, 200}) {
    harness::ExperimentSpec cell = spec;
    cell.topology = harness::with_buffer_size(spec.topology, buffer);
    for (const FlowPolicy policy :
         {FlowPolicy::kAces, FlowPolicy::kLockStep}) {
      const harness::WallTimer timer;
      const auto mean = run_experiment(cell, policy).mean;
      work.events_executed += mean.events_executed;
      work.sdos_processed += mean.sdos_processed;
      work.reoptimizations += mean.reoptimizations;
      json.add_run("B" + std::to_string(buffer) + "/" + to_string(policy),
                   timer.elapsed_ms(), mean.weighted_throughput,
                   mean.latency_p50, mean.latency_p99);
      table.add_row({std::to_string(buffer), to_string(policy),
                     harness::cell(mean.weighted_throughput, 0),
                     harness::cell(mean.normalized_throughput(), 3),
                     harness::cell(mean.latency_mean * 1e3, 1),
                     harness::cell(mean.latency_std * 1e3, 1)});
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
