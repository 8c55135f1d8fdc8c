// Reproduces Figure 5: weighted throughput versus burstiness (the λ_s
// sweep) for the three systems — ACES, UDP, and Lock-Step — plus the
// SPC-vs-simulator calibration points the paper overlays on the figure.
//
// Burstiness is varied by scaling the mean sojourn time of both PE states
// ("the mean time the PEs spend in each of the two states before
// transition"); the stationary state mix, and hence the mean load, stays
// constant.
//
// Expected shape: weighted throughput declines with burstiness for all
// three systems; ACES declines least and leads except at the lowest
// burstiness levels, where the three are close.
#include <iostream>
#include <string>
#include <vector>

#include "harness/bench_json.h"
#include "harness/bench_options.h"
#include "harness/defaults.h"
#include "harness/experiment.h"
#include "harness/run.h"
#include "harness/table.h"
#include "obs/registry.h"

int main(int argc, char** argv) {
  using namespace aces;
  using control::FlowPolicy;

  const harness::BenchOptions bench =
      harness::parse_bench_options(argc, argv);

  std::cout << "=== Figure 5: weighted throughput vs burstiness (lambda_s "
               "sweep) ===\n"
            << "200 PEs / 80 nodes, B = 50; normalized by the tier-1 fluid "
               "bound\n"
            << "Paper shape: all decline with burstiness; ACES declines "
               "least; systems\nconverge at very low burstiness.\n\n";

  harness::ExperimentSpec spec;
  spec.topology = harness::scaled_topology();
  spec.sim = harness::default_sim_options();
  spec.seeds = {1, 2, 3};
  bench.apply(spec.sim.duration, spec.sim.warmup, spec.seeds);

  harness::BenchJsonWriter json("fig5_burstiness");
  harness::RunSummary work;  // deterministic totals over the main sweep
  harness::Table table({"sojourn scale", "ACES", "UDP", "Lock-Step"});
  for (const double burst : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    harness::ExperimentSpec cell = spec;
    cell.topology = harness::with_burstiness(spec.topology, burst);
    std::vector<std::string> row{harness::cell(burst, 2)};
    for (const FlowPolicy policy :
         {FlowPolicy::kAces, FlowPolicy::kUdp, FlowPolicy::kLockStep}) {
      const harness::WallTimer timer;
      const auto mean = run_experiment(cell, policy).mean;
      work.events_executed += mean.events_executed;
      work.sdos_processed += mean.sdos_processed;
      work.reoptimizations += mean.reoptimizations;
      json.add_run("sojourn" + harness::cell(burst, 2) + "/" +
                       to_string(policy),
                   timer.elapsed_ms(), mean.weighted_throughput,
                   mean.latency_p50, mean.latency_p99);
      row.push_back(harness::cell(mean.normalized_throughput(), 3));
    }
    table.add_row(row);
  }
  harness::print_table(table, bench.csv, std::cout);

  // Calibration overlay: 60 PEs / 10 nodes run on both substrates with the
  // same topology and plan (paper: "the figure also shows the results of
  // the calibration of the simulator to the SPC").
  std::cout << "\n--- Calibration points: simulator vs threaded runtime "
               "(60 PEs / 10 nodes) ---\n";
  harness::Table calib({"sojourn scale", "policy", "sim norm",
                        "runtime norm"});
  for (const double burst : {1.0, 4.0}) {
    const auto params =
        harness::with_burstiness(harness::calibration_topology(), burst);
    const auto g = graph::generate_topology(params, 1);
    const auto plan = opt::optimize(g);
    for (const FlowPolicy policy : {FlowPolicy::kAces, FlowPolicy::kUdp}) {
      RunSpec spec;
      spec.duration = 30.0;
      spec.warmup = 6.0;
      spec.seed = 17;
      spec.controller.policy = policy;
      sim::SimOptions so;
      static_cast<RunSpec&>(so) = spec;
      runtime::RuntimeOptions ro;
      static_cast<RunSpec&>(ro) = spec;
      ro.time_scale = 6.0;
      std::vector<std::string> row = {harness::cell(burst, 1),
                                      to_string(policy)};
      for (const harness::Substrate& substrate :
           {harness::Substrate(so), harness::Substrate(ro)}) {
        const harness::RunSummary run = harness::summarize(
            harness::run(g, plan, substrate), plan.weighted_throughput);
        row.push_back(harness::cell(run.normalized_throughput(), 3));
      }
      calib.add_row(row);
    }
  }
  harness::print_table(calib, bench.csv, std::cout);
  // Work totals cover the figure sweep only: the calibration overlay uses
  // the threaded runtime, whose counts are scheduling-dependent. Memory is
  // process-wide, so it is captured after everything ran.
  json.set_perf_work(work.events_executed, work.sdos_processed,
                     work.reoptimizations);
  json.set_perf_memory(
      static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0),
      obs::alloc_count());
  return json.write_file(bench.json) ? 0 : 1;
}
