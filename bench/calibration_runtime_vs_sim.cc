// Reproduces the paper's calibration methodology (§VI-C): run identical 60
// PE / 10 node topologies on the discrete-event simulator and on the
// threaded runtime (our SPC stand-in) and compare the headline metrics.
//
// "Experiments were run on topologies consisting of 60 PEs running on 10
//  nodes in the SPC and the C-SIM simulator. This was done to calibrate the
//  simulator to the SPC."
//
// Expected: weighted throughput agrees within a modest relative error for
// every policy; latency agrees in order of magnitude (the runtime adds
// wall-clock scheduling jitter the DES does not model).
#include <cmath>
#include <iostream>

#include "harness/bench_json.h"
#include "harness/bench_options.h"
#include "harness/defaults.h"
#include "harness/experiment.h"
#include "harness/run.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace aces;
  using control::FlowPolicy;

  const harness::BenchOptions bench =
      harness::parse_bench_options(argc, argv);

  std::cout << "=== Calibration: threaded runtime (SPC stand-in) vs "
               "discrete-event simulator ===\n"
            << "60 PEs / 10 nodes, identical topology, plan, and controller "
               "configuration\n\n";

  harness::BenchJsonWriter json("calibration_runtime_vs_sim");
  harness::Table table({"seed", "policy", "sim wtput", "rt wtput",
                        "rel err %", "sim lat ms", "rt lat ms"});
  double worst_rel_err = 0.0;
  for (const std::uint64_t seed : {1, 2}) {
    const auto g =
        graph::generate_topology(harness::calibration_topology(), seed);
    const auto plan = opt::optimize(g);
    for (const FlowPolicy policy :
         {FlowPolicy::kAces, FlowPolicy::kUdp, FlowPolicy::kLockStep}) {
      RunSpec spec;
      spec.duration = 30.0;
      spec.warmup = 6.0;
      spec.seed = seed + 100;
      spec.controller.policy = policy;
      sim::SimOptions so;
      static_cast<RunSpec&>(so) = spec;
      runtime::RuntimeOptions ro;
      static_cast<RunSpec&>(ro) = spec;
      ro.time_scale = 6.0;
      const auto calibrate = [&](const harness::Substrate& substrate,
                                 const char* name) {
        const harness::WallTimer timer;
        const harness::RunSummary run = harness::summarize(
            harness::run(g, plan, substrate), plan.weighted_throughput);
        json.add_run("s" + std::to_string(seed) + "/" + to_string(policy) +
                         "/" + name,
                     timer.elapsed_ms(), run.weighted_throughput,
                     run.latency_p50, run.latency_p99);
        return run;
      };
      const harness::RunSummary sim_run = calibrate(so, "sim");
      const harness::RunSummary rt_run = calibrate(ro, "runtime");

      const double rel_err =
          100.0 *
          std::abs(rt_run.weighted_throughput - sim_run.weighted_throughput) /
          sim_run.weighted_throughput;
      worst_rel_err = std::max(worst_rel_err, rel_err);
      table.add_row({std::to_string(seed), to_string(policy),
                     harness::cell(sim_run.weighted_throughput, 0),
                     harness::cell(rt_run.weighted_throughput, 0),
                     harness::cell(rel_err, 1),
                     harness::cell(sim_run.latency_mean * 1e3, 1),
                     harness::cell(rt_run.latency_mean * 1e3, 1)});
    }
  }
  harness::print_table(table, bench.csv, std::cout);
  std::cout << "\nworst relative throughput error: "
            << harness::cell(worst_rel_err, 1) << "%\n";
  return json.write_file(bench.json) ? 0 : 1;
}
