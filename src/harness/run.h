// One run on any of the three substrates.
//
// The discrete-event simulator, the threaded runtime and the distributed
// runtime each take their own options struct, and all three derive from
// RunSpec, so the horizon, control interval, seed, controller and fault
// schedule are described once. A Substrate holds one of the three structs
// and harness::run runs it: code that compares substrates (the CLI's
// commands, the calibration benches, the differential tests) is written
// once over a list of substrates.
#pragma once

#include <variant>

#include "graph/processing_graph.h"
#include "metrics/run_report.h"
#include "opt/global_optimizer.h"
#include "pe/run_spec.h"
#include "runtime/dist_options.h"
#include "runtime/runtime_engine.h"
#include "sim/stream_simulation.h"

namespace aces::harness {

/// A substrate and its options: the simulator, the threaded runtime or the
/// distributed runtime.
using Substrate = std::variant<sim::SimOptions, runtime::RuntimeOptions,
                               runtime::dist::DistOptions>;

/// The RunSpec the held options derive from.
RunSpec& run_spec(Substrate& substrate);
const RunSpec& run_spec(const Substrate& substrate);

/// Runs `graph` under `plan` on the substrate and returns its report, as
/// sim::simulate, runtime::run_runtime or dist::run_distributed would. A
/// distributed run fills `stats` when it is given; the other substrates
/// leave it untouched.
metrics::RunReport run(const graph::ProcessingGraph& graph,
                       const opt::AllocationPlan& plan,
                       const Substrate& substrate,
                       runtime::dist::DistStats* stats = nullptr);

}  // namespace aces::harness
