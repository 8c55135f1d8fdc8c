// Threaded dataflow runtime — the repo's stand-in for the paper's SPC
// (Stream Processing Core), used for the calibration experiments.
//
// Real concurrency, hand-built messaging:
//  * one worker thread per processing node, hosting that node's PEs,
//  * lock-free SPSC rings as the data plane wherever the graph proves a
//    single producer thread, the annotated mutex channel for fan-in PEs
//    (runtime/sdo_channel.h picks per PE; docs/performance.md has the
//    protocol and the measured numbers),
//  * batched SDO delivery: sources publish up to `batch` SDOs per index
//    publish and node workers drain bursts of the same size,
//  * a source thread injecting SDOs per the stream arrival processes,
//  * advertisement mailboxes (atomics) as the control plane,
//  * the *same* control::NodeController as the simulator — tier 2 is
//    byte-identical across substrates, which is what calibration compares.
//
// Time: the runtime executes in *virtual seconds* paced by the wall clock
// through `time_scale` (virtual seconds per wall second). Processing charges
// virtual CPU against the share granted at the last control tick, so a node
// behaves like a processor-sharing CPU without burning host cycles; arrival
// gaps and control intervals are paced accordingly. time_scale = 5 runs a
// 30-virtual-second experiment in 6 wall seconds.
//
// Faults: the windows of RunSpec::faults are evaluated against virtual time
// and are the same every run, but the runtime is nondeterministic, so their
// consequences vary run to run. The mailbox control plane has no delay
// stage: an `advert_delay` clause's loss probability applies, its delay
// does not.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "common/rng.h"
#include "graph/processing_graph.h"
#include "metrics/run_report.h"
#include "opt/global_optimizer.h"
#include "pe/run_spec.h"
#include "workload/arrivals.h"

namespace aces::obs {
class ControlTraceRecorder;
class Registry;
class SpanTracer;
}  // namespace aces::obs

namespace aces::runtime {

struct RuntimeOptions : RunSpec {
  /// Virtual seconds per wall-clock second (>= 1 accelerates experiments).
  double time_scale = 5.0;
  /// One-way delivery latency (virtual seconds) injected by the message bus
  /// for SDOs crossing nodes. 0 delivers directly. Applies to the
  /// drop-on-full policies; Lock-Step's reservation handshake is always
  /// direct (a blocking send has no fire-and-forget leg to delay).
  Seconds network_latency = 0.0;
  /// Optional workload hook (same contract as sim::SimOptions): builds the
  /// arrival process for each stream; null uses make_arrival_process.
  std::function<std::unique_ptr<workload::ArrivalProcess>(
      StreamId, const graph::StreamDescriptor&, Rng)>
      arrival_factory;
  /// Optional control-plane telemetry sink (same contract as
  /// sim::SimOptions::trace): one obs::TickRecord per PE per control tick,
  /// written by the node threads. Not owned; null disables.
  obs::ControlTraceRecorder* trace = nullptr;
  /// Optional run registry for the data-plane event counters
  /// (runtime.channel.*, runtime.bus.*, runtime.source.*) and the
  /// `controller_tick` timer. Not owned; null disables — the hot-path cost
  /// of the disabled handles is a nullptr test. Snapshot it at any instant
  /// while the run is live.
  obs::Registry* counters = nullptr;
  /// Optional data-plane span tracer (same contract as
  /// sim::SimOptions::spans): samples SDOs at the source thread and follows
  /// them across node threads. The sampling *decisions* are deterministic
  /// per (seed, source PE, arrival index); the resulting timestamps are
  /// wall-paced virtual time and vary run to run like everything else in
  /// this substrate. Not owned; null disables (one pointer test per SDO).
  obs::SpanTracer* spans = nullptr;
  /// Max SDOs moved per channel operation: sources gather up to this many
  /// due arrivals into one try_push_n publish, and node workers drain
  /// bursts of the same size into a per-PE staging buffer. 1 restores
  /// strict per-SDO delivery. Batching amortizes synchronization, it never
  /// changes admission decisions — a batch accepts exactly the prefix a
  /// per-SDO loop would have (see docs/performance.md).
  std::size_t batch = 8;
  /// Overrides every PE input channel's capacity when > 0; 0 (default)
  /// uses each PE's graph buffer_capacity. A tuning knob for data-plane
  /// experiments — figure reproductions must leave it 0, since buffer
  /// bounds are model parameters (paper §III-D).
  std::size_t channel_capacity = 0;
  /// Pin node workers (and the source thread) to cores, worker i → core
  /// (i mod ncpu). Best-effort: failures are ignored. Keeps each SPSC
  /// ring's endpoints on stable cores so the cached-index scheme pays off.
  bool pin_threads = false;
};

/// Runs the graph on the threaded runtime and reports the same metrics the
/// simulator produces. Blocks for duration / time_scale wall seconds.
metrics::RunReport run_runtime(const graph::ProcessingGraph& graph,
                               const opt::AllocationPlan& plan,
                               const RuntimeOptions& options);

}  // namespace aces::runtime
