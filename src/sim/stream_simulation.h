// Full-system simulation of a distributed stream processing system
// (paper §VI-A/B), driven by the discrete-event kernel in sim/simulator.h.
//
// Model:
//  * Sources emit SDOs into ingress PE buffers per their arrival process;
//    sources are never backpressured, so a full ingress buffer means data
//    loss at the system input (§III-D).
//  * Each PE serves its bounded input buffer one SDO at a time; the per-SDO
//    CPU cost follows the two-state Markov service model (§VI-B) and the
//    instantaneous speed is the CPU share granted by the node controller at
//    the last tick. Completions emit `selectivity` SDOs (credit-conserving
//    rounding) to every downstream PE (copy semantics, Fig. 2).
//  * Transport: deliveries and advertisements incur a fixed same-node
//    (0.2 ms) or cross-node (2 ms) latency. Under ACES/UDP a delivery into
//    a full buffer is dropped (wasted upstream work); under Lock-Step
//    senders reserve space and sleep when a downstream buffer is full
//    (min-flow), resuming when space frees.
//  * Every `dt`, each node's controller (control::NodeController) reruns CPU
//    and flow control; ACES advertisements propagate upstream with latency.
//
// Determinism: all randomness derives from the RunSpec seed; ties in event
// time resolve by schedule order.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "graph/processing_graph.h"
#include "metrics/run_report.h"
#include "metrics/timeseries.h"
#include "opt/global_optimizer.h"
#include "pe/run_spec.h"
#include "workload/arrivals.h"

namespace aces::obs {
class ControlTraceRecorder;
class Registry;
class SpanTracer;
}  // namespace aces::obs

namespace aces::sim {

/// A scheduled change to a stream's long-run offered rate (workload shift).
struct RateChange {
  Seconds at = 0.0;
  StreamId stream;
  double new_rate = 0.0;
};

/// A scheduled change to a node's CPU capacity (resource availability
/// shift, e.g. co-scheduled work arriving or leaving).
struct CapacityChange {
  Seconds at = 0.0;
  NodeId node;
  double new_capacity = 1.0;
};

/// A scheduled change of a PE's weight (paper §II: the meta scheduler may
/// re-prioritize jobs while they run). Affects the weighted-throughput
/// accounting immediately and the tier-1 plan at the next re-optimization.
struct WeightChange {
  Seconds at = 0.0;
  PeId pe;
  double new_weight = 1.0;
};

struct SimOptions : RunSpec {
  /// Stagger node ticks with random phases (the paper's algorithm does not
  /// require synchronized nodes); disable for lockstep-tick unit tests.
  bool randomize_tick_phase = true;
  /// Start every input buffer at this fraction of capacity, filled with
  /// age-zero SDOs — the "arbitrary starting point" of the paper's
  /// stability analysis (§V-E).
  double prefill_fraction = 0.0;
  /// Record per-PE occupancy/share trajectories (see timeseries()).
  bool record_timeseries = false;
  /// Tier-1 period: re-run the global optimization every this many seconds
  /// against the current stream rates and node capacities, and push the new
  /// targets to every node controller (paper §V: the first tier runs
  /// "periodically, to support changing workload and resource
  /// availability"). A node crash or restart in `faults` also triggers an
  /// immediate re-solve excluding the down nodes. 0 disables both.
  Seconds reoptimize_interval = 0.0;
  /// Scheduled workload shifts (sorted or not; applied at their times).
  std::vector<RateChange> rate_changes;
  /// Scheduled capacity shifts.
  std::vector<CapacityChange> capacity_changes;
  /// Scheduled priority shifts.
  std::vector<WeightChange> weight_changes;
  /// Optional workload hook: builds the arrival process for each stream
  /// (trace replay, custom distributions). Null uses
  /// workload::make_arrival_process on the stream descriptor. The Rng is
  /// the per-stream generator derived from `seed`.
  std::function<std::unique_ptr<workload::ArrivalProcess>(
      StreamId, const graph::StreamDescriptor&, Rng)>
      arrival_factory;
  /// Optional control-plane telemetry sink: one obs::TickRecord per PE per
  /// control tick, captured at the NodeController::tick() boundary. Not
  /// owned; must outlive the run. Null disables tracing (zero cost).
  obs::ControlTraceRecorder* trace = nullptr;
  /// Optional run registry: fault.* event counts and the
  /// `controller_tick` / `optimizer_solve` timers. Not owned; null
  /// disables (no clock reads).
  obs::Registry* counters = nullptr;
  /// Optional data-plane span tracer: samples SDOs at the sources and
  /// follows them hop by hop (per-PE wait/service, per-path end-to-end,
  /// flight recorder). Not owned; must outlive the run. Null disables —
  /// the per-SDO cost is then a single pointer test. Tracing never alters
  /// event order: traced and untraced runs produce identical RunReports.
  obs::SpanTracer* spans = nullptr;
};

/// Lifetime accounting for one PE (conservation analysis in tests), plus
/// its state at query time.
struct PeStats : metrics::PeAccounting {
  std::uint64_t in_buffer = 0;      ///< occupancy at query time
  bool busy = false;                ///< one SDO in service at query time
  /// Lock-Step: sleeping on a full downstream buffer at query time. A
  /// blocked PE whose downstream buffers all have free space is a lost
  /// wakeup — the liveness invariant the fault fuzzer checks.
  bool blocked = false;
  /// Lock-Step: in-flight reservations against this PE's buffer.
  int reserved = 0;
};

/// One simulated run. Construct, run(), collect the report; or drive
/// incrementally with run_until() and inspect state (tests do this).
class StreamSimulation {
 public:
  StreamSimulation(const graph::ProcessingGraph& graph,
                   const opt::AllocationPlan& plan, const SimOptions& options);
  ~StreamSimulation();
  StreamSimulation(const StreamSimulation&) = delete;
  StreamSimulation& operator=(const StreamSimulation&) = delete;

  /// Runs the full configured duration.
  void run();
  /// Advances simulated time to `t`.
  void run_until(Seconds t);

  /// Report over [warmup, now]; requires now > warmup.
  [[nodiscard]] metrics::RunReport report() const;

  [[nodiscard]] Seconds now() const;
  /// Introspection for tests.
  [[nodiscard]] std::size_t buffer_size(PeId id) const;
  [[nodiscard]] double cpu_share(PeId id) const;
  [[nodiscard]] double last_advertisement(PeId id) const;
  [[nodiscard]] std::uint64_t events_executed() const;
  /// Lifetime accounting for one PE.
  [[nodiscard]] PeStats pe_stats(PeId id) const;
  /// Recorded trajectories ("pe<j>.buffer", "pe<j>.share"); empty unless
  /// SimOptions::record_timeseries was set.
  [[nodiscard]] const metrics::TimeSeriesSet& timeseries() const;
  /// Number of tier-1 re-optimizations performed so far.
  [[nodiscard]] int reoptimizations() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience wrapper: construct, run, report.
metrics::RunReport simulate(const graph::ProcessingGraph& graph,
                            const opt::AllocationPlan& plan,
                            const SimOptions& options);

}  // namespace aces::sim
