// Telemetry threaded through both substrates: tracing must observe a run
// without perturbing it (simulator is deterministic, so equality is exact)
// and the records must describe a coherent control trajectory.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "graph/topology_generator.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_summary.h"
#include "opt/global_optimizer.h"
#include "runtime/runtime_engine.h"
#include "sim/stream_simulation.h"

namespace aces::obs {
namespace {

graph::ProcessingGraph small_topology(std::uint64_t seed) {
  graph::TopologyParams params;
  params.num_nodes = 3;
  params.num_ingress = 3;
  params.num_intermediate = 6;
  params.num_egress = 3;
  return generate_topology(params, seed);
}

sim::SimOptions sim_options() {
  sim::SimOptions o;
  o.duration = 12.0;
  o.warmup = 2.0;
  o.seed = 7;
  return o;
}

/// Calls of the timer called `name` in `snap`; 0 when it is absent.
std::uint64_t timer_calls(const MetricsSnapshot& snap,
                          const std::string& name) {
  for (const TimerSample& t : snap.timers) {
    if (t.name == name) return t.calls;
  }
  return 0;
}

void expect_per_pe_time_monotone(const std::vector<TickRecord>& records) {
  std::map<std::uint32_t, double> last_time;
  for (const TickRecord& rec : records) {
    const auto it = last_time.find(rec.pe);
    if (it != last_time.end()) {
      EXPECT_GE(rec.time, it->second) << "pe " << rec.pe;
    }
    last_time[rec.pe] = rec.time;
  }
}

TEST(TraceIntegrationTest, SimulatorEmitsCoherentTrace) {
  const auto g = small_topology(11);
  const auto plan = opt::optimize(g);

  ControlTraceRecorder recorder;
  Registry registry;
  auto options = sim_options();
  options.trace = &recorder;
  options.counters = &registry;
  sim::simulate(g, plan, options);

  const auto records = recorder.snapshot();
  ASSERT_FALSE(records.empty());
  // ~ (duration/dt) ticks × num PEs; every PE must appear.
  std::map<std::uint32_t, std::size_t> per_pe;
  for (const TickRecord& rec : records) {
    EXPECT_GE(rec.time, 0.0);
    EXPECT_LE(rec.time, options.duration + options.dt);
    EXPECT_LT(rec.node, 3u);
    EXPECT_GE(rec.buffer_occupancy, 0.0);
    EXPECT_GE(rec.cpu_share, 0.0);
    EXPECT_LE(rec.cpu_share, 1.0);
    EXPECT_GE(rec.arrived_sdos, 0.0);
    EXPECT_GE(rec.processed_sdos, 0.0);
    ++per_pe[rec.pe];
  }
  EXPECT_EQ(per_pe.size(), g.pe_count());
  expect_per_pe_time_monotone(records);

  // The registry timed the node ticks.
  EXPECT_GT(timer_calls(registry.snapshot(), "controller_tick"), 0u);

  // The recorded trajectory is analyzable: a steadily-fed system settles.
  const auto summaries = summarize_trace(records);
  EXPECT_EQ(summaries.size(), g.pe_count());
  for (const PeTraceSummary& s : summaries) {
    EXPECT_GT(s.ticks, 0u);
    EXPECT_GE(s.occupancy_max, s.occupancy_min);
  }
}

TEST(TraceIntegrationTest, TracingDoesNotPerturbTheSimulation) {
  const auto g = small_topology(12);
  const auto plan = opt::optimize(g);

  const auto plain = sim::simulate(g, plan, sim_options());

  ControlTraceRecorder recorder;
  Registry registry;
  auto traced_options = sim_options();
  traced_options.trace = &recorder;
  traced_options.counters = &registry;
  const auto traced = sim::simulate(g, plan, traced_options);

  // The simulator is deterministic under a fixed seed; telemetry is
  // observation only, so the reports must match bit-for-bit.
  EXPECT_EQ(plain.measured_seconds, traced.measured_seconds);
  EXPECT_EQ(plain.weighted_throughput, traced.weighted_throughput);
  EXPECT_EQ(plain.output_rate, traced.output_rate);
  EXPECT_EQ(plain.latency.count(), traced.latency.count());
  EXPECT_EQ(plain.latency.mean(), traced.latency.mean());
  EXPECT_EQ(plain.internal_drops, traced.internal_drops);
  EXPECT_EQ(plain.ingress_drops, traced.ingress_drops);
  EXPECT_EQ(plain.sdos_processed, traced.sdos_processed);
  EXPECT_EQ(plain.cpu_utilization, traced.cpu_utilization);
  ASSERT_EQ(plain.per_pe.size(), traced.per_pe.size());
  for (std::size_t i = 0; i < plain.per_pe.size(); ++i) {
    EXPECT_EQ(plain.per_pe[i].arrived, traced.per_pe[i].arrived);
    EXPECT_EQ(plain.per_pe[i].processed, traced.per_pe[i].processed);
    EXPECT_EQ(plain.per_pe[i].emitted, traced.per_pe[i].emitted);
    EXPECT_EQ(plain.per_pe[i].dropped_input, traced.per_pe[i].dropped_input);
    EXPECT_EQ(plain.per_pe[i].cpu_seconds, traced.per_pe[i].cpu_seconds);
  }
  EXPECT_FALSE(recorder.empty());
}

TEST(TraceIntegrationTest, RuntimeEmitsTraceAndCounters) {
  const auto g = small_topology(13);
  const auto plan = opt::optimize(g);

  ControlTraceRecorder recorder;
  Registry counters;
  runtime::RuntimeOptions options;
  options.duration = 8.0;
  options.warmup = 2.0;
  options.time_scale = 8.0;  // ~1 wall second
  options.seed = 5;
  options.trace = &recorder;
  options.counters = &counters;
  const auto report = runtime::run_runtime(g, plan, options);
  EXPECT_GT(report.sdos_processed, 0u);

  // Node threads wrote records concurrently; per-PE order must still hold.
  const auto records = recorder.snapshot();
  ASSERT_FALSE(records.empty());
  expect_per_pe_time_monotone(records);
  for (const TickRecord& rec : records) {
    EXPECT_GE(rec.buffer_occupancy, 0.0);
    EXPECT_GE(rec.cpu_share, 0.0);
  }

  // The data plane ran, so the hot-path counters must have moved.
  const MetricsSnapshot snap = counters.snapshot();
  std::uint64_t injected = 0;
  std::uint64_t sends = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name == "runtime.source.inject") injected = value;
    if (name == "runtime.channel.send") sends = value;
  }
  EXPECT_GT(injected, 0u);
  EXPECT_GT(sends, 0u);

  EXPECT_GT(timer_calls(snap, "controller_tick"), 0u);
}

TEST(TraceIntegrationTest, EachControlPhaseIsTimedOnce) {
  const auto g = small_topology(14);
  const auto plan = opt::optimize(g);

  ControlTraceRecorder recorder;
  Registry registry;
  auto options = sim_options();
  options.trace = &recorder;
  options.counters = &registry;
  options.reoptimize_interval = 2.0;
  const auto report = sim::simulate(g, plan, options);

  // One controller_tick per node tick, one optimizer_solve per re-solve.
  std::set<std::pair<std::uint32_t, double>> node_ticks;
  for (const TickRecord& rec : recorder.snapshot()) {
    node_ticks.emplace(rec.node, rec.time);
  }
  const MetricsSnapshot snap = registry.snapshot();
  ASSERT_GT(report.reoptimizations, 0u);
  EXPECT_EQ(timer_calls(snap, "controller_tick"), node_ticks.size());
  EXPECT_EQ(timer_calls(snap, "optimizer_solve"), report.reoptimizations);

  // Control phases are run telemetry: no probe times them process-wide,
  // instrumented build or not.
  const MetricsSnapshot process = process_metrics().snapshot();
  EXPECT_EQ(timer_calls(process, "controller_tick"), 0u);
  EXPECT_EQ(timer_calls(process, "optimizer_solve"), 0u);
}

}  // namespace
}  // namespace aces::obs
