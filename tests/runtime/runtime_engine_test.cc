// The threaded runtime is wall-clock driven and inherently nondeterministic;
// these tests assert coarse invariants (liveness, accounting sanity, policy
// semantics), not exact numbers, and keep runs to ~1-2 wall seconds.
#include "runtime/runtime_engine.h"

#include <atomic>

#include <gtest/gtest.h>

#include "common/check.h"
#include "graph/topology_generator.h"
#include "opt/global_optimizer.h"

namespace aces::runtime {
namespace {

using control::FlowPolicy;

graph::ProcessingGraph small_topology(std::uint64_t seed, int buffer = 50) {
  graph::TopologyParams params;
  params.num_nodes = 3;
  params.num_ingress = 3;
  params.num_intermediate = 6;
  params.num_egress = 3;
  params.buffer_capacity = buffer;
  return generate_topology(params, seed);
}

RuntimeOptions quick(FlowPolicy policy) {
  RuntimeOptions o;
  o.duration = 10.0;
  o.warmup = 2.0;
  o.dt = 0.1;
  o.time_scale = 8.0;  // ~1.2 wall seconds
  o.controller.policy = policy;
  return o;
}

TEST(RuntimeEngineTest, ProducesOutputUnderEveryPolicy) {
  const auto g = small_topology(1);
  const auto plan = opt::optimize(g);
  for (FlowPolicy policy :
       {FlowPolicy::kAces, FlowPolicy::kUdp, FlowPolicy::kLockStep}) {
    const auto report = run_runtime(g, plan, quick(policy));
    EXPECT_GT(report.weighted_throughput, 0.0) << control::to_string(policy);
    EXPECT_GT(report.sdos_processed, 0u);
    EXPECT_GT(report.latency.count(), 0u);
  }
}

TEST(RuntimeEngineTest, ThroughputIsInTheRightBallpark) {
  // Virtual-time pacing should deliver a weighted throughput within a loose
  // factor of the fluid bound (this is the calibration property, coarsely).
  const auto g = small_topology(2);
  const auto plan = opt::optimize(g);
  const auto report = run_runtime(g, plan, quick(FlowPolicy::kAces));
  EXPECT_GT(report.weighted_throughput, plan.weighted_throughput * 0.3);
  EXPECT_LT(report.weighted_throughput, plan.weighted_throughput * 1.5);
}

TEST(RuntimeEngineTest, LatencyIsPositiveAndFinite) {
  const auto g = small_topology(3);
  const auto plan = opt::optimize(g);
  const auto report = run_runtime(g, plan, quick(FlowPolicy::kAces));
  EXPECT_GT(report.latency.mean(), 0.0);
  EXPECT_LT(report.latency.mean(), 30.0);  // bounded by run duration
}

TEST(RuntimeEngineTest, LockStepDoesNotDropInternally) {
  const auto g = small_topology(4, /*buffer=*/5);
  const auto plan = opt::optimize(g);
  const auto report = run_runtime(g, plan, quick(FlowPolicy::kLockStep));
  EXPECT_EQ(report.internal_drops, 0u);
}

TEST(RuntimeEngineTest, UtilizationIsPhysical) {
  const auto g = small_topology(5);
  const auto plan = opt::optimize(g);
  const auto report = run_runtime(g, plan, quick(FlowPolicy::kAces));
  EXPECT_GT(report.cpu_utilization, 0.0);
  EXPECT_LE(report.cpu_utilization, 1.05);  // wall-clock jitter tolerance
}

TEST(RuntimeEngineTest, WarmupShrinksMeasurementWindow) {
  const auto g = small_topology(6);
  const auto plan = opt::optimize(g);
  RuntimeOptions o = quick(FlowPolicy::kAces);
  o.warmup = 5.0;
  const auto report = run_runtime(g, plan, o);
  EXPECT_NEAR(report.measured_seconds, 5.0, 1e-9);
}

TEST(RuntimeEngineTest, OptionValidation) {
  const auto g = small_topology(7);
  const auto plan = opt::optimize(g);
  RuntimeOptions o = quick(FlowPolicy::kAces);
  o.warmup = o.duration;
  EXPECT_THROW(run_runtime(g, plan, o), CheckFailure);
  o = quick(FlowPolicy::kAces);
  o.dt = 0.0;
  EXPECT_THROW(run_runtime(g, plan, o), CheckFailure);
  o = quick(FlowPolicy::kAces);
  o.time_scale = 0.0;
  EXPECT_THROW(run_runtime(g, plan, o), CheckFailure);
}

TEST(RuntimeEngineTest, ThresholdPolicyRunsEndToEnd) {
  const auto g = small_topology(9);
  const auto plan = opt::optimize(g);
  const auto report = run_runtime(g, plan, quick(FlowPolicy::kThreshold));
  EXPECT_GT(report.weighted_throughput, 0.0);
}

TEST(RuntimeEngineTest, NetworkLatencyThroughMessageBus) {
  const auto g = small_topology(10);
  const auto plan = opt::optimize(g);
  RuntimeOptions o = quick(FlowPolicy::kAces);
  o.network_latency = 0.05;  // 50 ms virtual per cross-node hop
  const auto delayed = run_runtime(g, plan, o);
  EXPECT_GT(delayed.weighted_throughput, 0.0);
  o.network_latency = 0.0;
  const auto direct = run_runtime(g, plan, o);
  // Injected latency must show up in end-to-end latency (paths cross nodes
  // at least once). Loose factor: the runtime is nondeterministic.
  EXPECT_GT(delayed.latency.mean(), direct.latency.mean());
}

TEST(RuntimeEngineTest, ShutdownNeverPostsToAStoppedBus) {
  // A node thread past its stop check can still complete a cross-node SDO
  // and post it to the bus. Many short runs make that window likely; a post
  // to a stopped bus throws on the node thread and terminates the process.
  const auto g = small_topology(10);
  const auto plan = opt::optimize(g);
  RuntimeOptions o = quick(FlowPolicy::kAces);
  o.duration = 2.0;
  o.warmup = 0.5;
  o.time_scale = 100.0;  // ~20 ms of wall time per run
  o.network_latency = 0.05;
  std::uint64_t processed = 0;
  for (int run = 0; run < 100; ++run) {
    processed += run_runtime(g, plan, o).sdos_processed;
  }
  EXPECT_GT(processed, 0u);
}

TEST(RuntimeEngineTest, ArrivalFactoryHookHonoured) {
  const auto g = small_topology(11);
  const auto plan = opt::optimize(g);
  RuntimeOptions o = quick(FlowPolicy::kAces);
  std::atomic<int> calls{0};
  o.arrival_factory = [&calls](StreamId, const graph::StreamDescriptor& sd,
                               Rng) {
    ++calls;
    return std::make_unique<workload::CbrArrivals>(sd.mean_rate);
  };
  const auto report = run_runtime(g, plan, o);
  EXPECT_EQ(calls.load(), static_cast<int>(g.stream_count()));
  EXPECT_GT(report.weighted_throughput, 0.0);
}

TEST(RuntimeEngineTest, PerPeAccountingConsistent) {
  const auto g = small_topology(12);
  const auto plan = opt::optimize(g);
  const auto report = run_runtime(g, plan, quick(FlowPolicy::kAces));
  ASSERT_EQ(report.per_pe.size(), g.pe_count());
  std::uint64_t egress_emitted = 0;
  for (PeId id : g.all_pes()) {
    const auto& acc = report.per_pe[id.value()];
    // A PE cannot process more than it accepted.
    EXPECT_LE(acc.processed, acc.arrived) << id;
    if (g.pe(id).kind == graph::PeKind::kEgress)
      egress_emitted += acc.emitted;
  }
  // Egress emissions are exactly the system outputs (over the full run,
  // which includes warm-up, so >= the measured-window count).
  std::uint64_t measured_outputs = 0;
  for (auto c : report.egress_outputs) measured_outputs += c;
  EXPECT_GE(egress_emitted, measured_outputs);
  EXPECT_GT(egress_emitted, 0u);
}

TEST(RuntimeEngineTest, EgressAccountingMatchesTopology) {
  const auto g = small_topology(8);
  const auto plan = opt::optimize(g);
  const auto report = run_runtime(g, plan, quick(FlowPolicy::kAces));
  std::size_t egress = 0;
  for (PeId id : g.all_pes())
    egress += g.pe(id).kind == graph::PeKind::kEgress;
  EXPECT_EQ(report.egress_outputs.size(), egress);
  std::uint64_t total = 0;
  for (auto c : report.egress_outputs) total += c;
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace aces::runtime
