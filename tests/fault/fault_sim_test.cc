// Fault injection end-to-end in the discrete-event simulator: crashes
// halt and drain a node and the system recovers; fault schedules are
// deterministic (bit-identical reports under the same seed + spec); the
// degradation machinery (staleness clamp, tier-1 exclusion re-solve)
// retains more weighted throughput than the no-control baseline.
#include <gtest/gtest.h>

#include <string>

#include "fault/fault_spec.h"
#include "graph/topology_generator.h"
#include "metrics/report_fingerprint.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "opt/global_optimizer.h"
#include "sim/stream_simulation.h"

namespace aces::sim {
namespace {

using control::FlowPolicy;

/// Single chain ingress → middle → egress, one PE per node, so crashing
/// the middle node cuts the only path (same shape as outage_test.cc).
struct Chain {
  graph::ProcessingGraph g;
  PeId ingress, middle, egress;

  Chain() {
    const NodeId n0 = g.add_node();
    const NodeId n1 = g.add_node();
    const NodeId n2 = g.add_node();
    const StreamId s = g.add_stream({100.0, 0.0, "feed"});
    graph::PeDescriptor d;
    d.kind = graph::PeKind::kIngress;
    d.node = n0;
    d.input_stream = s;
    ingress = g.add_pe(d);
    d = {};
    d.kind = graph::PeKind::kIntermediate;
    d.node = n1;
    middle = g.add_pe(d);
    d = {};
    d.kind = graph::PeKind::kEgress;
    d.node = n2;
    egress = g.add_pe(d);
    g.add_edge(ingress, middle);
    g.add_edge(middle, egress);
  }
};

SimOptions base_options(FlowPolicy policy) {
  SimOptions o;
  o.duration = 40.0;
  o.warmup = 5.0;
  o.seed = 3;
  o.controller.policy = policy;
  return o;
}

TEST(FaultSimTest, CrashHaltsDrainsAndRecovers) {
  Chain chain;
  const auto plan = opt::optimize(chain.g);
  SimOptions o = base_options(FlowPolicy::kAces);
  o.faults = fault::parse_fault_spec("crash node=1 at=10 until=20");
  obs::Registry counters;
  o.counters = &counters;
  StreamSimulation sim(chain.g, plan, o);

  sim.run_until(15.0);  // mid-crash
  EXPECT_EQ(sim.buffer_size(chain.middle), 0u);  // crash drained the buffer
  EXPECT_DOUBLE_EQ(sim.cpu_share(chain.middle), 0.0);
  const auto mid = sim.pe_stats(chain.middle);
  EXPECT_FALSE(mid.busy);

  sim.run_until(19.9);  // still down: nothing processed, deliveries lost
  EXPECT_EQ(sim.pe_stats(chain.middle).processed, mid.processed);
  EXPECT_EQ(sim.pe_stats(chain.middle).arrived, mid.arrived);

  sim.run_until(40.0);  // restarted: flow resumes through the chain
  EXPECT_GT(sim.pe_stats(chain.middle).processed, mid.processed);
  EXPECT_GT(sim.pe_stats(chain.egress).processed, 0u);

  std::uint64_t crashes = 0, restarts = 0;
  for (const auto& [name, value] : counters.snapshot().counters) {
    if (name == "fault.node_crash") crashes = value;
    if (name == "fault.node_restart") restarts = value;
  }
  EXPECT_EQ(crashes, 1u);
  EXPECT_EQ(restarts, 1u);
}

TEST(FaultSimTest, SameSeedAndSpecGiveBitIdenticalReports) {
  graph::TopologyParams params;
  params.num_nodes = 3;
  params.num_ingress = 3;
  params.num_intermediate = 6;
  params.num_egress = 3;
  const auto g = generate_topology(params, 11);
  const auto plan = opt::optimize(g);

  SimOptions o;
  o.duration = 20.0;
  o.warmup = 4.0;
  o.seed = 7;
  o.controller.advert_staleness_timeout = 1.0;
  o.reoptimize_interval = 5.0;
  o.faults = fault::parse_fault_spec(
      "crash node=1 at=6 until=12; stall pe=2 at=3 for=2;"
      "advert_loss pe=4 from=2 until=18 prob=0.4;"
      "drop pe=5 from=8 until=14 prob=0.3;"
      "advert_delay pe=6 from=0 until=20 delay=0.05");

  const auto a = simulate(g, plan, o);
  const auto b = simulate(g, plan, o);
  EXPECT_EQ(a.weighted_throughput, b.weighted_throughput);
  EXPECT_EQ(a.output_rate, b.output_rate);
  EXPECT_EQ(a.internal_drops, b.internal_drops);
  EXPECT_EQ(a.ingress_drops, b.ingress_drops);
  EXPECT_EQ(a.sdos_processed, b.sdos_processed);
  EXPECT_EQ(a.latency.count(), b.latency.count());
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
  ASSERT_EQ(a.per_pe.size(), b.per_pe.size());
  for (std::size_t i = 0; i < a.per_pe.size(); ++i) {
    EXPECT_EQ(a.per_pe[i].arrived, b.per_pe[i].arrived);
    EXPECT_EQ(a.per_pe[i].processed, b.per_pe[i].processed);
    EXPECT_EQ(a.per_pe[i].emitted, b.per_pe[i].emitted);
    EXPECT_EQ(a.per_pe[i].dropped_input, b.per_pe[i].dropped_input);
    EXPECT_EQ(a.per_pe[i].cpu_seconds, b.per_pe[i].cpu_seconds);
  }
}

TEST(FaultSimTest, StalenessClampThrottlesUpstreamOfADeadNode) {
  // While the middle node is down its controller is silent, so the
  // ingress's view of the downstream advertisement ages out. With the
  // staleness rule the ingress stops processing (r_max treated as 0);
  // without it the last pre-crash advertisement keeps the ingress pumping
  // SDOs into a dead node.
  Chain chain;
  const auto plan = opt::optimize(chain.g);
  SimOptions with = base_options(FlowPolicy::kAces);
  with.faults = fault::parse_fault_spec("crash node=1 at=6 until=35");
  with.controller.advert_staleness_timeout = 1.0;
  SimOptions without = with;
  without.controller.advert_staleness_timeout = 0.0;

  StreamSimulation clamped(chain.g, plan, with);
  clamped.run_until(34.0);
  StreamSimulation unclamped(chain.g, plan, without);
  unclamped.run_until(34.0);
  EXPECT_LT(clamped.pe_stats(chain.ingress).processed,
            unclamped.pe_stats(chain.ingress).processed / 2);
}

TEST(FaultSimTest, StalenessIsVisibleInTheTrace) {
  Chain chain;
  const auto plan = opt::optimize(chain.g);
  SimOptions o = base_options(FlowPolicy::kAces);
  o.faults = fault::parse_fault_spec("crash node=1 at=6 until=35");
  o.controller.advert_staleness_timeout = 1.0;
  obs::ControlTraceRecorder recorder;
  o.trace = &recorder;
  StreamSimulation sim(chain.g, plan, o);
  sim.run();

  bool saw_stale = false;
  bool middle_ticked_while_down = false;
  for (const obs::TickRecord& r : recorder.snapshot()) {
    if (r.pe == chain.ingress.value() && r.time > 8.0 && r.time < 35.0 &&
        (r.fault_flags & obs::kFaultAdvertStale) != 0) {
      saw_stale = true;
    }
    if (r.pe == chain.middle.value() && r.time > 6.5 && r.time < 35.0) {
      middle_ticked_while_down = true;  // dead air means no records
    }
  }
  EXPECT_TRUE(saw_stale);
  EXPECT_FALSE(middle_ticked_while_down);
}

TEST(FaultSimTest, StallFlagAndCounterFire) {
  Chain chain;
  const auto plan = opt::optimize(chain.g);
  SimOptions o = base_options(FlowPolicy::kAces);
  o.faults = fault::parse_fault_spec("stall pe=1 at=10 for=5");
  obs::Registry counters;
  o.counters = &counters;
  obs::ControlTraceRecorder recorder;
  o.trace = &recorder;
  StreamSimulation sim(chain.g, plan, o);
  sim.run_until(12.0);
  const auto mid = sim.pe_stats(chain.middle);
  sim.run_until(14.9);
  // A stalled PE keeps its buffer (unlike a crash) but processes nothing.
  EXPECT_EQ(sim.pe_stats(chain.middle).processed, mid.processed);
  sim.run_until(40.0);
  EXPECT_GT(sim.pe_stats(chain.middle).processed, mid.processed);

  bool saw_stall_flag = false;
  for (const obs::TickRecord& r : recorder.snapshot()) {
    if (r.pe == chain.middle.value() &&
        (r.fault_flags & obs::kFaultPeStalled) != 0) {
      saw_stall_flag = true;
    }
  }
  EXPECT_TRUE(saw_stall_flag);
  std::uint64_t stalls = 0;
  for (const auto& [name, value] : counters.snapshot().counters) {
    if (name == "fault.pe_stall") stalls = value;
  }
  EXPECT_EQ(stalls, 1u);
}

TEST(FaultSimTest, DropBurstSeversDeliveriesDuringItsWindow) {
  Chain chain;
  const auto plan = opt::optimize(chain.g);
  SimOptions o = base_options(FlowPolicy::kUdp);
  o.faults = fault::parse_fault_spec("drop pe=1 from=10 until=15 prob=1");
  obs::Registry counters;
  o.counters = &counters;
  StreamSimulation sim(chain.g, plan, o);
  sim.run_until(10.05);  // in-flight pre-window deliveries have landed
  const auto at_start = sim.pe_stats(chain.middle).arrived;
  sim.run_until(14.9);
  EXPECT_EQ(sim.pe_stats(chain.middle).arrived, at_start);
  sim.run_until(40.0);
  EXPECT_GT(sim.pe_stats(chain.middle).arrived, at_start);

  std::uint64_t dropped = 0;
  for (const auto& [name, value] : counters.snapshot().counters) {
    if (name == "fault.delivery_dropped") dropped = value;
  }
  EXPECT_GT(dropped, 50u);
}

TEST(FaultSimTest, LockStepProducersSurviveADeadConsumer) {
  // Sim analogue of the runtime test of the same name: a fault-dropped
  // reserved delivery frees its slot AND wakes the blocked sender, so a
  // crashed consumer cannot wedge Lock-Step producers past the fault
  // window. Selectivity 2 into a capacity-1 buffer makes every ingress
  // completion emit a pair of sends whose second always blocks, so the
  // deadlock is reached deterministically once the middle node dies.
  Chain chain;
  chain.g.pe(chain.ingress).selectivity = 2.0;
  chain.g.pe(chain.middle).buffer_capacity = 1;
  const auto plan = opt::optimize(chain.g);
  SimOptions o = base_options(FlowPolicy::kLockStep);
  o.faults = fault::parse_fault_spec("crash node=1 at=10 until=25");
  StreamSimulation sim(chain.g, plan, o);

  sim.run_until(26.0);  // restarted; shares are back after the next tick
  const auto ingress_mid = sim.pe_stats(chain.ingress);
  const auto egress_mid = sim.pe_stats(chain.egress);
  sim.run_until(40.0);
  EXPECT_GT(sim.pe_stats(chain.ingress).processed, ingress_mid.processed);
  EXPECT_GT(sim.pe_stats(chain.egress).processed, egress_mid.processed);
}

TEST(FaultSimTest, LockStepProducersSurviveADropBurst) {
  // Same deadlock shape without a crash: during a prob=1 drop burst the
  // consumer stays alive but every delivery into it is eaten, so each
  // drop must wake the sender or it sleeps through the end of the burst.
  Chain chain;
  chain.g.pe(chain.ingress).selectivity = 2.0;
  chain.g.pe(chain.middle).buffer_capacity = 1;
  const auto plan = opt::optimize(chain.g);
  SimOptions o = base_options(FlowPolicy::kLockStep);
  o.faults = fault::parse_fault_spec("drop pe=1 from=10 until=25 prob=1");
  StreamSimulation sim(chain.g, plan, o);

  sim.run_until(25.5);  // burst over; in-flight dropped deliveries done
  const auto ingress_mid = sim.pe_stats(chain.ingress);
  const auto egress_mid = sim.pe_stats(chain.egress);
  sim.run_until(40.0);
  EXPECT_GT(sim.pe_stats(chain.ingress).processed, ingress_mid.processed);
  EXPECT_GT(sim.pe_stats(chain.egress).processed, egress_mid.processed);
}

TEST(FaultSimTest, CrashTriggersEventDrivenReoptimization) {
  Chain chain;
  const auto plan = opt::optimize(chain.g);
  SimOptions o = base_options(FlowPolicy::kAces);
  // Interval far beyond the run: any re-solves are crash/restart-driven.
  o.reoptimize_interval = 1000.0;
  o.faults = fault::parse_fault_spec("crash node=1 at=10 until=20");
  StreamSimulation sim(chain.g, plan, o);
  sim.run();
  EXPECT_EQ(sim.reoptimizations(), 2);  // one at crash, one at restart

  SimOptions calm = base_options(FlowPolicy::kAces);
  calm.reoptimize_interval = 1000.0;
  StreamSimulation quiet(chain.g, plan, calm);
  quiet.run();
  EXPECT_EQ(quiet.reoptimizations(), 0);
}

TEST(FaultSimTest, AcesRetainsMoreThroughputThanUdpUnderCrash) {
  graph::TopologyParams params;
  params.num_nodes = 6;
  params.num_ingress = 6;
  params.num_intermediate = 12;
  params.num_egress = 6;
  const auto g = generate_topology(params, 1);
  const auto plan = opt::optimize(g);
  const auto faults =
      fault::parse_fault_spec("crash node=1 at=15 until=30");

  SimOptions aces;
  aces.duration = 45.0;
  aces.warmup = 8.0;
  aces.seed = 1;
  aces.controller.policy = FlowPolicy::kAces;
  aces.controller.advert_staleness_timeout = 1.0;
  aces.reoptimize_interval = 5.0;
  aces.faults = faults;
  SimOptions udp = aces;
  udp.controller.policy = FlowPolicy::kUdp;
  udp.controller.advert_staleness_timeout = 0.0;
  udp.reoptimize_interval = 0.0;

  const auto aces_report = simulate(g, plan, aces);
  const auto udp_report = simulate(g, plan, udp);
  EXPECT_GT(aces_report.weighted_throughput,
            udp_report.weighted_throughput);
}

/// Simulates the generated 6-node topology with `spec` under ACES.
metrics::RunReport simulate_with_faults(const std::string& spec) {
  graph::TopologyParams params;
  params.num_nodes = 6;
  params.num_ingress = 6;
  params.num_intermediate = 12;
  params.num_egress = 6;
  const auto g = generate_topology(params, 1);
  const auto plan = opt::optimize(g);
  SimOptions o;
  o.duration = 20.0;
  o.warmup = 2.0;
  o.seed = 1;
  o.controller.policy = FlowPolicy::kAces;
  o.faults = fault::parse_fault_spec(spec);
  return simulate(g, plan, o);
}

// A window that never ends (the parser accepts inf) schedules its end at
// +inf. That event must stay pending past the run's horizon, so the run
// does the same work as with an end beyond it.
TEST(FaultSimTest, CrashThatNeverEndsMatchesAFarFutureEnd) {
  const metrics::RunReport forever =
      simulate_with_faults("crash node=1 at=5 until=inf");
  const metrics::RunReport far =
      simulate_with_faults("crash node=1 at=5 until=1e9");
  EXPECT_GT(forever.sdos_processed, 0u);
  EXPECT_EQ(metrics::work_fingerprint(forever),
            metrics::work_fingerprint(far));
}

TEST(FaultSimTest, StallThatNeverEndsMatchesAFarFutureEnd) {
  const metrics::RunReport forever =
      simulate_with_faults("stall pe=3 at=5 for=inf");
  const metrics::RunReport far =
      simulate_with_faults("stall pe=3 at=5 for=1e9");
  EXPECT_GT(forever.sdos_processed, 0u);
  EXPECT_EQ(metrics::work_fingerprint(forever),
            metrics::work_fingerprint(far));
}

}  // namespace
}  // namespace aces::sim
