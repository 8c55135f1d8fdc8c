// Failure-injection tests: a PE outage, written as a fault-spec `stall`
// clause, halts its processing, backpressure or drops propagate per policy,
// and the system recovers afterwards.
#include <gtest/gtest.h>

#include "common/check.h"
#include "fault/fault_spec.h"
#include "graph/topology_generator.h"
#include "opt/global_optimizer.h"
#include "sim/stream_simulation.h"

namespace aces::sim {
namespace {

using control::FlowPolicy;

/// A single chain ingress → middle → egress so an outage of `middle` cuts
/// the only path.
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
  o.duration = 30.0;
  o.warmup = 5.0;
  o.seed = 3;
  o.controller.policy = policy;
  return o;
}

TEST(OutageTest, OutageCutsThroughputAndRecovers) {
  Chain chain;
  const auto plan = opt::optimize(chain.g);
  // Outage covering the measured window's first half.
  SimOptions o = base_options(FlowPolicy::kAces);
  o.faults.stalls.push_back(fault::PeStall{10.0, 10.0, chain.middle});
  StreamSimulation sim(chain.g, plan, o);

  sim.run_until(15.0);  // mid-outage
  const auto mid = sim.pe_stats(chain.middle);
  sim.run_until(30.0);
  const auto end = sim.pe_stats(chain.middle);
  // Nothing was processed during [15, 20); plenty afterwards.
  StreamSimulation probe(chain.g, plan, o);
  probe.run_until(19.9);
  EXPECT_EQ(probe.pe_stats(chain.middle).processed, mid.processed);
  EXPECT_GT(end.processed, mid.processed);
}

TEST(OutageTest, DisabledPeProcessesNothingDuringOutage) {
  Chain chain;
  const auto plan = opt::optimize(chain.g);
  // UDP: upstream keeps pumping, so the dead PE's buffer must pin at
  // capacity (ACES would throttle the upstream via its advertisement).
  SimOptions o = base_options(FlowPolicy::kUdp);
  o.faults.stalls.push_back(fault::PeStall{5.0, 20.0, chain.middle});
  StreamSimulation sim(chain.g, plan, o);
  sim.run_until(6.0);
  const auto at_start = sim.pe_stats(chain.middle).processed;
  sim.run_until(24.0);
  EXPECT_EQ(sim.pe_stats(chain.middle).processed, at_start);
  EXPECT_DOUBLE_EQ(sim.cpu_share(chain.middle), 0.0);
  // Its buffer filled up meanwhile.
  EXPECT_EQ(sim.buffer_size(chain.middle),
            static_cast<std::size_t>(
                chain.g.pe(chain.middle).buffer_capacity));
}

TEST(OutageTest, UdpDropsAtTheDeadPeBuffer) {
  Chain chain;
  const auto plan = opt::optimize(chain.g);
  SimOptions o = base_options(FlowPolicy::kUdp);
  o.faults.stalls.push_back(fault::PeStall{6.0, 23.0, chain.middle});
  StreamSimulation sim(chain.g, plan, o);
  sim.run();
  EXPECT_GT(sim.pe_stats(chain.middle).dropped_input, 100u);
}

TEST(OutageTest, LockStepBackpressuresToIngressInstead) {
  Chain chain;
  const auto plan = opt::optimize(chain.g);
  SimOptions o = base_options(FlowPolicy::kLockStep);
  o.faults.stalls.push_back(fault::PeStall{6.0, 23.0, chain.middle});
  const auto report = simulate(chain.g, plan, o);
  EXPECT_EQ(report.internal_drops, 0u);      // reservations: never internal
  EXPECT_GT(report.ingress_drops, 100u);     // loss moves to the system input
}

TEST(OutageTest, AcesThrottlesUpstreamDuringOutage) {
  // With ACES, the dead PE's advertisement collapses, so the ingress is
  // CPU-capped and wastes less work than UDP does.
  Chain chain;
  const auto plan = opt::optimize(chain.g);
  SimOptions aces = base_options(FlowPolicy::kAces);
  aces.faults.stalls.push_back(fault::PeStall{6.0, 23.0, chain.middle});
  SimOptions udp = base_options(FlowPolicy::kUdp);
  udp.faults.stalls.push_back(fault::PeStall{6.0, 23.0, chain.middle});
  StreamSimulation aces_sim(chain.g, plan, aces);
  aces_sim.run();
  StreamSimulation udp_sim(chain.g, plan, udp);
  udp_sim.run();
  EXPECT_LT(aces_sim.pe_stats(chain.ingress).processed,
            udp_sim.pe_stats(chain.ingress).processed / 2);
}

TEST(OutageTest, RecoveryRestoresSteadyThroughput) {
  Chain chain;
  const auto plan = opt::optimize(chain.g);
  SimOptions o = base_options(FlowPolicy::kAces);
  o.duration = 60.0;
  o.warmup = 40.0;  // measure well after recovery
  o.faults.stalls.push_back(fault::PeStall{10.0, 10.0, chain.middle});
  const auto with_outage = simulate(chain.g, plan, o);
  SimOptions clean = o;
  clean.faults.stalls.clear();
  const auto baseline = simulate(chain.g, plan, clean);
  EXPECT_GT(with_outage.weighted_throughput,
            baseline.weighted_throughput * 0.9);
}

TEST(OutageTest, Validation) {
  Chain chain;
  const auto plan = opt::optimize(chain.g);
  SimOptions o = base_options(FlowPolicy::kAces);
  // Empty interval.
  o.faults.stalls.push_back(fault::PeStall{5.0, 0.0, chain.middle});
  EXPECT_THROW(StreamSimulation(chain.g, plan, o), CheckFailure);
  o = base_options(FlowPolicy::kAces);
  o.faults.stalls.push_back(fault::PeStall{1.0, 1.0, PeId(99)});
  EXPECT_THROW(StreamSimulation(chain.g, plan, o), CheckFailure);
}

}  // namespace
}  // namespace aces::sim
