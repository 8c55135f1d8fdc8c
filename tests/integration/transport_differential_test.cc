// Cross-transport conformance battery for the distributed runtime.
//
// The distributed substrate's contract (dist_coordinator.h) is that work
// totals are a pure function of (topology, plan, policy, seed) — the
// partition (--processes) and the transport (in-process bus vs UDS socket)
// must not be observable. This test pins that with byte-identical work
// fingerprints across {1, 2, 3} worker shards and {inproc, uds} backends,
// then checks the substrate against the discrete-event simulator under the
// same 35% envelope the sim-vs-threaded-runtime differential uses. The
// worker's fault paths get their own checks on a three-PE chain: a
// restart keeps what reaches the node in its quantum, and a Lock-Step
// producer outlives a same-node consumer whose deliveries are all lost.
//
// This binary re-executes itself as the worker process for the socket
// transports, so it supplies its own main() that dispatches
// dist::maybe_worker before gtest takes over.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "control/config.h"
#include "fault/fault_spec.h"
#include "graph/topology_generator.h"
#include "harness/experiment.h"
#include "metrics/report_fingerprint.h"
#include "opt/global_optimizer.h"
#include "runtime/dist_coordinator.h"
#include "runtime/dist_options.h"
#include "runtime/dist_worker.h"
#include "sim/stream_simulation.h"

namespace aces {
namespace {

constexpr double kRelTolerance = 0.35;
constexpr double kDuration = 16.0;
constexpr double kWarmup = 4.0;

struct Fixture {
  const char* name;
  graph::TopologyParams params;
  std::uint64_t seed;
};

/// The same three small topologies the sim-vs-runtime differential uses
/// (fig. 3 shapes): a thin chain-like DAG, a wider balanced DAG, and a
/// bursty overloaded one.
std::vector<Fixture> fixtures() {
  std::vector<Fixture> out;
  {
    graph::TopologyParams p;
    p.num_nodes = 2;
    p.num_ingress = 1;
    p.num_intermediate = 3;
    p.num_egress = 1;
    p.depth = 3;
    out.push_back({"thin_chain", p, 11});
  }
  {
    graph::TopologyParams p;
    p.num_nodes = 4;
    p.num_ingress = 3;
    p.num_intermediate = 8;
    p.num_egress = 3;
    p.depth = 2;
    p.load_factor = 0.6;
    out.push_back({"wide_dag", p, 12});
  }
  {
    graph::TopologyParams p;
    p.num_nodes = 3;
    p.num_ingress = 2;
    p.num_intermediate = 5;
    p.num_egress = 2;
    p.depth = 2;
    p.load_factor = 0.9;
    p.source_burstiness = 0.8;
    p.buffer_capacity = 20;
    out.push_back({"bursty_overloaded", p, 13});
  }
  return out;
}

runtime::dist::DistOptions dist_options(control::FlowPolicy policy,
                                        std::uint64_t seed,
                                        std::uint32_t processes,
                                        runtime::transport::TransportKind kind) {
  runtime::dist::DistOptions o;
  o.duration = kDuration;
  o.warmup = kWarmup;
  o.seed = seed;
  o.processes = processes;
  o.transport = kind;
  o.controller.policy = policy;
  return o;
}

class TransportDifferentialTest
    : public ::testing::TestWithParam<control::FlowPolicy> {};

TEST_P(TransportDifferentialTest, WorkTotalsArePartitionInvariant) {
  const control::FlowPolicy policy = GetParam();
  for (const Fixture& fixture : fixtures()) {
    SCOPED_TRACE(fixture.name);
    const graph::ProcessingGraph g =
        generate_topology(fixture.params, fixture.seed);
    const opt::AllocationPlan plan = opt::optimize(g);
    const std::uint64_t seed = fixture.seed + 1000;

    const metrics::RunReport p1 = runtime::dist::run_distributed(
        g, plan,
        dist_options(policy, seed, 1,
                     runtime::transport::TransportKind::kInProc));
    const metrics::RunReport p2 = runtime::dist::run_distributed(
        g, plan,
        dist_options(policy, seed, 2,
                     runtime::transport::TransportKind::kInProc));
    const metrics::RunReport p3 = runtime::dist::run_distributed(
        g, plan,
        dist_options(policy, seed, 3,
                     runtime::transport::TransportKind::kInProc));

    ASSERT_GT(p1.sdos_processed, 0u);
    const std::string fp1 = metrics::work_fingerprint(p1);
    EXPECT_EQ(fp1, metrics::work_fingerprint(p2))
        << "1 vs 2 shards diverged";
    EXPECT_EQ(fp1, metrics::work_fingerprint(p3))
        << "1 vs 3 shards diverged";
    EXPECT_EQ(p1.events_executed, p2.events_executed);
    EXPECT_EQ(p1.events_executed, p3.events_executed);
  }
}

TEST_P(TransportDifferentialTest, UdsMatchesInProcByteForByte) {
  const control::FlowPolicy policy = GetParam();
  for (const Fixture& fixture : fixtures()) {
    SCOPED_TRACE(fixture.name);
    const graph::ProcessingGraph g =
        generate_topology(fixture.params, fixture.seed);
    const opt::AllocationPlan plan = opt::optimize(g);
    const std::uint64_t seed = fixture.seed + 1000;

    const metrics::RunReport inproc = runtime::dist::run_distributed(
        g, plan,
        dist_options(policy, seed, 2,
                     runtime::transport::TransportKind::kInProc));
    const metrics::RunReport uds = runtime::dist::run_distributed(
        g, plan,
        dist_options(policy, seed, 2,
                     runtime::transport::TransportKind::kUds));

    ASSERT_GT(inproc.sdos_processed, 0u);
    EXPECT_EQ(metrics::work_fingerprint(inproc),
              metrics::work_fingerprint(uds))
        << "socket transport changed the computation";
  }
}

TEST_P(TransportDifferentialTest, AgreesWithSimulatorWithinEnvelope) {
  const control::FlowPolicy policy = GetParam();
  for (const Fixture& fixture : fixtures()) {
    SCOPED_TRACE(fixture.name);
    const graph::ProcessingGraph g =
        generate_topology(fixture.params, fixture.seed);
    const opt::AllocationPlan plan = opt::optimize(g);
    const std::uint64_t seed = fixture.seed + 1000;

    sim::SimOptions so;
    so.duration = kDuration;
    so.warmup = kWarmup;
    so.seed = seed;
    so.controller.policy = policy;
    const harness::RunSummary sim_run = harness::run_single(g, plan, so);

    const metrics::RunReport dist = runtime::dist::run_distributed(
        g, plan,
        dist_options(policy, seed, 2,
                     runtime::transport::TransportKind::kInProc));
    const harness::RunSummary dist_run =
        harness::summarize(dist, plan.weighted_throughput);

    ASSERT_GT(sim_run.weighted_throughput, 0.0);
    ASSERT_GT(dist_run.weighted_throughput, 0.0);
    const double rel_err =
        std::abs(dist_run.weighted_throughput - sim_run.weighted_throughput) /
        sim_run.weighted_throughput;
    EXPECT_LE(rel_err, kRelTolerance)
        << "sim wtput " << sim_run.weighted_throughput << " vs distributed "
        << dist_run.weighted_throughput;
    EXPECT_LE(dist_run.normalized_throughput(), 1.0 + kRelTolerance);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, TransportDifferentialTest,
                         ::testing::Values(control::FlowPolicy::kAces,
                                           control::FlowPolicy::kLockStep),
                         [](const auto& info) {
                           return info.param == control::FlowPolicy::kAces
                                      ? "Aces"
                                      : "LockStep";
                         });

/// ingress → middle → egress fed at 100 SDO/s, the ingress on node 0 and
/// the other two on the nodes given.
struct Chain {
  graph::ProcessingGraph g;
  PeId ingress, middle, egress;

  Chain(std::size_t middle_node, std::size_t egress_node) {
    std::vector<NodeId> nodes;
    while (nodes.size() <= std::max(middle_node, egress_node)) {
      nodes.push_back(g.add_node());
    }
    graph::PeDescriptor d;
    d.kind = graph::PeKind::kIngress;
    d.node = nodes[0];
    d.input_stream = g.add_stream({100.0, 0.0, "feed"});
    ingress = g.add_pe(d);
    d = {};
    d.node = nodes[middle_node];
    middle = g.add_pe(d);
    d = {};
    d.kind = graph::PeKind::kEgress;
    d.node = nodes[egress_node];
    egress = g.add_pe(d);
    g.add_edge(ingress, middle);
    g.add_edge(middle, egress);
  }
};

TEST(DistWorkerFaultTest, RestartKeepsTheSdosDeliveredInItsQuantum) {
  // Every copy the ingress emits crosses to the middle's node and is
  // either dropped there (on the way in, or by a crash) or processed;
  // only the middle's buffer, its service slot and one quantum in flight
  // hold the rest. Thirty short crash windows make thirty restarts, each
  // with deliveries landing in its quantum.
  Chain chain(1, 2);
  chain.g.pe(chain.middle).buffer_capacity = 4;
  const opt::AllocationPlan plan = opt::optimize(chain.g);
  std::string faults;
  for (int k = 1; k <= 30; ++k) {
    faults += "crash node=1 at=" + std::to_string(k) +
              " until=" + std::to_string(k) + ".5; ";
  }
  for (const control::FlowPolicy policy :
       {control::FlowPolicy::kAces, control::FlowPolicy::kUdp,
        control::FlowPolicy::kLockStep}) {
    SCOPED_TRACE(control::to_string(policy));
    std::vector<std::string> fingerprints;
    for (const std::uint32_t processes : {1u, 3u}) {
      runtime::dist::DistOptions o = dist_options(
          policy, 5, processes, runtime::transport::TransportKind::kInProc);
      o.duration = 32.0;
      o.faults = fault::parse_fault_spec(faults);
      const metrics::RunReport r =
          runtime::dist::run_distributed(chain.g, plan, o);
      const metrics::PeAccounting& in = r.per_pe[chain.ingress.value()];
      const metrics::PeAccounting& mid = r.per_pe[chain.middle.value()];
      ASSERT_GT(mid.processed, 0u);
      const auto unaccounted = static_cast<std::int64_t>(in.emitted) -
                               static_cast<std::int64_t>(mid.dropped_input) -
                               static_cast<std::int64_t>(mid.processed);
      EXPECT_GE(unaccounted, 0);
      EXPECT_LE(unaccounted, 10) << "on " << processes << " shards";
      fingerprints.push_back(metrics::work_fingerprint(r));
    }
    EXPECT_EQ(fingerprints[0], fingerprints[1]) << "1 vs 3 shards diverged";
  }
}

TEST(DistWorkerFaultTest, LockStepProducersSurviveADeadConsumer) {
  // The worker's same-node Lock-Step hold. Selectivity 2 into a one-slot
  // buffer on the same node makes most ingress completions hold a copy.
  // While every delivery into the middle is lost, a lost copy counts as
  // taken, so the hold keeps flushing and the ingress keeps working; a
  // hold that kept the lost copy would leave it asleep until the burst
  // ends. A shorter run is a prefix of a longer one, so the test compares
  // durations.
  Chain chain(0, 1);
  chain.g.pe(chain.ingress).selectivity = 2.0;
  chain.g.pe(chain.middle).buffer_capacity = 1;
  const opt::AllocationPlan plan = opt::optimize(chain.g);
  const auto run = [&](Seconds duration, std::uint32_t processes) {
    runtime::dist::DistOptions o =
        dist_options(control::FlowPolicy::kLockStep, 3, processes,
                     runtime::transport::TransportKind::kInProc);
    o.duration = duration;
    o.warmup = 1.0;
    o.faults = fault::parse_fault_spec("drop pe=1 from=2 until=5 prob=1");
    return runtime::dist::run_distributed(chain.g, plan, o);
  };
  const metrics::RunReport burst_starts = run(2.0, 1);
  const metrics::RunReport burst_ends = run(4.9, 1);
  const metrics::RunReport after = run(8.0, 1);
  const auto processed = [](const metrics::RunReport& r, PeId pe) {
    return r.per_pe[pe.value()].processed;
  };
  EXPECT_GT(processed(burst_ends, chain.ingress),
            processed(burst_starts, chain.ingress) + 100);
  EXPECT_GT(processed(after, chain.egress),
            processed(burst_ends, chain.egress) + 20);
  EXPECT_EQ(metrics::work_fingerprint(after),
            metrics::work_fingerprint(run(8.0, 2)));
}

}  // namespace
}  // namespace aces

int main(int argc, char** argv) {
  // Socket-transport workers are this binary re-executed with a hidden
  // `dist-worker` argv — dispatch them before gtest sees the flags.
  if (const int rc = aces::runtime::dist::maybe_worker(argc, argv); rc >= 0) {
    return rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
