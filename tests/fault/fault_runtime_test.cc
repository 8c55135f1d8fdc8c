// Fault injection in the threaded runtime. The runtime is
// nondeterministic, so these are shape assertions — the run completes,
// crash/restart transitions are counted exactly once, and a dead consumer
// must not deadlock Lock-Step producers — not numeric comparisons.
#include <gtest/gtest.h>

#include "fault/fault_spec.h"
#include "graph/topology_generator.h"
#include "obs/registry.h"
#include "runtime/runtime_engine.h"

namespace aces::runtime {
namespace {

graph::ProcessingGraph small_topology(std::uint64_t seed) {
  graph::TopologyParams params;
  params.num_nodes = 3;
  params.num_ingress = 3;
  params.num_intermediate = 6;
  params.num_egress = 3;
  return generate_topology(params, seed);
}

RuntimeOptions fast_options() {
  RuntimeOptions o;
  o.duration = 10.0;
  o.warmup = 2.0;
  o.time_scale = 10.0;  // ~1 wall second
  o.seed = 5;
  return o;
}

TEST(FaultRuntimeTest, CrashAndRestartAreCountedAndSurvived) {
  const auto g = small_topology(13);
  const auto plan = opt::optimize(g);
  obs::Registry counters;
  RuntimeOptions o = fast_options();
  o.faults = fault::parse_fault_spec("crash node=1 at=3 until=6");
  o.controller.advert_staleness_timeout = 1.0;
  o.counters = &counters;

  const auto report = run_runtime(g, plan, o);
  EXPECT_GT(report.sdos_processed, 0u);

  std::uint64_t crashes = 0, restarts = 0;
  for (const auto& [name, value] : counters.snapshot().counters) {
    if (name == "fault.node_crash") crashes = value;
    if (name == "fault.node_restart") restarts = value;
  }
  EXPECT_EQ(crashes, 1u);
  EXPECT_EQ(restarts, 1u);
}

TEST(FaultRuntimeTest, LockStepProducersSurviveADeadConsumer) {
  // Lock-Step senders block on full downstream buffers; a crashed node
  // must not wedge them forever (its deliveries are dropped instead).
  const auto g = small_topology(14);
  const auto plan = opt::optimize(g);
  RuntimeOptions o = fast_options();
  o.duration = 8.0;
  o.controller.policy = control::FlowPolicy::kLockStep;
  o.faults = fault::parse_fault_spec("crash node=2 at=2 until=7");

  const auto report = run_runtime(g, plan, o);  // must terminate
  EXPECT_GT(report.sdos_processed, 0u);
}

TEST(FaultRuntimeTest, StallAndDropBurstsAreApplied) {
  const auto g = small_topology(15);
  const auto plan = opt::optimize(g);
  obs::Registry counters;
  RuntimeOptions o = fast_options();
  o.faults = fault::parse_fault_spec(
      "stall pe=4 at=2 for=3; drop pe=5 from=2 until=8 prob=1;"
      "advert_loss pe=6 from=0 until=10 prob=0.5");
  o.counters = &counters;

  const auto report = run_runtime(g, plan, o);
  EXPECT_GT(report.sdos_processed, 0u);

  std::uint64_t stalls = 0, dropped = 0;
  for (const auto& [name, value] : counters.snapshot().counters) {
    if (name == "fault.pe_stall") stalls = value;
    if (name == "fault.delivery_dropped") dropped = value;
  }
  EXPECT_EQ(stalls, 1u);
  EXPECT_GT(dropped, 0u);
}

}  // namespace
}  // namespace aces::runtime
