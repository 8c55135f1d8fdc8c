// Process-kill integration test for the distributed runtime's failure path
// (dist_coordinator.h, "Failure handling"). A prockill clause SIGKILLs a
// live worker process mid-run (abrupt endpoint close on the in-process
// transport); the coordinator must detect the death, clamp the dead
// shard's advertisements, re-solve tier 1 excluding the dead nodes, keep
// the surviving shards flowing, and shut down without leaking a single
// worker process.
//
// Kills are executed at a deterministic barrier, so killed runs are
// repeatable: the same options produce byte-identical work fingerprints on
// every repetition and on both transports. ctest runs this binary
// repeatedly in CI to hold that bar.
//
// Provides its own main(): socket-transport workers are this binary
// re-executed with a hidden `dist-worker` argv.
#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "control/config.h"
#include "fault/fault_spec.h"
#include "graph/topology_generator.h"
#include "metrics/report_fingerprint.h"
#include "opt/global_optimizer.h"
#include "runtime/dist_coordinator.h"
#include "runtime/dist_options.h"
#include "runtime/dist_worker.h"

namespace aces {
namespace {

/// Detection must be far faster than the run: the SIGKILL closes the
/// worker's socket, so the coordinator notices within one receive slice,
/// not only at the heartbeat timeout. One wall second of slack absorbs a
/// loaded CI machine.
constexpr double kDetectLatencyBound = 1.0;
/// A clean one-virtual-second run on a 3-node topology takes milliseconds;
/// a shutdown that waits out a 6 s heartbeat interval (or the coordinator's
/// 5 s reap grace) cannot finish under this bound.
constexpr double kPromptShutdownBound = 3.0;

graph::ProcessingGraph test_graph() {
  graph::TopologyParams p;
  p.num_nodes = 3;
  p.num_ingress = 2;
  p.num_intermediate = 4;
  p.num_egress = 2;
  p.depth = 2;
  return generate_topology(p, 21);
}

runtime::dist::DistOptions base_options(
    runtime::transport::TransportKind kind, std::uint32_t processes,
    const std::string& faults) {
  runtime::dist::DistOptions o;
  o.duration = 10.0;
  o.warmup = 2.0;
  o.seed = 77;
  o.processes = processes;
  o.transport = kind;
  o.controller.policy = control::FlowPolicy::kAces;
  if (!faults.empty()) o.faults = fault::parse_fault_spec(faults);
  return o;
}

TEST(ProcessKillTest, KillFreeUdsRunMatchesInProcByteForByte) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  const metrics::RunReport inproc = runtime::dist::run_distributed(
      g, plan,
      base_options(runtime::transport::TransportKind::kInProc, 2, ""));
  const metrics::RunReport uds = runtime::dist::run_distributed(
      g, plan, base_options(runtime::transport::TransportKind::kUds, 2, ""));

  ASSERT_GT(inproc.sdos_processed, 0u);
  EXPECT_EQ(metrics::work_fingerprint(inproc),
            metrics::work_fingerprint(uds));
}

TEST(ProcessKillTest, SigkillIsDetectedExcludedAndSurvived) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  // Three shards over three nodes: the kill takes out exactly node 0's
  // worker process, mid-run, with no restart. (Node 0 hosts intermediates
  // only — a dead worker's partial report dies with it, so killing the
  // egress-hosting node would zero the reported output by construction.)
  runtime::dist::DistStats stats;
  const metrics::RunReport report = runtime::dist::run_distributed(
      g, plan,
      base_options(runtime::transport::TransportKind::kUds, 3,
                   "prockill node=0 at=4"),
      &stats);

  EXPECT_EQ(stats.workers_killed, 1u);
  EXPECT_EQ(stats.workers_restarted, 0u);
  // Real detection latency, measured from the SIGKILL to the coordinator
  // declaring the worker dead.
  EXPECT_GE(stats.kill_detect_wall_seconds, 0.0);
  EXPECT_LT(stats.kill_detect_wall_seconds, kDetectLatencyBound);
  // The membership change triggers an event-driven tier-1 re-solve
  // excluding the dead node (optimize_excluding), pushed to survivors.
  EXPECT_GE(stats.reoptimizations, 1u);
  EXPECT_EQ(report.reoptimizations, stats.reoptimizations);
  // Clean shutdown: every worker reaped through the normal path.
  EXPECT_EQ(stats.orphans_reaped, 0u);
  // The survivors keep producing output — dead-shard advertisements are
  // clamped (staleness clamp) rather than left at their last optimistic
  // value, so upstream flow control reroutes instead of stalling.
  EXPECT_GT(report.sdos_processed, 0u);
  EXPECT_GT(report.weighted_throughput, 0.0);
}

TEST(ProcessKillTest, KilledRunIsDeterministicAcrossRepeatsAndTransports) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);
  const std::string faults = "prockill node=2 at=4 restart=6";

  runtime::dist::DistStats s1;
  const metrics::RunReport uds1 = runtime::dist::run_distributed(
      g, plan,
      base_options(runtime::transport::TransportKind::kUds, 2, faults), &s1);
  runtime::dist::DistStats s2;
  const metrics::RunReport uds2 = runtime::dist::run_distributed(
      g, plan,
      base_options(runtime::transport::TransportKind::kUds, 2, faults), &s2);
  runtime::dist::DistStats s3;
  const metrics::RunReport inproc = runtime::dist::run_distributed(
      g, plan,
      base_options(runtime::transport::TransportKind::kInProc, 2, faults),
      &s3);

  // Kills execute at a deterministic barrier, so the computation — though
  // lossy — is repeatable, and the in-process endpoint-close stands in
  // exactly for the socket SIGKILL.
  ASSERT_GT(uds1.sdos_processed, 0u);
  EXPECT_EQ(metrics::work_fingerprint(uds1), metrics::work_fingerprint(uds2));
  EXPECT_EQ(metrics::work_fingerprint(uds1),
            metrics::work_fingerprint(inproc));
  EXPECT_EQ(s1.workers_killed, 1u);
  EXPECT_EQ(s3.workers_killed, 1u);
  EXPECT_EQ(s1.orphans_reaped, 0u);
  EXPECT_EQ(s3.orphans_reaped, 0u);
}

/// The entries of directory `dir`, other than . and ..
std::vector<std::string> entries_of(const std::string& dir) {
  std::vector<std::string> names;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name != "." && name != "..") names.push_back(name);
    }
    ::closedir(d);
  }
  return names;
}

TEST(ProcessKillTest, RestartRejoinsAndReoptimizesAgain) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  // Every worker listens for its peers on a socket beside the
  // coordinator's; the killed one cannot remove its own, so the
  // coordinator does.
  std::string dir = ::testing::TempDir() + "aces-kill-XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  runtime::dist::DistOptions o = base_options(
      runtime::transport::TransportKind::kUds, 3,
      "prockill node=1 at=4 restart=6");
  o.uds_dir = dir;
  runtime::dist::DistStats stats;
  const metrics::RunReport report =
      runtime::dist::run_distributed(g, plan, o, &stats);
  EXPECT_EQ(entries_of(dir), std::vector<std::string>{})
      << "socket files outlived the run";
  ::rmdir(dir.c_str());

  EXPECT_EQ(stats.workers_killed, 1u);
  EXPECT_EQ(stats.workers_restarted, 1u);
  // One re-solve for the death, one for the rejoin.
  EXPECT_GE(stats.reoptimizations, 2u);
  EXPECT_EQ(stats.orphans_reaped, 0u);
  EXPECT_GT(report.sdos_processed, 0u);
  EXPECT_GT(report.weighted_throughput, 0.0);
}

TEST(ProcessKillTest, CrashWindowThatClosesWhileItsShardIsDeadRejoinsTierOne) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  // Node 2's crash window closes while its worker is dead. The coordinator
  // evaluates crash windows itself, so nothing is lost with the worker:
  // tier 1 is solved when the window opens (the kill excludes no new node)
  // and again at the respawn, once both windows have closed.
  const std::string faults =
      "crash node=2 at=2 until=5; prockill node=2 at=3 restart=6";
  runtime::dist::DistStats inproc_stats;
  const metrics::RunReport inproc = runtime::dist::run_distributed(
      g, plan,
      base_options(runtime::transport::TransportKind::kInProc, 3, faults),
      &inproc_stats);
  runtime::dist::DistStats uds_stats;
  const metrics::RunReport uds = runtime::dist::run_distributed(
      g, plan, base_options(runtime::transport::TransportKind::kUds, 3, faults),
      &uds_stats);

  EXPECT_EQ(inproc_stats.reoptimizations, 2u);
  EXPECT_EQ(uds_stats.reoptimizations, 2u);
  EXPECT_EQ(metrics::work_fingerprint(inproc), metrics::work_fingerprint(uds));
  EXPECT_EQ(uds_stats.orphans_reaped, 0u);
  // The respawned worker's partial report covers its own lifetime, after
  // the respawn: node 2 has its cpu targets back and its PEs do work.
  std::uint64_t processed = 0;
  for (const PeId id : g.pes_on_node(NodeId(2))) {
    processed += inproc.per_pe[id.value()].processed;
  }
  EXPECT_GT(processed, 0u) << "node 2 stayed out of tier 1";
}

TEST(ProcessKillTest, LongHeartbeatIntervalDoesNotDelayShutdown) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  // The worker's heartbeat thread must stop as soon as its loop ends, not
  // finish sleeping out the interval: otherwise every run pays up to one
  // interval at shutdown, and over sockets an interval beyond the reap
  // grace gets a healthy worker SIGKILLed and counted as an orphan.
  for (const auto kind : {runtime::transport::TransportKind::kInProc,
                          runtime::transport::TransportKind::kUds}) {
    SCOPED_TRACE(kind == runtime::transport::TransportKind::kUds ? "uds"
                                                                 : "inproc");
    runtime::dist::DistOptions o = base_options(kind, 2, "");
    o.duration = 1.0;
    o.warmup = 0.2;
    o.heartbeat_interval = 6.0;
    o.heartbeat_timeout = 20.0;
    runtime::dist::DistStats stats;
    const auto start = std::chrono::steady_clock::now();
    const metrics::RunReport report =
        runtime::dist::run_distributed(g, plan, o, &stats);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    EXPECT_GT(report.sdos_processed, 0u);
    EXPECT_EQ(stats.orphans_reaped, 0u);
    EXPECT_LT(wall, kPromptShutdownBound);
  }
}

}  // namespace
}  // namespace aces

int main(int argc, char** argv) {
  if (const int rc = aces::runtime::dist::maybe_worker(argc, argv); rc >= 0) {
    return rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
