// Coordinator for the multi-process distributed runtime.
//
// run_distributed() shards the processing nodes across worker shards —
// threads of this process (in-process transport) or forked worker
// processes speaking wire.h frames over a Unix-domain / loopback-TCP
// socket — and drives them with a barrier-stepped virtual clock:
//
//   * Virtual time advances in quanta q = dt / substeps. The coordinator
//     broadcasts StepGo(k); every live worker computes [k·q, (k+1)·q) and
//     answers StepDone(k) carrying the cross-node SDOs, refreshed
//     advertisements and Lock-Step congested PEs that other ranks read.
//     Nothing proceeds until every live worker has answered, so there is
//     no wall-clock in the data path.
//   * Every cross-NODE effect takes exactly one quantum, even between
//     nodes that share a worker. The coordinator relays the StepDones at
//     the *next* barrier; what a worker reads of its own output it keeps
//     in a loopback outbox and applies at its next quantum, as if relayed
//     (a worker learns its own refresh one quantum late, like everyone
//     else's). Adverts and congested PEs go only to the other ranks
//     hosting an upstream PE of theirs, the only other ranks that read
//     them. Work totals are therefore partition-invariant: any --processes
//     count, on any transport, produces byte-identical deterministic
//     totals (events_executed, delivery fingerprints). At one shard the
//     coordinator relays nothing.
//   * The coordinator relays in a fixed order — StepDones are merged in
//     rank order, ranks own ascending node ranges, and each worker's
//     outbox is already in source-node order, so every destination
//     receives its deliveries in source-node order, and splices its own
//     loopback deliveries in where their source nodes fall. Each worker
//     ships its adverts and congested PEs in PE order, and the coordinator
//     merges the ranks' runs. The receive order workers observe is
//     independent of scheduling and of the partition.
//
// Failure path (the `prockill` fault clause): at the scheduled barrier the
// coordinator SIGKILLs the worker process (abruptly closes its endpoint
// for the in-process transport) *before* releasing the quantum, so the
// dead worker's contribution deterministically never exists. Death is then
// detected for real — connection reset, heartbeat silence past
// heartbeat_timeout, or waitpid — while collecting that barrier. An
// optional restart respawns the shard with Config.start_quantum = k: fresh
// state, arrival streams fast-forwarded through the dead window. A frame
// still arriving when one of the coordinator's receive slices ends is
// late, not corrupt: only heartbeat silence or process exit declares
// death.
//
// Membership is computed, not reported. Every StepGo carries the nodes of
// the dead ranks as down_nodes (workers clamp their advertisements to
// r_max = 0, infinitely stale) and the nodes of a rank respawned at that
// barrier as up_nodes. Tier 1 excludes the nodes of dead ranks plus every
// node a modeled `crash` window holds down at t = k·q, which the
// coordinator evaluates itself once barrier k's StepDones are in (and
// again after a respawn) with the FaultInjector::node_down the workers act
// on. Whenever that excluded set changes, tier 1 is re-solved with
// optimize_excluding and the targets are pushed before StepGo(k+1) —
// paper §V-C's degradation story, executed against a real process failure.
// A crash window that opens or closes while its shard is dead is therefore
// still seen, and the node rejoins tier 1 once both windows have closed.
//
// Every frame the coordinator sends or receives goes through one counted
// send and one receive, so the per-shard frames and bytes in the cluster
// aggregator cover the whole wire: Hello, Config, Targets and Shutdown
// included.
//
// The controllers, optimizer, and SdoChannel fast path are byte-identical
// to the other substrates — distribution changes who hosts a node, not
// what the node runs.
#pragma once

#include "graph/processing_graph.h"
#include "metrics/run_report.h"
#include "opt/global_optimizer.h"
#include "runtime/dist_options.h"

namespace aces::runtime::dist {

/// Runs `g` under `plan` on `options.processes` worker shards over
/// `options.transport`, and merges the per-worker partial reports (rank
/// order) into the run's RunReport. Throws CheckFailure on setup errors
/// (spawn/connect failures, invalid options).
metrics::RunReport run_distributed(const graph::ProcessingGraph& g,
                                   const opt::AllocationPlan& plan,
                                   const DistOptions& options,
                                   DistStats* stats = nullptr);

}  // namespace aces::runtime::dist
