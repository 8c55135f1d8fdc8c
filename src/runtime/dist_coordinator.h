// Coordinator for the multi-process distributed runtime.
//
// run_distributed() shards the processing nodes across worker shards —
// threads of this process (in-process transport) or forked worker
// processes speaking wire.h frames over a Unix-domain / loopback-TCP
// socket — and drives them with a segment-stepped virtual clock:
//
//   * Virtual time advances in quanta q = dt / substeps. The workers form a
//     full mesh: each listens for its peers (its address travels in its
//     Hello, and every Config lists the live ranks' addresses), links to
//     the live ranks when it starts, and accepts the ranks that join after
//     it. After each quantum k a worker sends every live peer one batch
//     (wire::PeerBatch) holding what that peer reads of k — the deliveries
//     to its nodes with their spans, and the adverts and Lock-Step
//     congested PEs one of its PEs feeds — and receives one from each
//     before it runs k+1. What a worker reads of its own output is its
//     loopback and never travels. Pairs trade in one global order
//     (exchange_in_order), so the exchange cannot deadlock.
//   * The coordinator is off the data path. It releases a segment of
//     quanta with one StepGo (a first quantum and a count) and joins again
//     with the StepDones of its last quantum. It joins before quantum 0,
//     every `substeps` quanta (the control-interval boundaries and
//     telemetry epochs), at a prockill quantum and the one after it, at a
//     restart quantum, after each quantum at which the crash windows change
//     the excluded set, and at the end of the run. It works that list out
//     from the options and the fault schedule, so Targets, kills, respawns
//     and membership land where a barrier every quantum would put them, and
//     a clean run has barriers only at control-interval boundaries.
//   * Every cross-NODE effect takes exactly one quantum, even between
//     nodes that share a worker. A worker applies the batches in rank order
//     with its loopback at its own rank; ranks own ascending node ranges and
//     each steps its nodes in id order, so every delivery lands in
//     source-node order. Work totals are therefore partition-invariant: any
//     --processes count, on any transport, produces byte-identical
//     deterministic totals (events_executed, delivery fingerprints).
//
// Failure path (the `prockill` fault clause): at the scheduled barrier the
// coordinator SIGKILLs the worker process (abruptly closes its endpoint
// for the in-process transport) *before* releasing the quantum, so the
// dead worker's contribution deterministically never exists, and nothing
// is in flight: every batch of the quantum before was in before its
// StepDone. In the kill quantum the survivors find the victim's link
// closed and stop using it. Death is detected for real — connection reset,
// heartbeat silence past heartbeat_timeout, or waitpid — while collecting
// that one-quantum segment. A worker still builds a batch for a peer it has
// no link to and keeps the newest; if the next StepGo respawns that peer
// (Config.start_quantum = k: fresh state, arrival streams fast-forwarded
// through the dead window) the kept batch is its first input, as the
// quantum before would have been; otherwise the coordinator counts its
// deliveries in relay_dropped. A peer whose batch is malformed is named in
// the receiver's StepDone, counted as a decode reject and declared dead. A
// frame still arriving when one of the coordinator's receive slices ends
// is late, not corrupt: only heartbeat silence or process exit declares
// death. A UDS worker's peer socket lies beside the coordinator's, which
// removes it when it reaps the worker.
//
// Membership is computed, not reported. Every StepGo carries the nodes of
// the dead ranks as down_nodes (workers clamp their advertisements to
// r_max = 0, infinitely stale) and the nodes of a rank respawned at that
// barrier as up_nodes. Tier 1 excludes the nodes of dead ranks plus every
// node a modeled `crash` window holds down at t = k·q, which the
// coordinator evaluates itself once a segment ending at k is in (and again
// after a respawn) with the FaultInjector::node_down the workers act on.
// Whenever that excluded set changes, tier 1 is re-solved with
// optimize_excluding and the targets are pushed before StepGo(k+1) —
// paper §V-C's degradation story, executed against a real process failure.
// A crash window that opens or closes while its shard is dead is therefore
// still seen, and the node rejoins tier 1 once both windows have closed.
//
// Every frame the coordinator sends or receives goes through one counted
// send and one receive, so the per-shard frames and bytes in the cluster
// aggregator cover its whole wire: Hello, Config, Targets and Shutdown
// included. The peer batches never reach it.
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
