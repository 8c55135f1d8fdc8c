// Worker side of the multi-process distributed runtime.
//
// A worker hosts a contiguous shard of processing nodes and executes them
// under the coordinator's barrier-stepped virtual clock (see
// dist_coordinator.h for the protocol and the determinism argument). The
// same worker code runs as a thread of the coordinator (in-process
// transport) or as a separate OS process connected over a socket — the
// Endpoint is the only difference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "runtime/transport/transport.h"
#include "runtime/wire.h"

namespace aces::runtime::dist {

/// Contiguous node partition: worker `rank` of `workers` owns the node ids
/// [begin, end) = [r·N/W, (r+1)·N/W) out of `node_count`. Pure arithmetic,
/// so every process derives the same placement with no placement frames
/// on the wire.
inline std::pair<std::size_t, std::size_t> shard_range(std::uint32_t rank,
                                                       std::uint32_t workers,
                                                       std::size_t node_count) {
  return {rank * node_count / workers, (rank + 1) * node_count / workers};
}

/// The worker owning node `node` out of `node_count`, with `workers`
/// shards: the inverse of shard_range.
inline std::uint32_t owner_of_node(std::size_t node_count,
                                   std::uint32_t workers, std::uint32_t node) {
  // Exact inverse of the shard bounds floor(r·N/W): the smallest r with
  // floor((r+1)·N/W) > node.
  return static_cast<std::uint32_t>(
      ((static_cast<std::uint64_t>(node) + 1) * workers - 1) / node_count);
}

/// Runs the worker protocol on a connected endpoint: Hello, Config, then
/// barrier quanta until the final StepGo, Report, Shutdown. Returns the
/// process exit code (0 on a clean shutdown). `rank` is this worker's
/// shard index.
int worker_entry(transport::Endpoint& endpoint, std::uint32_t rank);

/// Hidden CLI hook: when argv designates a distributed-worker invocation
/// (`<exe> dist-worker --rank=R --uds=PATH | --tcp-port=P`), connects to
/// the coordinator, runs worker_entry, and returns its exit code. Returns
/// -1 when argv is a normal invocation — call this first in main():
///
///   int main(int argc, char** argv) {
///     if (const int rc = aces::runtime::dist::maybe_worker(argc, argv);
///         rc >= 0) {
///       return rc;
///     }
///     ...
///   }
int maybe_worker(int argc, char** argv);

}  // namespace aces::runtime::dist
