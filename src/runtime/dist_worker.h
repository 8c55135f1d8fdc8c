// Worker side of the multi-process distributed runtime.
//
// A worker hosts a contiguous shard of processing nodes and executes them
// in segments of quanta the coordinator releases, trading each quantum's
// cross-rank traffic directly with its peers (see dist_coordinator.h for
// the protocol and the determinism argument). The same worker code runs as
// a thread of the coordinator (in-process transport) or as a separate OS
// process connected over sockets — the transport is the only difference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
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

/// Where the UDS worker of `rank` listens for its peers: beside the
/// coordinator's socket, which removes it if the worker cannot.
inline std::string peer_listener_path(const std::string& coordinator_path,
                                      std::uint32_t rank) {
  return coordinator_path + "." + std::to_string(rank);
}

/// Wraps a peer link, given the peer's rank.
using PeerWrap = std::function<std::unique_ptr<transport::Endpoint>(
    std::uint32_t, std::unique_ptr<transport::Endpoint>)>;

/// How a worker opens its peer listener and reaches its peers.
struct PeerLinks {
  transport::TransportKind kind = transport::TransportKind::kInProc;
  /// UDS only: the coordinator's socket path (see peer_listener_path).
  std::string coordinator_path;
  /// Test seam: wraps every peer link the worker opens or accepts. Empty
  /// in a run.
  PeerWrap wrap;
};

/// One quantum's exchange, in the order that cannot deadlock: every peer
/// of `rank` out of `ranks` once, ascending, sending first to a higher rank
/// and receiving first from a lower one. Each pair of ranks then trades at
/// the same point of one global order of pairs, so the exchange completes
/// even when every batch is larger than the socket buffer and a send
/// blocks until its peer reads. `send(peer)` and `receive(peer)` return
/// false when the link fails, which skips the other direction.
template <class Send, class Receive>
void exchange_in_order(std::uint32_t rank, std::uint32_t ranks, Send send,
                       Receive receive) {
  for (std::uint32_t peer = 0; peer < ranks; ++peer) {
    if (peer == rank) continue;
    if (peer > rank) {
      if (send(peer)) receive(peer);
    } else if (receive(peer)) {
      send(peer);
    }
  }
}

/// Runs the worker protocol on a connected endpoint: open a peer listener,
/// Hello with its address, Config, link to the live ranks it lists, Hello
/// again, then segments of quanta until the final StepGo, Report,
/// Shutdown. Returns the process exit code (0 on a clean shutdown). `rank`
/// is this worker's shard index.
int worker_entry(transport::Endpoint& endpoint, std::uint32_t rank,
                 const PeerLinks& peers);

/// Hidden CLI hook: when argv designates a distributed-worker invocation
/// (`<exe> dist-worker --rank=R --uds=PATH | --tcp-port=P`), connects to
/// the coordinator, runs worker_entry, and returns its exit code; `wrap` is
/// the PeerLinks seam. Returns -1 when argv is a normal invocation — call
/// this first in main():
///
///   int main(int argc, char** argv) {
///     if (const int rc = aces::runtime::dist::maybe_worker(argc, argv);
///         rc >= 0) {
///       return rc;
///     }
///     ...
///   }
int maybe_worker(int argc, char** argv, PeerWrap wrap = {});

}  // namespace aces::runtime::dist
