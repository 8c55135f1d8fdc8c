// Options for the multi-process distributed runtime (dist_coordinator.h).
#pragma once

#include <cstdint>
#include <string>

#include "pe/run_spec.h"
#include "runtime/transport/transport.h"

namespace aces::obs {
class ClusterAggregator;
}  // namespace aces::obs

namespace aces::runtime::dist {

struct DistOptions : RunSpec {
  /// Quanta per control interval: virtual time advances in steps of
  /// dt / substeps, and every cross-node effect (SDO delivery, advert
  /// refresh, Lock-Step congestion status) takes exactly one quantum. More
  /// substeps tighten the effective network latency at the cost of more
  /// peer exchanges; the coordinator joins once per control interval
  /// whatever the count.
  std::uint32_t substeps = 4;
  /// Overrides each PE's input-buffer bound when > 0 (as in
  /// RuntimeOptions).
  std::size_t channel_capacity = 0;
  /// Worker shards. Nodes are partitioned contiguously: worker r owns nodes
  /// [r·N/W, (r+1)·N/W). Clamped to the node count. Work totals are
  /// partition-invariant — any W produces byte-identical reports.
  std::uint32_t processes = 2;
  /// How the coordinator reaches its workers. The socket transports fork
  /// workers that re-execute this binary (/proc/self/exe), so any binary
  /// that calls dist::maybe_worker() early in main() can use them.
  transport::TransportKind transport = transport::TransportKind::kInProc;
  /// Wall seconds between worker heartbeats while computing a quantum.
  double heartbeat_interval = 0.05;
  /// Wall seconds of silence (no frame, no heartbeat) after which the
  /// coordinator declares a worker dead.
  double heartbeat_timeout = 2.0;
  /// Directory for the coordinator's Unix-domain socket; empty uses
  /// $TMPDIR or /tmp.
  std::string uds_dir;
  /// Fraction of source SDOs whose spans are traced on the workers (0
  /// disables tracing entirely). Sampling is a pure function of
  /// (seed, source PE, arrival index), so it never perturbs results.
  double span_sample = 0.0;
  /// Ship per-tick control-trace records to the coordinator so distributed
  /// runs feed `aces trace-summary` like the other substrates.
  bool record_trace = false;
  /// Optional (non-owned) sink for the cluster observability plane: shard
  /// telemetry, RTT/skew gauges, flight-recorder evidence. Null disables
  /// all coordinator-side aggregation, and the workers ship no telemetry:
  /// no MetricsReport, no fault dump, so no span is sampled
  /// (`span_sample`) and no control tick recorded (`record_trace`).
  obs::ClusterAggregator* aggregator = nullptr;
};

/// Coordinator-side observability for one distributed run.
struct DistStats {
  /// Wall seconds from the first SIGKILL to the coordinator declaring the
  /// worker dead; negative when no kill occurred.
  double kill_detect_wall_seconds = -1.0;
  std::uint64_t reoptimizations = 0;
  std::uint64_t workers_killed = 0;
  std::uint64_t workers_restarted = 0;
  std::uint64_t heartbeats_received = 0;
  /// MetricsReport and FlightDump frames received, well-formed or not;
  /// 0 when no aggregator is attached, unless a worker breaks protocol.
  std::uint64_t telemetry_frames_received = 0;
  /// Cross-worker deliveries discarded because their destination rank was
  /// dead: built for a peer with no link, and not handed to it on a respawn.
  std::uint64_t relay_dropped = 0;
  /// Worker processes still alive after shutdown that had to be reaped
  /// forcibly; 0 on a clean run.
  std::uint64_t orphans_reaped = 0;
};

}  // namespace aces::runtime::dist
