// Coordinator-side merge of per-shard telemetry into one cluster view.
//
// The distributed runtime's workers ship MetricsReport frames at
// barrier-epoch cadence and a FlightDump when a fault fires
// (runtime/wire.h); the coordinator feeds their *contents* — plain obs
// types, so this layer never depends on the wire format — into a
// ClusterAggregator. Each finalized span reaches it exactly once, and
// everything span-derived is rebuilt here from those spans. The aggregator
// answers the questions a single-process run answers for free:
//
//  * counters: per-shard deltas summed into exact cluster totals (deltas,
//    not absolutes, so a restarted shard cannot replay its history);
//  * latency: each shard's spans feed a per-shard LatencyRegistry through
//    record_span_latency, the worker tracer's own record step, so it is
//    bit-identical to the worker's; the shards merge bucket-wise into one
//    registry — path ids are the same splitmix64 fold in every shard, so
//    cross-shard spans land in the same family as their in-process
//    equivalents;
//  * spans: every finalized span counted, those with a wire hop counted
//    as stitched, and the slowest completed ones kept;
//  * cluster health gauges: per-worker heartbeat RTT (Welford), barrier
//    step skew, frames/bytes per transport endpoint, decode rejects;
//  * evidence: each shard's last ring_capacity spans (its standing flight
//    ring) and its newest fault dump survive the worker — a prockill'd
//    shard's final spans are readable at the coordinator after the
//    process is gone.
//
// Every scalar above is one MetricEntry (obs/export.h) in the list a
// private function builds under one hold of the lock, and the three
// renderings walk that list: write_prometheus (each entry's sample, then
// the per-shard latency families), write_status (the `--status-port`
// line protocol: a `key value` line per entry, the key made from the
// entry by one rule, docs/observability.md § Cluster exposures) and
// write_report (the `aces cluster-report` text).
//
// Internally synchronized: the coordinator's recv loop absorbs from its
// control thread while a StatusServer connection renders from the accept
// thread, so every method takes the aggregator mutex. Counters and spans
// accumulate on absorb, which is why the wire carries counter deltas and
// each span once; gauges and perf totals are last-writer-wins.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/atomic_shim.h"
#include "common/mutex.h"
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "obs/latency.h"
#include "obs/spans.h"
#include "obs/trace.h"

namespace aces::obs {

struct MetricEntry;

/// Control-plane health of one worker shard as the coordinator sees it.
struct ShardStatus {
  bool alive = true;
  std::uint64_t last_quantum = 0;   ///< newest quantum heard from the shard
  std::uint64_t frames_in = 0;      ///< frames received from the shard
  std::uint64_t frames_out = 0;     ///< frames sent to the shard
  std::uint64_t bytes_in = 0;       ///< header+payload bytes received
  std::uint64_t bytes_out = 0;      ///< header+payload bytes sent
  std::uint64_t decode_rejects = 0; ///< frames that failed to decode
  std::uint64_t heartbeats = 0;
  std::uint64_t metrics_reports = 0;
  std::uint64_t flight_dumps = 0;   ///< fault dumps received
  std::uint64_t relay_dropped = 0;  ///< span handoffs dropped (rank dead)
  OnlineStats rtt_seconds;          ///< StepGo send -> StepDone recv, wall
};

class ClusterAggregator {
 public:
  // --- absorb side (coordinator control loop) ----------------------------

  /// Registers `rank` as alive (idempotent); called when a worker says
  /// Hello, so a respawned shard is alive again.
  void note_shard(std::uint32_t rank) ACES_EXCLUDES(mutex_);
  /// Advances the shard's newest-quantum watermark (monotonic max).
  void note_quantum(std::uint32_t rank, std::uint64_t quantum)
      ACES_EXCLUDES(mutex_);
  /// Marks the shard dead. Its retained telemetry stays readable — that
  /// is the point of retaining it.
  void note_shard_dead(std::uint32_t rank) ACES_EXCLUDES(mutex_);
  /// One barrier round trip for `rank`, wall-clock seconds.
  void record_rtt(std::uint32_t rank, double seconds) ACES_EXCLUDES(mutex_);
  /// Spread between the first and last StepDone of one quantum, wall
  /// seconds. The status endpoint exposes the running max and mean.
  void record_step_skew(double seconds) ACES_EXCLUDES(mutex_);
  void record_frame_sent(std::uint32_t rank, std::size_t bytes)
      ACES_EXCLUDES(mutex_);
  void record_frame_received(std::uint32_t rank, std::size_t bytes)
      ACES_EXCLUDES(mutex_);
  void record_decode_reject(std::uint32_t rank) ACES_EXCLUDES(mutex_);
  void record_heartbeat(std::uint32_t rank) ACES_EXCLUDES(mutex_);
  /// Span handoffs that could not be relayed because the destination shard
  /// was dead (their deliveries are lost with it; the spans are telemetry
  /// and may lawfully be lost — but counted).
  void record_relay_dropped(std::uint32_t rank, std::uint64_t count)
      ACES_EXCLUDES(mutex_);

  /// Adds counter *deltas* (exact cluster sums across shard restarts).
  void absorb_counters(
      std::uint32_t rank,
      const std::vector<std::pair<std::string, std::uint64_t>>& deltas)
      ACES_EXCLUDES(mutex_);
  /// Last-writer-wins gauge sample from one shard.
  void absorb_gauge(std::uint32_t rank, const std::string& name, double value)
      ACES_EXCLUDES(mutex_);
  /// Cumulative worker timer totals (whole-state, last-writer-wins).
  void absorb_perf(std::uint32_t rank, const std::string& name,
                   std::uint64_t calls, std::uint64_t ns)
      ACES_EXCLUDES(mutex_);
  /// One control-tick record; the aggregator stamps `record.shard = rank`.
  void absorb_trace(std::uint32_t rank, TickRecord record)
      ACES_EXCLUDES(mutex_);
  /// Spans finalized on `rank`, in the order the shard finalized them. Each
  /// one is counted, feeds the shard's latency registry through
  /// record_span_latency, and joins the shard's standing flight ring (its
  /// last ring_capacity spans); a completed() one may also join the
  /// slowest spans. A respawned shard keeps adding to the same registry
  /// and ring.
  void absorb_spans(std::uint32_t rank, const std::vector<SdoSpan>& spans)
      ACES_EXCLUDES(mutex_);
  /// Retains `dump` as the shard's newest fault dump, apart from its
  /// standing ring.
  void absorb_flight_dump(std::uint32_t rank, FlightDump dump)
      ACES_EXCLUDES(mutex_);

  // --- render side (status endpoint, CLI, tests) -------------------------

  [[nodiscard]] std::size_t shard_count() const ACES_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t shards_alive() const ACES_EXCLUDES(mutex_);
  /// Cluster-total counters (sum of absorbed deltas), sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  cluster_counters() const ACES_EXCLUDES(mutex_);
  /// The per-shard registries merged bucket-wise in rank order —
  /// comparable 1:1 with a single-process run's SpanTracer::latency().
  [[nodiscard]] LatencyRegistry merged_latency() const ACES_EXCLUDES(mutex_);
  [[nodiscard]] std::map<std::uint32_t, ShardStatus> shard_statuses() const
      ACES_EXCLUDES(mutex_);
  /// Each shard's standing flight ring: its last ring_capacity finalized
  /// spans, oldest first. Shards that shipped no span are absent.
  [[nodiscard]] std::map<std::uint32_t, std::vector<SdoSpan>> recent_spans()
      const ACES_EXCLUDES(mutex_);
  /// Each shard's newest fault dump. Shards without one are absent.
  [[nodiscard]] std::map<std::uint32_t, FlightDump> flight_dumps() const
      ACES_EXCLUDES(mutex_);
  /// All absorbed control-tick records, shard-stamped, sorted by
  /// (time, node, pe, shard) so the trace exporters emit deterministically.
  [[nodiscard]] std::vector<TickRecord> trace_records() const
      ACES_EXCLUDES(mutex_);

  /// Prometheus text exposition: every metric entry, then each shard's
  /// latency families with a `shard` label.
  void write_prometheus(std::ostream& os) const ACES_EXCLUDES(mutex_);
  /// `--status-port` line protocol: one `key value` pair per metric entry,
  /// the cluster-wide ones first (docs/observability.md lists them).
  void write_status(std::ostream& os) const ACES_EXCLUDES(mutex_);
  /// `aces cluster-report` text, rendered from one snapshot.
  void write_report(std::ostream& os) const ACES_EXCLUDES(mutex_);
  /// Each shard's flight evidence, one line per shard that has any (dead
  /// ones marked `[DEAD]`); nothing when no shard has. The last section
  /// of write_report.
  void write_flight_evidence(std::ostream& os) const ACES_EXCLUDES(mutex_);

 private:
  struct PerfTotals {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };
  struct Shard {
    ShardStatus status;
    std::map<std::string, std::uint64_t> counters;  // summed deltas
    std::map<std::string, double> gauges;           // last-writer-wins
    LatencyRegistry latency;     // rebuilt from the shard's spans
    std::deque<SdoSpan> recent;  // standing flight ring, oldest first
    std::map<std::string, PerfTotals> perf;
    std::optional<FlightDump> dump;  // newest fault dump
  };

  Shard& shard(std::uint32_t rank) ACES_REQUIRES(mutex_);
  std::size_t live_shards() const ACES_REQUIRES(mutex_);
  /// Every exposed scalar, cluster-wide entries first, each family's
  /// entries adjacent.
  std::vector<MetricEntry> metrics() const ACES_REQUIRES(mutex_);
  void write_evidence(std::ostream& os) const ACES_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::map<std::uint32_t, Shard> shards_ ACES_GUARDED_BY(mutex_);
  std::vector<TickRecord> trace_ ACES_GUARDED_BY(mutex_);
  OnlineStats skew_seconds_ ACES_GUARDED_BY(mutex_);
  std::uint64_t spans_completed_ ACES_GUARDED_BY(mutex_) = 0;
  std::uint64_t spans_stitched_ ACES_GUARDED_BY(mutex_) = 0;
  std::vector<SdoSpan> worst_ ACES_GUARDED_BY(mutex_);  // slowest-first
};

/// Live plain-text status endpoint: a loopback TCP listener whose every
/// accepted connection receives one ClusterAggregator::write_status
/// rendering and an immediate close — the HTTP-free protocol `curl` and
/// the CI smoke's python one-liner can both read. The aggregator outlives
/// the server; the accept thread only ever touches it through the
/// internally-synchronized render API.
class StatusServer {
 public:
  /// Binds 127.0.0.1:`port` (0 picks an ephemeral port) and starts the
  /// accept thread. Throws nothing: on failure `listening()` is false and
  /// `error()` says why.
  StatusServer(const ClusterAggregator* aggregator, std::uint16_t port);
  ~StatusServer();

  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  [[nodiscard]] bool listening() const { return fd_ >= 0; }
  /// Bound port (the ephemeral resolution when constructed with 0).
  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Stops accepting and joins the thread. Idempotent; the destructor
  /// calls it.
  void stop();

 private:
  void serve_loop();

  const ClusterAggregator* aggregator_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::string error_;
  Atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace aces::obs
