// Coordinator-side merge of per-shard telemetry into one cluster view.
//
// The distributed runtime's workers ship MetricsReport / SpanBatch /
// FlightDump frames (runtime/wire.h) at barrier-epoch cadence; the
// coordinator feeds their *contents* — plain obs types, so this layer
// never depends on the wire format — into a ClusterAggregator. The
// aggregator answers the questions a single-process run answers for free:
//
//  * counters: per-shard deltas summed into exact cluster totals (deltas,
//    not absolutes, so a restarted shard cannot replay its history);
//  * latency: per-PE wait/service and per-path end-to-end histograms
//    merged bucket-wise into one LatencyRegistry — path ids are the same
//    splitmix64 fold in every shard, so cross-shard spans land in the
//    same family as their in-process equivalents;
//  * spans: completed spans (stitched across process hops) decomposed
//    into compute vs. transport via SdoSpan::transport_time();
//  * cluster health gauges: per-worker heartbeat RTT (Welford), barrier
//    step skew, frames/bytes per transport endpoint, decode rejects;
//  * evidence: the last FlightDump per rank survives the worker — a
//    prockill'd shard's final milliseconds are readable at the
//    coordinator after the process is gone.
//
// Rendered three ways: write_prometheus (every family shard-labelled),
// write_status (the `--status-port` line protocol: one `key value` pair
// per line, machine-greppable), and write_report (the `aces
// cluster-report` human tables).
//
// Internally synchronized: the coordinator's recv loop absorbs from its
// control thread while a StatusServer connection renders from the accept
// thread, so every method takes the aggregator mutex. All absorb methods
// are idempotent-per-epoch in the last-writer-wins sense histograms and
// gauges need; counters are the only accumulate-on-absorb state, which is
// why the wire carries them as deltas.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/atomic_shim.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "obs/latency.h"
#include "obs/spans.h"
#include "obs/trace.h"

namespace aces::obs {

/// Last-received flight-recorder evidence from one shard, with provenance.
struct ShardFlightDump {
  std::string event;  ///< "epoch", a fault.* counter name, or "shutdown"
  double time = 0.0;  ///< virtual seconds of the snapshot
  std::uint64_t pushed = 0;  ///< recorder ring tickets at snapshot time
  std::vector<SdoSpan> recent;
  std::vector<SdoSpan> in_flight;
};

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
  std::uint64_t span_batches = 0;
  std::uint64_t flight_dumps = 0;
  std::uint64_t relay_dropped = 0;  ///< span handoffs dropped (rank dead)
  OnlineStats rtt_seconds;          ///< StepGo send -> StepDone recv, wall
};

class ClusterAggregator {
 public:
  // --- absorb side (coordinator control loop) ----------------------------

  /// Registers `rank` (idempotent); called when a worker says Hello.
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
  /// was dead (the SDOs themselves are replayed by the restart path; the
  /// spans are telemetry and may lawfully be lost — but counted).
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
  /// Whole-state per-PE histogram snapshot (replaces the shard's previous
  /// snapshot for this PE). Workers send one only when the PE's sample
  /// count changed, and a live shard's frames are never dropped (a reject
  /// declares the shard dead), so the newest snapshot is the current one.
  void absorb_pe_latency(std::uint32_t rank, std::uint32_t pe,
                         const LogHistogram& wait, const LogHistogram& service)
      ACES_EXCLUDES(mutex_);
  /// Whole-state per-path histogram snapshot, keyed by the stable path id.
  void absorb_path_latency(std::uint32_t rank, std::uint64_t id,
                           const std::string& label,
                           const LogHistogram& end_to_end)
      ACES_EXCLUDES(mutex_);
  /// Cumulative worker timer totals (whole-state, last-writer-wins).
  void absorb_perf(std::uint32_t rank, const std::string& name,
                   std::uint64_t calls, std::uint64_t ns)
      ACES_EXCLUDES(mutex_);
  /// One control-tick record; the aggregator stamps `record.shard = rank`.
  void absorb_trace(std::uint32_t rank, TickRecord record)
      ACES_EXCLUDES(mutex_);
  /// Spans finalized on `rank` this epoch: counts them, decomposes each
  /// into compute vs. transport, and keeps a bounded worst-latency list.
  void absorb_completed_spans(std::uint32_t rank,
                              const std::vector<SdoSpan>& spans)
      ACES_EXCLUDES(mutex_);
  /// Retains `dump` as the shard's latest flight-recorder evidence.
  void absorb_flight_dump(std::uint32_t rank, ShardFlightDump dump)
      ACES_EXCLUDES(mutex_);

  // --- render side (status endpoint, CLI, tests) -------------------------

  [[nodiscard]] std::size_t shard_count() const ACES_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t shards_alive() const ACES_EXCLUDES(mutex_);
  /// Cluster-total counters (sum of absorbed deltas), sorted by name.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  cluster_counters() const ACES_EXCLUDES(mutex_);
  /// One registry holding every shard's histograms merged bucket-wise —
  /// comparable 1:1 with a single-process run's SpanTracer::latency().
  [[nodiscard]] LatencyRegistry merged_latency() const ACES_EXCLUDES(mutex_);
  [[nodiscard]] double max_step_skew() const ACES_EXCLUDES(mutex_);
  [[nodiscard]] std::map<std::uint32_t, ShardStatus> shard_statuses() const
      ACES_EXCLUDES(mutex_);
  [[nodiscard]] std::map<std::uint32_t, ShardFlightDump> flight_dumps() const
      ACES_EXCLUDES(mutex_);
  /// All absorbed control-tick records, shard-stamped, sorted by
  /// (time, node, pe, shard) so the trace exporters emit deterministically.
  [[nodiscard]] std::vector<TickRecord> trace_records() const
      ACES_EXCLUDES(mutex_);

  /// Prometheus text exposition: cluster health gauges, per-shard counter /
  /// gauge / perf families (`shard` label on every sample), and the merged
  /// latency registry re-exposed per shard-of-origin.
  void write_prometheus(std::ostream& os) const ACES_EXCLUDES(mutex_);
  /// `--status-port` line protocol: one `key value` pair per line, keys
  /// flat and grep-stable (documented in docs/observability.md).
  void write_status(std::ostream& os) const ACES_EXCLUDES(mutex_);
  /// `aces cluster-report` human tables.
  void write_report(std::ostream& os) const ACES_EXCLUDES(mutex_);

 private:
  struct PeSnapshot {
    LogHistogram wait;
    LogHistogram service;
  };
  struct PathSnapshot {
    std::string label;
    LogHistogram end_to_end;
  };
  struct PerfTotals {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };
  struct Shard {
    ShardStatus status;
    std::map<std::string, std::uint64_t> counters;  // summed deltas
    std::map<std::string, double> gauges;           // last-writer-wins
    std::map<std::uint32_t, PeSnapshot> pe_latency;
    std::map<std::uint64_t, PathSnapshot> path_latency;
    std::map<std::string, PerfTotals> perf;
    bool has_dump = false;
    ShardFlightDump dump;
  };

  Shard& shard(std::uint32_t rank) ACES_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::map<std::uint32_t, Shard> shards_ ACES_GUARDED_BY(mutex_);
  std::vector<TickRecord> trace_ ACES_GUARDED_BY(mutex_);
  OnlineStats skew_seconds_ ACES_GUARDED_BY(mutex_);
  std::uint64_t spans_completed_ ACES_GUARDED_BY(mutex_) = 0;
  std::uint64_t spans_stitched_ ACES_GUARDED_BY(mutex_) = 0;
  OnlineStats transport_seconds_ ACES_GUARDED_BY(mutex_);
  OnlineStats compute_seconds_ ACES_GUARDED_BY(mutex_);
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
