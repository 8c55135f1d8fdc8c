// Sampled per-SDO tracing: Dapper-style spans piggybacking on SDO handoff.
//
// A span follows one sampled SDO from its source arrival through every PE it
// visits (enqueue / dequeue / emit timestamps per hop) to egress emission.
// Fan-out keeps the trace linear: when a traced SDO is replicated
// downstream, the span continues into the *first* copy only, so a span is
// one root-to-sink path — exactly what the per-path latency histograms and
// the flight recorder want. Drops and node crashes end a span with its
// `dropped` flag set; those partial spans are the post-mortem payload.
//
// Determinism: the sampling decision is a pure function of
// (seed, source PE, per-PE arrival counter) — the same counter-hash scheme
// as fault::FaultInjector. Every substrate draws once for every SDO a
// source generates, before any fault or capacity check decides whether the
// PE admits it (pe::sample_arrival), so the sampled set does not depend on
// drops, and a traced simulator run samples the same spans regardless of
// how many sweep jobs run beside it. Traced vs. untraced runs produce
// bit-identical RunReports (hooks never touch event order, only record
// timestamps).
//
// Overhead: substrates hold a nullable SpanTracer*; when null the per-SDO
// cost is one pointer test (the obs::Counter pattern). When tracing, an
// unsampled SDO costs one atomic fetch_add + hash at the source and a
// handle<0 test per hop. Every operation on a *sampled* span (begin, hop
// updates, complete/drop) takes the tracer mutex: hop state must be
// mutually excluded against fault_dump(), which walks the in-flight pool
// from whichever node thread observed the fault. At ~1% sampling the lock
// is far off the hot path, and -Wthread-safety proves the discipline.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "common/atomic_shim.h"
#include "common/mutex.h"
#include "common/seqlock.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "obs/latency.h"

namespace aces::obs {

/// What a hop represents. kPe hops are PE visits and define the span's
/// path identity; the wire_* kinds mark a process boundary in the
/// distributed runtime (serialize at the sender, send at quantum end,
/// receive at the next quantum start) so cross-shard latency decomposes
/// into compute vs. transport without perturbing path ids.
enum class HopKind : std::uint32_t {
  kPe = 0,
  kWireSerialize = 1,
  kWireSend = 2,
  kWireRecv = 3,
};

/// One PE visit (or wire crossing). Timestamps are substrate time (sim
/// virtual seconds or runtime virtual-clock seconds); negative means "not
/// reached". `kind` occupies what used to be padding, so SpanHop stays the
/// same size the flight recorder's seqlock layout was proven against.
struct SpanHop {
  std::uint32_t pe = 0;
  std::uint32_t kind = 0;  // HopKind; raw int keeps the struct trivial
  Seconds enqueue = -1.0;
  Seconds dequeue = -1.0;
  Seconds emit = -1.0;
};

/// A completed or in-flight trace of one SDO. Trivially copyable: the
/// flight recorder snapshots these through a seqlock with word-wise copy
/// semantics.
struct SdoSpan {
  static constexpr std::size_t kMaxHops = 16;

  std::uint64_t trace_id = 0;
  std::uint32_t source_pe = 0;
  Seconds start = -1.0;  // source arrival
  Seconds end = -1.0;    // egress emission (or drop time)
  std::uint32_t hop_count = 0;
  bool dropped = false;
  bool truncated = false;  // visited more than kMaxHops PEs
  SpanHop hops[kMaxHops];

  /// End-to-end latency; -1 while in flight.
  [[nodiscard]] Seconds latency() const {
    return end >= 0.0 ? end - start : -1.0;
  }
  /// A finalized span that ended normally (at egress, or absorbed by
  /// selectivity) with every hop recorded: the only kind that is an
  /// end-to-end sample (path histogram, slowest spans). Drop- and
  /// crash-ended spans are not.
  [[nodiscard]] bool completed() const { return !dropped && !truncated; }
  /// PE ids of the kPe hops in visit order, for path_id()/path_label().
  /// Wire hops are excluded so a span stitched across processes keeps the
  /// same path identity as its in-process equivalent.
  [[nodiscard]] std::vector<std::uint32_t> hop_pes() const;
};
static_assert(std::is_trivially_copyable_v<SdoSpan>);
static_assert(sizeof(SpanHop) == 32,
              "SpanHop::kind must live in former padding; growing the hop "
              "changes the flight recorder's published word layout");

/// Adds the latency samples one finalized span contributes to `registry`:
/// wait and service for each kPe hop in order, then the end-to-end path
/// when the span completed(). SpanTracer::finalize and the coordinator's
/// ClusterAggregator share it, so a registry rebuilt from a tracer's
/// take_completed() spans, in order, equals the tracer's latency() bit for
/// bit.
void record_span_latency(LatencyRegistry& registry, const SdoSpan& span);

/// Fixed-size ring of recently completed spans.
///
/// Concurrency contract: push() calls must be externally serialized (the
/// SpanTracer holds its mutex across every push), but snapshot() is safe
/// from ANY thread at ANY time without a lock — that is the point of the
/// per-slot seqlock. The payload is stored as relaxed-atomic 64-bit words,
/// never as a raw struct, so a reader racing a writer reads *atomic* data
/// (no C++ data race / UB) and the sequence check discards torn copies.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  /// Publishes `span` into the ring. Callers must serialize push() calls
  /// (SpanTracer's mutex does); concurrent snapshot() readers are fine.
  void push(const SdoSpan& span);

  /// Most-recent-last copy of the intact completed slots. Safe to call
  /// while a writer runs; concurrently-written slots are skipped.
  [[nodiscard]] std::vector<SdoSpan> snapshot() const;

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  [[nodiscard]] std::uint64_t pushed() const {
    return head_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kSpanWords = sizeof(SdoSpan) / 8;
  static_assert(sizeof(SdoSpan) % 8 == 0,
                "SdoSpan must be a whole number of 64-bit words for the "
                "seqlock's word-wise atomic copy");

  // The Boehm seqlock protocol lives in common/seqlock.h (where the
  // ordering argument is documented and the bounded model checker verifies
  // it on a 2-word instance — tests/check/seqlock_mc_test.cc); the
  // recorder just stamps tickets and copies spans word-wise.
  using Slot = SeqLockSlot<kSpanWords>;

  std::vector<Slot> slots_;
  Atomic<std::uint64_t> head_{0};
};

/// One automatic dump taken when a fault.* event fired: the recorder's
/// recent completions plus every span that was still in flight.
struct FlightDump {
  std::string event;  ///< the fault.* counter name, e.g. "fault.node_crash"
  Seconds time = 0.0;  ///< virtual seconds of the snapshot
  std::uint64_t pushed = 0;  ///< recorder ring tickets at snapshot time
  std::vector<SdoSpan> recent;
  std::vector<SdoSpan> in_flight;
};

struct SpanTracerOptions {
  double sample_rate = 0.01;  // fraction of source SDOs traced
  std::uint64_t seed = 1;
  std::size_t max_in_flight = 4096;  // span pool size
  std::size_t ring_capacity = 256;   // flight recorder slots
  std::size_t worst_k = 8;           // slowest completed spans retained
  std::size_t max_dumps = 8;         // fault dumps retained per run
  /// Buffer every finalized span for take_completed() — the distributed
  /// worker drains this each barrier epoch into its MetricsReport. Off by
  /// default: single-process substrates aggregate in place and must not
  /// grow a drain buffer nobody reads.
  bool keep_completed = false;
};

class SpanTracer {
 public:
  explicit SpanTracer(SpanTracerOptions options);

  /// Sampling draw for one source arrival. Returns a span handle, or -1 when
  /// the SDO is unsampled (or the pool is exhausted — counted, not fatal).
  /// `pe_count` is implied by use; any source PE id is accepted.
  [[nodiscard]] std::int32_t begin(PeId source_pe, Seconds t)
      ACES_EXCLUDES(mutex_);

  // Hop lifecycle. All tolerate handle < 0 so call sites stay branch-light
  // (the unsampled path never touches the lock).
  void on_enqueue(std::int32_t handle, PeId pe, Seconds t)
      ACES_EXCLUDES(mutex_);
  void on_dequeue(std::int32_t handle, Seconds t) ACES_EXCLUDES(mutex_);
  void on_emit(std::int32_t handle, Seconds t) ACES_EXCLUDES(mutex_);

  /// Egress emission: finalizes the span into the latency registry, the
  /// flight recorder, and the worst-span list, then recycles the slot.
  void complete(std::int32_t handle, Seconds t) ACES_EXCLUDES(mutex_);
  /// Delivery drop / crash loss: finalizes with dropped=true. Per-hop
  /// histograms still absorb the hops that finished; the path histogram
  /// does not (an unfinished path is not an end-to-end sample).
  void drop(std::int32_t handle, Seconds t) ACES_EXCLUDES(mutex_);

  /// Takes a FlightDump for `event` (a fault.* counter name) and returns
  /// it. Retention is bounded by max_dumps: later dumps past the cap are
  /// counted and returned but not retained.
  FlightDump fault_dump(const std::string& event, Seconds t)
      ACES_EXCLUDES(mutex_);

  // Cross-process stitching. When a traced SDO leaves the worker, the
  // sender detaches the span (no finalization — the trace continues
  // elsewhere) and ships the partial SdoSpan over the wire; the receiving
  // worker adopts it into a fresh slot and keeps appending hops. Sampling
  // stays a pure function of (seed, source PE, arrival counter) because
  // only the source worker draws; adopted spans were already sampled.

  /// Allocates a slot holding a copy of `prefix` (an in-flight span
  /// arriving from another process). Returns -1 when the pool is exhausted
  /// (counted). Does not count as a new started span.
  [[nodiscard]] std::int32_t adopt(const SdoSpan& prefix)
      ACES_EXCLUDES(mutex_);
  /// Copies the in-flight span out and frees the slot WITHOUT finalizing:
  /// no histogram contribution, no recorder push — the adopting process
  /// finalizes. Returns false for stale/inactive handles.
  bool detach(std::int32_t handle, SdoSpan* out) ACES_EXCLUDES(mutex_);
  /// Appends a wire hop (kind != kPe) with all three timestamps = t.
  /// Tolerates handle < 0; sets `truncated` past kMaxHops like on_enqueue.
  void append_wire_hop(std::int32_t handle, PeId pe, HopKind kind, Seconds t)
      ACES_EXCLUDES(mutex_);
  /// Drains the keep_completed buffer (empty unless the option is set).
  [[nodiscard]] std::vector<SdoSpan> take_completed() ACES_EXCLUDES(mutex_);

  [[nodiscard]] const SpanTracerOptions& options() const { return options_; }
  /// Read-after-quiesce accessor: valid once every substrate thread that
  /// held span handles has joined. Deliberately unlocked — it returns a
  /// reference the lock could not protect anyway.
  [[nodiscard]] const LatencyRegistry& latency() const
      ACES_NO_THREAD_SAFETY_ANALYSIS {
    return latency_;
  }
  /// Read-after-quiesce accessor (see latency()).
  [[nodiscard]] const std::vector<FlightDump>& dumps() const
      ACES_NO_THREAD_SAFETY_ANALYSIS {
    return dumps_;
  }
  /// Completed spans, slowest first, at most worst_k. Read-after-quiesce
  /// accessor (see latency()).
  [[nodiscard]] const std::vector<SdoSpan>& worst_spans() const
      ACES_NO_THREAD_SAFETY_ANALYSIS {
    return worst_;
  }
  [[nodiscard]] const FlightRecorder& recorder() const { return recorder_; }

  [[nodiscard]] std::uint64_t spans_started() const ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return started_;
  }
  [[nodiscard]] std::uint64_t spans_completed() const ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return completed_;
  }
  [[nodiscard]] std::uint64_t spans_dropped() const ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return dropped_;
  }
  [[nodiscard]] std::uint64_t pool_exhausted() const ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return exhausted_;
  }
  [[nodiscard]] std::uint64_t dumps_taken() const ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return dumps_taken_;
  }

 private:
  /// True iff the seq-th SDO arriving at `pe` is sampled. Pure in
  /// (seed, pe, seq) — mirrors fault::FaultInjector::draw.
  [[nodiscard]] bool sampled(std::uint32_t pe, std::uint64_t seq) const;

  void finalize(std::int32_t handle, Seconds t, bool dropped)
      ACES_EXCLUDES(mutex_);

  SpanTracerOptions options_;
  std::uint64_t threshold_;  // sample_rate as a 64-bit hash threshold

  /// Per-source-PE arrival counters.
  std::vector<std::uint64_t> sequences_ ACES_GUARDED_BY(mutex_);

  std::vector<SdoSpan> pool_ ACES_GUARDED_BY(mutex_);
  std::vector<std::int32_t> free_ ACES_GUARDED_BY(mutex_);
  std::vector<bool> active_ ACES_GUARDED_BY(mutex_);

  LatencyRegistry latency_ ACES_GUARDED_BY(mutex_);
  FlightRecorder recorder_;  // internally synchronized (seqlock)
  std::vector<SdoSpan> worst_ ACES_GUARDED_BY(mutex_);
  std::vector<FlightDump> dumps_ ACES_GUARDED_BY(mutex_);
  std::vector<SdoSpan> completed_buffer_ ACES_GUARDED_BY(mutex_);

  std::uint64_t started_ ACES_GUARDED_BY(mutex_) = 0;
  std::uint64_t completed_ ACES_GUARDED_BY(mutex_) = 0;
  std::uint64_t dropped_ ACES_GUARDED_BY(mutex_) = 0;
  std::uint64_t exhausted_ ACES_GUARDED_BY(mutex_) = 0;
  std::uint64_t dumps_taken_ ACES_GUARDED_BY(mutex_) = 0;

  mutable Mutex mutex_;
};

}  // namespace aces::obs
