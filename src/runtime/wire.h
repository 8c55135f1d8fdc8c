// Wire format for the multi-process distributed runtime.
//
// Every byte that crosses a process boundary — SDO payloads, control-plane
// advertisements, tier-1 targets, membership and heartbeat, telemetry,
// per-worker partial RunReports — travels as a *versioned frame*. The
// coordinator and each worker trade Hello, Config, Targets, StepGo,
// StepDone, telemetry, Report and Shutdown; two workers trade a Hello and
// then one PeerBatch each way per quantum:
//
//   offset  size  field
//   0       2     magic 0xACE5 (little-endian)
//   2       1     version (kWireVersion)
//   3       1     frame type (FrameType)
//   4       4     payload length, little-endian u32
//   8       n     payload
//
// Integers are little-endian; doubles are their IEEE-754 bit patterns as
// little-endian u64, so a value survives a round trip bit-exactly — the
// cross-transport conformance battery depends on the in-process and socket
// backends observing byte-identical numbers. Strings and vectors are a u32
// element count followed by the elements.
//
// Decoding is defensive, never undefined: every read is bounds-checked, a
// bad magic/version/type/length yields WireError with a reason, and payload
// lengths are capped (kMaxFramePayload) so a corrupt header cannot ask the
// receiver to allocate gigabytes. Element counts are checked the same way:
// a count that the bytes left in the payload cannot hold is refused before
// the vector is sized. tests/runtime/wire_test.cc fuzzes
// truncations and pins the layout with golden byte fixtures.
//
// Each struct's fields are listed once, in its `fields()` in wire.cc; that
// one list drives sizing, encoding and decoding. Any change to a list
// changes the bytes, so it needs a kWireVersion bump and a fixture update.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "control/config.h"
#include "metrics/run_report.h"
#include "obs/spans.h"
#include "obs/trace.h"

namespace aces::runtime::wire {

inline constexpr std::uint16_t kMagic = 0xACE5;
/// Version 6: Config carries a `telemetry` byte, and a worker ships
/// telemetry only when it is set. Version 5 moved each quantum's cross-rank
/// traffic to PeerBatch frames over direct links, so StepGo releases a
/// segment of quanta and neither StepGo nor StepDone relays traffic; Hello
/// carries the worker's peer-listener address and Config the live ranks'
/// addresses and the whole control::ControllerConfig. A version-5 peer is
/// refused at the header.
inline constexpr std::uint8_t kWireVersion = 6;
/// Upper bound on a sane payload (config frames carry a whole topology, so
/// this is generous; anything larger is treated as corruption).
inline constexpr std::uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

enum class FrameType : std::uint8_t {
  kHello = 1,      ///< worker → coordinator or peer: rank after connect
  kConfig = 2,     ///< coordinator → worker: everything needed to run
  kStepGo = 3,     ///< coordinator → worker: release of a segment of quanta
  kStepDone = 4,   ///< worker → coordinator: segment finished
  kHeartbeat = 5,  ///< worker → coordinator: liveness while computing
  kTargets = 6,    ///< coordinator → worker: tier-1 target vector push
  kReport = 7,     ///< worker → coordinator: partial RunReport at the end
  kShutdown = 8,   ///< coordinator → worker: exit cleanly
  kMetricsReport = 9,  ///< worker → coordinator: epoch telemetry + spans
  kFlightDump = 10,    ///< worker → coordinator: fault-site evidence
  kPeerBatch = 11,     ///< worker → worker: one quantum's traffic for a peer
};

/// One decoded frame: type + raw payload bytes.
struct Frame {
  FrameType type = FrameType::kHello;
  std::vector<std::uint8_t> payload;
};

/// Decode failure: where and why (never throws, never UB).
struct WireError {
  std::string reason;
};

// ---------------------------------------------------------------------------
// Payload structs. The wire order of a struct's fields is the order of its
// fields() list in wire.cc, not necessarily the declaration order here. A
// process knows a frame's rank from the endpoint it arrived on, so only
// Hello (which names the rank on a new link) and Config carry one.

/// The first frame on every link, from the worker that opened it. To the
/// coordinator it also gives the address of the worker's peer listener;
/// on a peer link the address is empty.
struct Hello {
  std::uint32_t rank = 0;
  std::string peer_address;
};

/// Everything a worker process needs to reconstruct its shard: the topology
/// (text serialization round-trips ids exactly), the tier-1 cpu targets, the
/// run options, the tier-2 controller, the fault spec, and where its live
/// peers listen. Sent once after Hello; sent again with a non-zero
/// start_quantum when a killed worker is respawned mid-run.
struct Config {
  std::uint32_t rank = 0;
  std::uint32_t num_workers = 1;
  std::uint32_t substeps = 4;   ///< quanta per control interval dt
  std::uint64_t seed = 1;
  double duration = 30.0;       ///< virtual seconds
  double warmup = 6.0;
  double dt = 0.1;
  /// Every field; its enums travel as u8, and a value past an enum's last
  /// enumerator is refused.
  control::ControllerConfig controller;
  std::uint32_t channel_capacity = 0;
  double heartbeat_interval = 0.05;  ///< wall seconds between heartbeats
  std::uint64_t start_quantum = 0;   ///< barrier index to join at
  std::string topology;              ///< graph::write_topology text
  std::string faults;                ///< fault spec grammar text ("" = none)
  std::vector<double> plan_cpu;      ///< tier-1 cpu targets, by PeId
  double span_sample = 0.0;          ///< SDO span sample rate; 0 = tracing off
  std::uint8_t record_trace = 0;     ///< ship per-tick control TraceRecords
  /// Ship telemetry: set when the coordinator has an aggregator. Without
  /// it a worker sends no MetricsReport or FlightDump, and so builds no
  /// span tracer and records no control tick, whatever span_sample and
  /// record_trace say.
  std::uint8_t telemetry = 0;
  /// By rank, the peer-listener address of every live rank other than this
  /// one, which the worker connects to; empty for the rest.
  std::vector<std::string> peers;
};

/// One SDO crossing a node boundary; `birth` is the SDO's system-entry
/// time for latency accounting. `src_node` is the emitting node: a batch's
/// deliveries are in src_node order (see PeerBatch), so nothing sorts on
/// it.
struct SdoDelivery {
  std::uint32_t dest_pe = 0;
  std::uint32_t src_node = 0;
  double birth = 0.0;
};

/// An in-flight span travelling with its SDO: `delivery` indexes the
/// `deliveries` of the frame that carries it. The handoffs of one frame are
/// in increasing delivery order, at most one per delivery.
struct SpanHandoff {
  std::uint32_t delivery = 0;
  obs::SdoSpan span;  ///< prefix; end < 0 (still in flight)
};

/// One refreshed advertisement mailbox: PE `pe` advertises input rate
/// `rmax`, stamped at virtual time `time`.
struct Advert {
  std::uint32_t pe = 0;
  double rmax = 0.0;
  double time = 0.0;
};

/// Release of the `count` quanta from `quantum` on, with the membership
/// deltas that hold from its first: the nodes of the dead ranks (workers
/// clamp their adverts and stop waiting on those ranks) and the nodes of
/// the ranks respawned at this barrier (workers link to them). The final
/// StepGo releases none and asks for the Report. `deliveries` and `adverts`
/// are always empty in a run, and refused otherwise: only perfbench's wire
/// replay fills them.
struct StepGo {
  std::uint64_t quantum = 0;
  std::uint32_t count = 0;
  std::uint8_t flags = 0;  ///< bit 0: final — report and exit
  std::vector<SdoDelivery> deliveries;
  std::vector<Advert> adverts;
  std::vector<std::uint32_t> down_nodes;  ///< every node of a dead rank
  std::vector<std::uint32_t> up_nodes;    ///< nodes of ranks just respawned
};
inline constexpr std::uint8_t kStepGoFinal = 1;

/// Deliveries a worker built for a peer it had no link to, and the spans
/// riding them.
struct Undelivered {
  std::uint32_t rank = 0;  ///< the peer they were for
  std::uint64_t deliveries = 0;
  std::uint64_t spans = 0;
};

/// Completion of the segment whose last quantum is `quantum`. `dropped`
/// counts the batches for unlinked peers that a newer one replaced;
/// `kept`, the batch still kept for each, which the next StepGo delivers if
/// it rejoins that peer and drops otherwise. `rejected` names the peers
/// whose batch was malformed. `deliveries` and `adverts` are as in StepGo.
struct StepDone {
  std::uint64_t quantum = 0;
  std::vector<SdoDelivery> deliveries;
  std::vector<Advert> adverts;
  std::vector<Undelivered> dropped;
  std::vector<Undelivered> kept;
  std::vector<std::uint32_t> rejected;
};

/// What one rank reads of another's quantum `quantum`: the deliveries to
/// its nodes with the spans riding them, and the refreshed adverts and
/// Lock-Step congested PEs of the sender's PEs that one of its PEs feeds,
/// each list in PE order. Ranks own ascending node ranges and each worker
/// steps its nodes in id order, so a batch's deliveries are in src_node
/// order, and a receiver that applies the batches in rank order applies
/// every delivery in src_node order, whatever the partition.
struct PeerBatch {
  std::uint64_t quantum = 0;
  std::vector<SdoDelivery> deliveries;
  std::vector<SpanHandoff> spans;  ///< handoffs into `deliveries`
  std::vector<Advert> adverts;
  std::vector<std::uint32_t> congested_pes;  ///< Lock-Step backpressure set
};

/// Liveness only: the frame's arrival is the whole message.
struct Heartbeat {};

/// Tier-1 cpu targets (full PE index space), pushed after a re-solve.
struct Targets {
  std::vector<double> cpu;
};

/// Partial RunReport from one worker: its local PEs' contribution, with the
/// accumulator internals carried bit-exactly (OnlineStats/LogHistogram
/// from_raw) so the merged report is independent of the transport.
struct Report {
  metrics::RunReport report;
};

/// One counter's increase since the worker's previous MetricsReport.
/// Deltas (not absolutes) keep the coordinator's sum exact across worker
/// restarts: a respawned shard starts its counters — and its deltas — at
/// zero instead of replaying history.
struct MetricsCounter {
  std::string name;
  std::uint64_t delta = 0;
};

/// Last-value-wins gauge sample.
struct MetricsGauge {
  std::string name;
  double value = 0.0;
};

/// One of the worker's timers: cumulative calls and nanoseconds.
/// `controller_tick` is the only one, shipped when record_trace is set.
struct PerfCell {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

/// Epoch telemetry, sent at the end of every `substeps`-th quantum (always
/// a segment's last, so just before its StepDone) and once more before the
/// final Report, by a worker whose Config sets `telemetry`. Counter deltas sum exactly at the coordinator; perf totals and
/// gauges are whole-state last-writer-wins per rank. `spans` are the spans
/// the worker finalized since its previous report, in finalize order: the
/// coordinator rebuilds the shard's latency histograms and flight ring
/// from them, so no histogram travels.
struct MetricsReport {
  std::uint64_t quantum = 0;
  std::vector<MetricsCounter> counters;
  std::vector<MetricsGauge> gauges;
  std::vector<PerfCell> perf;
  std::vector<obs::TickRecord> trace;  ///< control ticks since last report
  std::vector<obs::SdoSpan> spans;     ///< finalized since last report
};

// ---------------------------------------------------------------------------
// Codecs. encode_* produce a complete frame (header + payload); decode_*
// parse the *payload* of a frame whose type was already matched, returning
// std::nullopt and filling `error` on any malformation.

std::vector<std::uint8_t> encode(const Hello& v);
std::vector<std::uint8_t> encode(const Config& v);
std::vector<std::uint8_t> encode(const StepGo& v);
std::vector<std::uint8_t> encode(const StepDone& v);
std::vector<std::uint8_t> encode(const Heartbeat& v);
std::vector<std::uint8_t> encode(const Targets& v);
std::vector<std::uint8_t> encode(const Report& v);
std::vector<std::uint8_t> encode_shutdown();
std::vector<std::uint8_t> encode(const MetricsReport& v);
/// Fault-site evidence, shipped at the end of a quantum in which a fault.*
/// event fired. The coordinator keeps the newest one per rank, so a
/// SIGKILLed worker's post-mortem survives the process.
std::vector<std::uint8_t> encode(const obs::FlightDump& v);
std::vector<std::uint8_t> encode(const PeerBatch& v);

std::optional<Hello> decode_hello(const std::vector<std::uint8_t>& payload,
                                  WireError* error = nullptr);
std::optional<Config> decode_config(const std::vector<std::uint8_t>& payload,
                                    WireError* error = nullptr);
std::optional<StepGo> decode_step_go(const std::vector<std::uint8_t>& payload,
                                     WireError* error = nullptr);
std::optional<StepDone> decode_step_done(
    const std::vector<std::uint8_t>& payload, WireError* error = nullptr);
std::optional<Heartbeat> decode_heartbeat(
    const std::vector<std::uint8_t>& payload, WireError* error = nullptr);
std::optional<Targets> decode_targets(const std::vector<std::uint8_t>& payload,
                                      WireError* error = nullptr);
std::optional<Report> decode_report(const std::vector<std::uint8_t>& payload,
                                    WireError* error = nullptr);
std::optional<MetricsReport> decode_metrics_report(
    const std::vector<std::uint8_t>& payload, WireError* error = nullptr);
std::optional<obs::FlightDump> decode_flight_dump(
    const std::vector<std::uint8_t>& payload, WireError* error = nullptr);
std::optional<PeerBatch> decode_peer_batch(
    const std::vector<std::uint8_t>& payload, WireError* error = nullptr);

/// Bytes in a frame header.
inline constexpr std::size_t kHeaderBytes = 8;

/// The frame at the front of a byte stream: its type and the bytes it spans,
/// header included. While the stream holds less than a header, `bytes` is
/// kHeaderBytes; `type` is meaningful once the stream holds `bytes` bytes.
struct FrameExtent {
  FrameType type = FrameType::kHello;
  std::size_t bytes = kHeaderBytes;
};

/// Measures the frame at the front of the `size` bytes at `data`. Both
/// transports split frames with it. The header is checked as soon as its 8
/// bytes are in, so a bad magic, version or type, or a length over
/// kMaxFramePayload, is refused (nullopt) before a reader waits for or
/// allocates any payload.
std::optional<FrameExtent> frame_extent(const std::uint8_t* data,
                                        std::size_t size,
                                        WireError* error = nullptr);

/// Splits exactly one complete frame (header + payload) into a Frame,
/// moving the payload out of `bytes`. Returns nullopt on a bad header, or
/// when `bytes` is not one whole frame.
std::optional<Frame> parse_frame(std::vector<std::uint8_t> bytes,
                                 WireError* error = nullptr);
/// The same over borrowed bytes, which it copies.
std::optional<Frame> parse_frame(const std::uint8_t* data, std::size_t size,
                                 WireError* error = nullptr);

/// Frame header for `type` and `payload_size`, for incremental senders.
std::array<std::uint8_t, kHeaderBytes> frame_header(
    FrameType type, std::uint32_t payload_size);

const char* to_string(FrameType type);

}  // namespace aces::runtime::wire
