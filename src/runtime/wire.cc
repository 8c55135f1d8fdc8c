#include "runtime/wire.h"

#include <algorithm>
#include <bit>
#include <string>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace aces::runtime::wire {

namespace {

// Each payload struct is described once, by `fields(io, v)`: the order of
// its io(...) calls is the order of its fields on the wire. Three Io classes
// walk a list — Sizer counts the bytes, Writer fills an exactly sized
// buffer, Reader decodes with bounds checks — so the encoder and the decoder
// cannot drift apart. Integers travel little-endian (signed ones as their
// two's-complement bits), doubles as their IEEE-754 bits, bools as one byte,
// enums as one byte (enum_u8), strings and vectors as a u32 count followed
// by the elements. Changing any list changes the bytes: bump
// kWireVersion and the golden fixtures in tests/runtime/wire_test.cc.

/// A field as the Io sees it: mutable when decoding, const otherwise.
template <class Io, class T>
using Ref = std::conditional_t<Io::kReading, T&, const T&>;

/// An enum travels as a u8. Decoding refuses a value past `last`, its
/// highest enumerator.
template <class Io, class E>
bool enum_u8(Io& io, Ref<Io, E> v, E last) {
  auto raw = static_cast<std::uint8_t>(v);
  if (!io(raw)) return false;
  if constexpr (Io::kReading) {
    if (raw > static_cast<std::uint8_t>(last)) {
      return io.fail("enum value " + std::to_string(raw) + " out of range");
    }
    v = static_cast<E>(raw);
  }
  return true;
}

template <class Io>
bool fields(Io& io, Ref<Io, Hello> v) {
  return io(v.rank) && io(v.peer_address);
}

template <class Io>
bool fields(Io& io, Ref<Io, control::LqrWeights> v) {
  return io(v.state_cost) && io(v.control_cost);
}

template <class Io>
bool fields(Io& io, Ref<Io, control::ControllerConfig> v) {
  using control::CpuControlKind;
  using control::FlowPolicy;
  using control::RhoSource;
  return enum_u8(io, v.policy, FlowPolicy::kThreshold) && io(v.lqr) &&
         io(v.feedback_delay_ticks) && io(v.b0_fraction) &&
         io(v.bucket_depth_seconds) && io(v.service_ewma_alpha) &&
         io(v.arrival_ewma_alpha) &&
         enum_u8(io, v.rho_source, RhoSource::kMeasured) &&
         io(v.rate_floor) && io(v.demand_floor_sdos) &&
         io(v.threshold_high) && io(v.threshold_low) &&
         enum_u8(io, v.cpu_control, CpuControlKind::kTargetProportional) &&
         io(v.advert_staleness_timeout);
}

template <class Io>
bool fields(Io& io, Ref<Io, Config> v) {
  return io(v.rank) && io(v.num_workers) && io(v.substeps) && io(v.seed) &&
         io(v.duration) && io(v.warmup) && io(v.dt) && io(v.controller) &&
         io(v.channel_capacity) && io(v.heartbeat_interval) &&
         io(v.start_quantum) && io(v.topology) && io(v.faults) &&
         io(v.plan_cpu) && io(v.span_sample) && io(v.record_trace) &&
         io(v.peers);
}

template <class Io>
bool fields(Io& io, Ref<Io, SdoDelivery> v) {
  return io(v.dest_pe) && io(v.src_node) && io(v.birth);
}

template <class Io>
bool fields(Io& io, Ref<Io, Advert> v) {
  return io(v.pe) && io(v.rmax) && io(v.time);
}

template <class Io>
bool fields(Io& io, Ref<Io, StepGo> v) {
  return io(v.quantum) && io(v.count) && io(v.flags) && io(v.deliveries) &&
         io(v.adverts) && io(v.down_nodes) && io(v.up_nodes);
}

template <class Io>
bool fields(Io& io, Ref<Io, Undelivered> v) {
  return io(v.rank) && io(v.deliveries) && io(v.spans);
}

template <class Io>
bool fields(Io& io, Ref<Io, StepDone> v) {
  return io(v.quantum) && io(v.deliveries) && io(v.adverts) &&
         io(v.dropped) && io(v.kept) && io(v.rejected);
}

template <class Io>
bool fields(Io& /*io*/, Ref<Io, Heartbeat> /*v*/) {
  return true;
}

template <class Io>
bool fields(Io& io, Ref<Io, Targets> v) {
  return io(v.cpu);
}

/// The accumulator's raw parts, rebuilt bit-exactly with from_raw.
template <class Io>
bool fields(Io& io, Ref<Io, OnlineStats> v) {
  std::uint64_t count = v.count();
  double mean = v.mean(), m2 = v.m2(), min = v.min(), max = v.max();
  if (!(io(count) && io(mean) && io(m2) && io(min) && io(max))) return false;
  if constexpr (Io::kReading) {
    v = OnlineStats::from_raw(count, mean, m2, min, max);
  }
  return true;
}

/// Every cell including under/overflow, then count, min, max and sum. Only
/// the default geometry travels, so a different cell count is corruption.
template <class Io>
bool fields(Io& io, Ref<Io, LogHistogram> v) {
  if constexpr (Io::kReading) {
    static const std::size_t cells = LogHistogram().raw_counts().size();
    std::vector<std::uint64_t> counts;
    std::uint64_t count = 0;
    double min = 0.0, max = 0.0, sum = 0.0;
    if (!(io(counts) && io(count) && io(min) && io(max) && io(sum))) {
      return false;
    }
    if (counts.size() != cells) {
      return io.fail("histogram bucket layout mismatch");
    }
    v = LogHistogram::from_raw(std::move(counts), count, min, max, sum);
    return true;
  } else {
    return io(v.raw_counts()) && io(v.count()) && io(v.min()) &&
           io(v.max()) && io(v.sum());
  }
}

template <class Io>
bool fields(Io& io, Ref<Io, metrics::PeAccounting> v) {
  return io(v.arrived) && io(v.processed) && io(v.emitted) &&
         io(v.dropped_input) && io(v.cpu_seconds);
}

template <class Io>
bool fields(Io& io, Ref<Io, metrics::RunReport> v) {
  return io(v.measured_seconds) && io(v.weighted_throughput) &&
         io(v.output_rate) && io(v.latency) && io(v.latency_histogram) &&
         io(v.internal_drops) && io(v.ingress_drops) &&
         io(v.sdos_processed) && io(v.cpu_utilization) &&
         io(v.buffer_fill) && io(v.egress_outputs) && io(v.per_pe) &&
         io(v.events_executed) && io(v.reoptimizations);
}

template <class Io>
bool fields(Io& io, Ref<Io, Report> v) {
  return io(v.report);
}

template <class Io>
bool fields(Io& io, Ref<Io, MetricsCounter> v) {
  return io(v.name) && io(v.delta);
}

template <class Io>
bool fields(Io& io, Ref<Io, MetricsGauge> v) {
  return io(v.name) && io(v.value);
}

template <class Io>
bool fields(Io& io, Ref<Io, PerfCell> v) {
  return io(v.name) && io(v.calls) && io(v.ns);
}

/// `shard` stays off the wire: the coordinator's aggregator stamps it.
template <class Io>
bool fields(Io& io, Ref<Io, obs::TickRecord> v) {
  return io(v.time) && io(v.node) && io(v.pe) && io(v.buffer_occupancy) &&
         io(v.arrived_sdos) && io(v.processed_sdos) && io(v.cpu_share) &&
         io(v.cpu_seconds_used) && io(v.advertised_rmax) &&
         io(v.downstream_rmax) && io(v.token_fill) && io(v.output_blocked) &&
         io(v.dropped_total) && io(v.fault_flags) && io(v.policy);
}

template <class Io>
bool fields(Io& io, Ref<Io, obs::SpanHop> v) {
  if (!(io(v.pe) && io(v.kind) && io(v.enqueue) && io(v.dequeue) &&
        io(v.emit))) {
    return false;
  }
  if constexpr (Io::kReading) {
    if (v.kind > static_cast<std::uint32_t>(obs::HopKind::kWireRecv)) {
      return io.fail("unknown span hop kind");
    }
  }
  return true;
}

/// The hop count travels as a u8, followed by that many hops.
template <class Io>
bool fields(Io& io, Ref<Io, obs::SdoSpan> v) {
  auto hop_count = static_cast<std::uint8_t>(v.hop_count);
  if (!(io(v.trace_id) && io(v.source_pe) && io(v.start) && io(v.end) &&
        io(v.dropped) && io(v.truncated) && io(hop_count))) {
    return false;
  }
  if constexpr (Io::kReading) {
    if (hop_count > obs::SdoSpan::kMaxHops) {
      return io.fail("span hop count exceeds kMaxHops");
    }
    v.hop_count = hop_count;
  }
  for (std::uint32_t i = 0; i < hop_count; ++i) {
    if (!io(v.hops[i])) return false;
  }
  return true;
}

template <class Io>
bool fields(Io& io, Ref<Io, SpanHandoff> v) {
  return io(v.delivery) && io(v.span);
}

template <class Io>
bool fields(Io& io, Ref<Io, PeerBatch> v) {
  return io(v.quantum) && io(v.deliveries) && io(v.spans) && io(v.adverts) &&
         io(v.congested_pes);
}

template <class Io>
bool fields(Io& io, Ref<Io, MetricsReport> v) {
  return io(v.quantum) && io(v.counters) && io(v.gauges) && io(v.perf) &&
         io(v.trace) && io(v.spans);
}

template <class Io>
bool fields(Io& io, Ref<Io, obs::FlightDump> v) {
  return io(v.event) && io(v.time) && io(v.pushed) && io(v.recent) &&
         io(v.in_flight);
}

// bool is an unsigned type to the Io classes: one byte, 0 or 1 when
// written, and any nonzero byte reads as true.
static_assert(sizeof(bool) == 1 && std::is_unsigned_v<bool>);

/// Counts the payload bytes a field list encodes to.
struct Sizer {
  static constexpr bool kReading = false;
  std::size_t bytes = 0;

  template <class U>
    requires std::is_arithmetic_v<U>
  bool operator()(U /*value*/) {
    bytes += sizeof(U);
    return true;
  }
  bool operator()(const std::string& s) {
    bytes += 4 + s.size();
    return true;
  }
  template <class T>
  bool operator()(const std::vector<T>& v) {
    bytes += 4;
    for (const T& x : v) (*this)(x);
    return true;
  }
  template <class T>
    requires std::is_class_v<T>
  bool operator()(const T& v) {
    return fields(*this, v);
  }
};

/// Fills a buffer a Sizer measured, advancing `at`. Every store goes through
/// a local copy of the cursor: a byte store may alias the member, and
/// storing through it directly forces a reload after every byte.
struct Writer {
  static constexpr bool kReading = false;
  std::uint8_t* at = nullptr;

  template <class U>
    requires std::is_unsigned_v<U>
  bool operator()(U v) {
    const std::uint64_t x = v;
    std::uint8_t* p = at;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      p[i] = static_cast<std::uint8_t>(x >> (8 * i));
    }
    at = p + sizeof(U);
    return true;
  }
  template <class S>
    requires std::is_integral_v<S> && std::is_signed_v<S>
  bool operator()(S v) {
    return (*this)(static_cast<std::make_unsigned_t<S>>(v));
  }
  bool operator()(double v) {
    return (*this)(std::bit_cast<std::uint64_t>(v));
  }
  bool operator()(const std::string& s) {
    (*this)(static_cast<std::uint32_t>(s.size()));
    at = std::copy(s.begin(), s.end(), at);
    return true;
  }
  template <class T>
  bool operator()(const std::vector<T>& v) {
    (*this)(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) (*this)(x);
    return true;
  }
  template <class T>
    requires std::is_class_v<T>
  bool operator()(const T& v) {
    return fields(*this, v);
  }
};

/// Encoded size of a default-constructed T: the shortest encoding any value
/// of every element type has (strings and vectors empty, no span hops, a
/// histogram's fixed cells).
template <class T>
std::size_t min_wire_size() {
  static const std::size_t bytes = [] {
    Sizer sizer;
    sizer(T());
    return sizer.bytes;
  }();
  return bytes;
}

/// Bounds-checked decoder: a read past the payload fails, the first
/// failure's reason is recorded, and hostile input degrades to a WireError,
/// never to UB or an unbounded allocation.
class Reader {
 public:
  static constexpr bool kReading = true;

  Reader(const std::vector<std::uint8_t>& data, WireError* error)
      : at_(data.data()), end_(data.data() + data.size()), error_(error) {}

  template <class U>
    requires std::is_unsigned_v<U>
  bool operator()(U& v) {
    if (left() < sizeof(U)) return truncated(sizeof(U));
    std::uint64_t x = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i) {
      x |= std::uint64_t{at_[i]} << (8 * i);
    }
    v = static_cast<U>(x);
    at_ += sizeof(U);
    return true;
  }
  template <class S>
    requires std::is_integral_v<S> && std::is_signed_v<S>
  bool operator()(S& v) {
    std::make_unsigned_t<S> bits = 0;
    if (!(*this)(bits)) return false;
    v = static_cast<S>(bits);
    return true;
  }
  bool operator()(double& v) {
    std::uint64_t bits = 0;
    if (!(*this)(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }
  bool operator()(std::string& s) {
    std::uint32_t n = 0;
    if (!(*this)(n)) return false;
    if (left() < n) return truncated(n);
    s.assign(reinterpret_cast<const char*>(at_), n);
    at_ += n;
    return true;
  }
  /// The one element-count guard: every element takes at least
  /// min_wire_size<T>() bytes, so a count the remaining bytes cannot hold
  /// is refused before anything is allocated for it.
  template <class T>
  bool operator()(std::vector<T>& v) {
    std::uint32_t n = 0;
    if (!(*this)(n)) return false;
    if (static_cast<std::size_t>(n) * min_wire_size<T>() > left()) {
      return fail("implausible element count " + std::to_string(n) + " for " +
                  std::to_string(left()) + " payload bytes left");
    }
    v.resize(n);
    for (T& x : v) {
      if (!(*this)(x)) return false;
    }
    return true;
  }
  template <class T>
    requires std::is_class_v<T>
  bool operator()(T& v) {
    return fields(*this, v);
  }

  /// True when every payload byte was consumed: trailing garbage is
  /// rejected so frames cannot smuggle undeclared data.
  bool exhausted() {
    return at_ == end_ || fail("trailing bytes after payload");
  }
  /// Records `reason` unless an earlier failure already did; returns false.
  bool fail(std::string reason) {
    if (error_ != nullptr && error_->reason.empty()) {
      error_->reason = std::move(reason);
    }
    return false;
  }

 private:
  [[nodiscard]] std::size_t left() const {
    return static_cast<std::size_t>(end_ - at_);
  }
  /// The failure path of every bounds check, kept apart so the checked
  /// reads stay small enough to inline.
  bool truncated(std::size_t n) {
    return fail("truncated payload: " + std::to_string(n) +
                " bytes needed, " + std::to_string(left()) + " left");
  }

  const std::uint8_t* at_;
  const std::uint8_t* end_;
  WireError* error_;
};

/// Sizes the payload first, so the header and payload go into one buffer
/// allocated once at its final size.
template <class T>
std::vector<std::uint8_t> encode_frame(FrameType type, const T& v) {
  Sizer sizer;
  fields(sizer, v);
  const std::array<std::uint8_t, kHeaderBytes> header =
      frame_header(type, static_cast<std::uint32_t>(sizer.bytes));
  std::vector<std::uint8_t> frame(header.size() + sizer.bytes);
  Writer writer{std::copy(header.begin(), header.end(), frame.data())};
  fields(writer, v);
  ACES_CHECK(writer.at == frame.data() + frame.size());
  return frame;
}

template <class T>
std::optional<T> decode_payload(const std::vector<std::uint8_t>& payload,
                                WireError* error) {
  Reader reader(payload, error);
  T v;
  if (!(fields(reader, v) && reader.exhausted())) return std::nullopt;
  return v;
}

}  // namespace

std::array<std::uint8_t, kHeaderBytes> frame_header(
    FrameType type, std::uint32_t payload_size) {
  std::array<std::uint8_t, kHeaderBytes> h{};
  h[0] = static_cast<std::uint8_t>(kMagic & 0xFF);
  h[1] = static_cast<std::uint8_t>(kMagic >> 8);
  h[2] = kWireVersion;
  h[3] = static_cast<std::uint8_t>(type);
  for (int i = 0; i < 4; ++i)
    h[4 + i] = static_cast<std::uint8_t>(payload_size >> (8 * i));
  return h;
}

std::optional<FrameExtent> frame_extent(const std::uint8_t* data,
                                        std::size_t size, WireError* error) {
  const auto fail = [error](const char* why) -> std::optional<FrameExtent> {
    if (error != nullptr && error->reason.empty()) error->reason = why;
    return std::nullopt;
  };
  FrameExtent extent;
  if (size < kHeaderBytes) return extent;
  const std::uint16_t magic =
      static_cast<std::uint16_t>(data[0] | (data[1] << 8));
  if (magic != kMagic) return fail("bad magic");
  if (data[2] != kWireVersion) return fail("unsupported wire version");
  const std::uint8_t type = data[3];
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kPeerBatch)) {
    return fail("unknown frame type");
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i)
    len |= static_cast<std::uint32_t>(data[4 + i]) << (8 * i);
  if (len > kMaxFramePayload) return fail("payload length exceeds cap");
  extent.type = static_cast<FrameType>(type);
  extent.bytes = kHeaderBytes + len;
  return extent;
}

std::optional<Frame> parse_frame(std::vector<std::uint8_t> bytes,
                                 WireError* error) {
  const auto fail = [error](const char* why) -> std::optional<Frame> {
    if (error != nullptr && error->reason.empty()) error->reason = why;
    return std::nullopt;
  };
  if (bytes.size() < kHeaderBytes) {
    return fail("short frame (no complete header)");
  }
  const auto extent = frame_extent(bytes.data(), bytes.size(), error);
  if (!extent.has_value()) return std::nullopt;
  if (extent->bytes != bytes.size()) {
    return fail("frame size does not match header length");
  }
  bytes.erase(bytes.begin(), bytes.begin() + kHeaderBytes);
  return Frame{extent->type, std::move(bytes)};
}

std::optional<Frame> parse_frame(const std::uint8_t* data, std::size_t size,
                                 WireError* error) {
  return parse_frame(std::vector<std::uint8_t>(data, data + size), error);
}

std::vector<std::uint8_t> encode(const Hello& v) {
  return encode_frame(FrameType::kHello, v);
}
std::vector<std::uint8_t> encode(const Config& v) {
  return encode_frame(FrameType::kConfig, v);
}
std::vector<std::uint8_t> encode(const StepGo& v) {
  return encode_frame(FrameType::kStepGo, v);
}
std::vector<std::uint8_t> encode(const StepDone& v) {
  return encode_frame(FrameType::kStepDone, v);
}
std::vector<std::uint8_t> encode(const Heartbeat& v) {
  return encode_frame(FrameType::kHeartbeat, v);
}
std::vector<std::uint8_t> encode(const Targets& v) {
  return encode_frame(FrameType::kTargets, v);
}
std::vector<std::uint8_t> encode(const Report& v) {
  return encode_frame(FrameType::kReport, v);
}
std::vector<std::uint8_t> encode_shutdown() {
  const std::array<std::uint8_t, kHeaderBytes> header =
      frame_header(FrameType::kShutdown, 0);
  return {header.begin(), header.end()};
}
std::vector<std::uint8_t> encode(const MetricsReport& v) {
  return encode_frame(FrameType::kMetricsReport, v);
}
std::vector<std::uint8_t> encode(const obs::FlightDump& v) {
  return encode_frame(FrameType::kFlightDump, v);
}
std::vector<std::uint8_t> encode(const PeerBatch& v) {
  return encode_frame(FrameType::kPeerBatch, v);
}

std::optional<Hello> decode_hello(const std::vector<std::uint8_t>& payload,
                                  WireError* error) {
  return decode_payload<Hello>(payload, error);
}
std::optional<Config> decode_config(const std::vector<std::uint8_t>& payload,
                                    WireError* error) {
  return decode_payload<Config>(payload, error);
}
std::optional<StepGo> decode_step_go(const std::vector<std::uint8_t>& payload,
                                     WireError* error) {
  return decode_payload<StepGo>(payload, error);
}
std::optional<StepDone> decode_step_done(
    const std::vector<std::uint8_t>& payload, WireError* error) {
  return decode_payload<StepDone>(payload, error);
}
std::optional<Heartbeat> decode_heartbeat(
    const std::vector<std::uint8_t>& payload, WireError* error) {
  return decode_payload<Heartbeat>(payload, error);
}
std::optional<Targets> decode_targets(const std::vector<std::uint8_t>& payload,
                                      WireError* error) {
  return decode_payload<Targets>(payload, error);
}
std::optional<Report> decode_report(const std::vector<std::uint8_t>& payload,
                                    WireError* error) {
  return decode_payload<Report>(payload, error);
}
std::optional<MetricsReport> decode_metrics_report(
    const std::vector<std::uint8_t>& payload, WireError* error) {
  return decode_payload<MetricsReport>(payload, error);
}
std::optional<obs::FlightDump> decode_flight_dump(
    const std::vector<std::uint8_t>& payload, WireError* error) {
  return decode_payload<obs::FlightDump>(payload, error);
}
std::optional<PeerBatch> decode_peer_batch(
    const std::vector<std::uint8_t>& payload, WireError* error) {
  return decode_payload<PeerBatch>(payload, error);
}

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kConfig: return "config";
    case FrameType::kStepGo: return "step_go";
    case FrameType::kStepDone: return "step_done";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kTargets: return "targets";
    case FrameType::kReport: return "report";
    case FrameType::kShutdown: return "shutdown";
    case FrameType::kMetricsReport: return "metrics_report";
    case FrameType::kFlightDump: return "flight_dump";
    case FrameType::kPeerBatch: return "peer_batch";
  }
  return "unknown";
}

}  // namespace aces::runtime::wire
