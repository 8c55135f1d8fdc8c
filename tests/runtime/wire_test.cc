#include "runtime/wire.h"

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "metrics/run_report.h"

namespace aces::runtime::wire {
namespace {

// ---------------------------------------------------------------------------
// Seeded random payload builders. Every field is drawn from the full value
// range the codec claims to support (including NaN-free doubles of both
// signs, empty and large vectors, embedded NULs in strings).

double random_double(Rng& rng) {
  switch (rng.uniform_int(0, 4)) {
    case 0:
      return 0.0;
    case 1:
      return -rng.exponential(1e6);
    case 2:
      return rng.uniform(-1.0, 1.0) * 1e-300;
    case 3:
      return std::numeric_limits<double>::infinity();
    default:
      return rng.uniform(-1e9, 1e9);
  }
}

std::string random_string(Rng& rng, std::size_t max_len) {
  const auto len = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::string s(len, '\0');
  for (char& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
  return s;
}

std::vector<double> random_doubles(Rng& rng, std::size_t max_len) {
  std::vector<double> v(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len))));
  for (double& d : v) d = random_double(rng);
  return v;
}

std::vector<std::uint32_t> random_u32s(Rng& rng, std::size_t max_len) {
  std::vector<std::uint32_t> v(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len))));
  for (std::uint32_t& x : v) {
    x = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFFFFFFLL));
  }
  return v;
}

std::vector<SdoDelivery> random_deliveries(Rng& rng, std::size_t max_len) {
  std::vector<SdoDelivery> v(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len))));
  for (SdoDelivery& d : v) {
    d.dest_pe = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
    d.src_node = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 16));
    d.birth = random_double(rng);
  }
  return v;
}

std::vector<Advert> random_adverts(Rng& rng, std::size_t max_len) {
  std::vector<Advert> v(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len))));
  for (Advert& a : v) {
    a.pe = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
    a.rmax = random_double(rng);
    a.time = random_double(rng);
  }
  return v;
}

Hello random_hello(Rng& rng) {
  Hello h;
  h.rank = static_cast<std::uint32_t>(rng.uniform_int(0, 0xFFFF));
  return h;
}

Config random_config(Rng& rng) {
  Config c;
  c.rank = static_cast<std::uint32_t>(rng.uniform_int(0, 255));
  c.num_workers = static_cast<std::uint32_t>(rng.uniform_int(1, 256));
  c.substeps = static_cast<std::uint32_t>(rng.uniform_int(1, 64));
  c.seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 40));
  c.duration = rng.uniform(0.0, 1e4);
  c.warmup = rng.uniform(0.0, 1e3);
  c.dt = rng.uniform(1e-3, 10.0);
  c.policy = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  c.staleness = random_double(rng);
  c.channel_capacity = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 16));
  c.heartbeat_interval = rng.uniform(0.0, 5.0);
  c.start_quantum = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 24));
  c.topology = random_string(rng, 2048);
  c.faults = random_string(rng, 256);
  c.plan_cpu = random_doubles(rng, 64);
  c.span_sample = rng.uniform(0.0, 1.0);
  c.record_trace = rng.bernoulli(0.5) ? 1 : 0;
  return c;
}

obs::SdoSpan random_span(Rng& rng) {
  obs::SdoSpan s;
  s.trace_id = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 40));
  s.source_pe = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
  s.start = random_double(rng);
  s.end = random_double(rng);
  s.dropped = rng.bernoulli(0.3);
  s.truncated = rng.bernoulli(0.1);
  s.hop_count = static_cast<std::uint32_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(obs::SdoSpan::kMaxHops)));
  for (std::uint32_t i = 0; i < s.hop_count; ++i) {
    s.hops[i].pe = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
    s.hops[i].kind = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
    s.hops[i].enqueue = random_double(rng);
    s.hops[i].dequeue = random_double(rng);
    s.hops[i].emit = random_double(rng);
  }
  return s;
}

/// Handoffs naming random deliveries; the codec carries any index, so the
/// indices need not be in range or in order.
std::vector<SpanHandoff> random_handoffs(Rng& rng, std::size_t max_len) {
  std::vector<SpanHandoff> v(static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len))));
  for (SpanHandoff& h : v) {
    h.delivery = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 10));
    h.span = random_span(rng);
  }
  return v;
}

StepGo random_step_go(Rng& rng) {
  StepGo g;
  g.quantum = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 32));
  g.flags = rng.bernoulli(0.5) ? kStepGoFinal : 0;
  g.deliveries = random_deliveries(rng, 128);
  g.spans = random_handoffs(rng, 6);
  g.adverts = random_adverts(rng, 64);
  g.congested_pes = random_u32s(rng, 32);
  g.down_nodes = random_u32s(rng, 8);
  g.up_nodes = random_u32s(rng, 8);
  return g;
}

StepDone random_step_done(Rng& rng) {
  StepDone d;
  d.quantum = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 32));
  d.deliveries = random_deliveries(rng, 128);
  d.spans = random_handoffs(rng, 6);
  d.adverts = random_adverts(rng, 64);
  d.congested_pes = random_u32s(rng, 32);
  return d;
}

Targets random_targets(Rng& rng) {
  Targets t;
  t.cpu = random_doubles(rng, 64);
  return t;
}

obs::TickRecord random_tick(Rng& rng) {
  obs::TickRecord t;
  t.time = rng.uniform(0.0, 1e3);
  t.node = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 16));
  t.pe = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 20));
  t.buffer_occupancy = random_double(rng);
  t.arrived_sdos = random_double(rng);
  t.processed_sdos = random_double(rng);
  t.cpu_share = random_double(rng);
  t.cpu_seconds_used = random_double(rng);
  t.advertised_rmax = random_double(rng);
  t.downstream_rmax = random_double(rng);
  t.token_fill = random_double(rng);
  t.output_blocked = rng.bernoulli(0.5);
  t.dropped_total = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
  t.fault_flags = static_cast<std::uint8_t>(rng.uniform_int(0, 3));
  t.policy = random_string(rng, 16);
  return t;
}

MetricsReport random_metrics_report(Rng& rng) {
  MetricsReport m;
  m.quantum = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 32));
  const auto counters = static_cast<std::size_t>(rng.uniform_int(0, 8));
  for (std::size_t i = 0; i < counters; ++i) {
    m.counters.push_back(
        {random_string(rng, 32),
         static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30))});
  }
  const auto gauges = static_cast<std::size_t>(rng.uniform_int(0, 4));
  for (std::size_t i = 0; i < gauges; ++i) {
    m.gauges.push_back({random_string(rng, 32), random_double(rng)});
  }
  const auto perf = static_cast<std::size_t>(rng.uniform_int(0, 6));
  for (std::size_t i = 0; i < perf; ++i) {
    m.perf.push_back(
        {random_string(rng, 24),
         static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30)),
         static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 40))});
  }
  const auto ticks = static_cast<std::size_t>(rng.uniform_int(0, 6));
  for (std::size_t i = 0; i < ticks; ++i) m.trace.push_back(random_tick(rng));
  const auto spans = static_cast<std::size_t>(rng.uniform_int(0, 6));
  for (std::size_t i = 0; i < spans; ++i) m.spans.push_back(random_span(rng));
  return m;
}

obs::FlightDump random_flight_dump(Rng& rng) {
  obs::FlightDump d;
  d.event = random_string(rng, 32);
  d.time = rng.uniform(0.0, 1e3);
  d.pushed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 24));
  const auto recent = static_cast<std::size_t>(rng.uniform_int(0, 6));
  for (std::size_t i = 0; i < recent; ++i) d.recent.push_back(random_span(rng));
  const auto inflight = static_cast<std::size_t>(rng.uniform_int(0, 6));
  for (std::size_t i = 0; i < inflight; ++i) {
    d.in_flight.push_back(random_span(rng));
  }
  return d;
}

Report random_report(Rng& rng) {
  Report r;
  metrics::RunReport& rep = r.report;
  rep.measured_seconds = rng.uniform(0.0, 1e4);
  rep.weighted_throughput = random_double(rng);
  rep.output_rate = random_double(rng);
  const int latency_samples = static_cast<int>(rng.uniform_int(0, 64));
  for (int i = 0; i < latency_samples; ++i) {
    const double sample = rng.exponential(0.1);
    rep.latency.add(sample);
    rep.latency_histogram.add(sample);
  }
  rep.internal_drops = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
  rep.ingress_drops = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
  rep.sdos_processed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  rep.cpu_utilization = rng.uniform(0.0, 1.0);
  const int fill_samples = static_cast<int>(rng.uniform_int(0, 16));
  for (int i = 0; i < fill_samples; ++i) rep.buffer_fill.add(rng.uniform());
  const auto egress = static_cast<std::size_t>(rng.uniform_int(0, 8));
  for (std::size_t i = 0; i < egress; ++i) {
    rep.egress_outputs.push_back(
        static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20)));
  }
  rep.per_pe.resize(static_cast<std::size_t>(rng.uniform_int(0, 32)));
  for (metrics::PeAccounting& pe : rep.per_pe) {
    pe.arrived = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    pe.processed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    pe.emitted = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    pe.dropped_input = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 16));
    pe.cpu_seconds = rng.uniform(0.0, 1e3);
  }
  rep.events_executed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  rep.reoptimizations = static_cast<std::uint64_t>(rng.uniform_int(0, 64));
  return r;
}

// ---------------------------------------------------------------------------
// Bit-exact equality helpers (NaN-free by construction; infinities and
// signed zeros must survive, so compare bit patterns, not values).

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof a);
  std::memcpy(&bb, &b, sizeof b);
  return ba == bb;
}

void expect_eq(const SdoDelivery& a, const SdoDelivery& b) {
  EXPECT_EQ(a.dest_pe, b.dest_pe);
  EXPECT_EQ(a.src_node, b.src_node);
  EXPECT_TRUE(bits_equal(a.birth, b.birth));
}

void expect_eq(const Advert& a, const Advert& b) {
  EXPECT_EQ(a.pe, b.pe);
  EXPECT_TRUE(bits_equal(a.rmax, b.rmax));
  EXPECT_TRUE(bits_equal(a.time, b.time));
}

void expect_eq(const obs::SdoSpan& a, const obs::SdoSpan& b) {
  EXPECT_EQ(a.trace_id, b.trace_id);
  EXPECT_EQ(a.source_pe, b.source_pe);
  EXPECT_TRUE(bits_equal(a.start, b.start));
  EXPECT_TRUE(bits_equal(a.end, b.end));
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.truncated, b.truncated);
  ASSERT_EQ(a.hop_count, b.hop_count);
  for (std::uint32_t i = 0; i < a.hop_count; ++i) {
    EXPECT_EQ(a.hops[i].pe, b.hops[i].pe);
    EXPECT_EQ(a.hops[i].kind, b.hops[i].kind);
    EXPECT_TRUE(bits_equal(a.hops[i].enqueue, b.hops[i].enqueue));
    EXPECT_TRUE(bits_equal(a.hops[i].dequeue, b.hops[i].dequeue));
    EXPECT_TRUE(bits_equal(a.hops[i].emit, b.hops[i].emit));
  }
}

void expect_eq(const obs::TickRecord& a, const obs::TickRecord& b) {
  EXPECT_TRUE(bits_equal(a.time, b.time));
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.pe, b.pe);
  EXPECT_TRUE(bits_equal(a.buffer_occupancy, b.buffer_occupancy));
  EXPECT_TRUE(bits_equal(a.arrived_sdos, b.arrived_sdos));
  EXPECT_TRUE(bits_equal(a.processed_sdos, b.processed_sdos));
  EXPECT_TRUE(bits_equal(a.cpu_share, b.cpu_share));
  EXPECT_TRUE(bits_equal(a.cpu_seconds_used, b.cpu_seconds_used));
  EXPECT_TRUE(bits_equal(a.advertised_rmax, b.advertised_rmax));
  EXPECT_TRUE(bits_equal(a.downstream_rmax, b.downstream_rmax));
  EXPECT_TRUE(bits_equal(a.token_fill, b.token_fill));
  EXPECT_EQ(a.output_blocked, b.output_blocked);
  EXPECT_EQ(a.dropped_total, b.dropped_total);
  EXPECT_EQ(a.fault_flags, b.fault_flags);
  EXPECT_EQ(a.policy, b.policy);
}

void expect_eq(const SpanHandoff& a, const SpanHandoff& b) {
  EXPECT_EQ(a.delivery, b.delivery);
  expect_eq(a.span, b.span);
}

template <typename T, typename F>
void expect_vec_eq(const std::vector<T>& a, const std::vector<T>& b, F&& cmp) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) cmp(a[i], b[i]);
}

void expect_doubles_eq(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(bits_equal(a[i], b[i])) << "index " << i;
  }
}

/// Strips the 8-byte header off a complete encoded frame, checking the type.
std::vector<std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame,
                                     FrameType want) {
  auto parsed = parse_frame(frame.data(), frame.size());
  EXPECT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, want);
  return parsed ? parsed->payload : std::vector<std::uint8_t>{};
}

// ---------------------------------------------------------------------------
// Round-trips: 500+ seeded encode→decode cycles across all frame types.

TEST(WireRoundTrip, HelloSeeded) {
  Rng rng(0xA11CE);
  for (int i = 0; i < 100; ++i) {
    const Hello in = random_hello(rng);
    const auto out =
        decode_hello(payload_of(encode(in), FrameType::kHello));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->rank, in.rank);
  }
}

TEST(WireRoundTrip, ConfigSeeded) {
  Rng rng(0xC0F16);
  for (int i = 0; i < 100; ++i) {
    const Config in = random_config(rng);
    const auto out =
        decode_config(payload_of(encode(in), FrameType::kConfig));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->rank, in.rank);
    EXPECT_EQ(out->num_workers, in.num_workers);
    EXPECT_EQ(out->substeps, in.substeps);
    EXPECT_EQ(out->seed, in.seed);
    EXPECT_TRUE(bits_equal(out->duration, in.duration));
    EXPECT_TRUE(bits_equal(out->warmup, in.warmup));
    EXPECT_TRUE(bits_equal(out->dt, in.dt));
    EXPECT_EQ(out->policy, in.policy);
    EXPECT_TRUE(bits_equal(out->staleness, in.staleness));
    EXPECT_EQ(out->channel_capacity, in.channel_capacity);
    EXPECT_TRUE(bits_equal(out->heartbeat_interval, in.heartbeat_interval));
    EXPECT_EQ(out->start_quantum, in.start_quantum);
    EXPECT_EQ(out->topology, in.topology);
    EXPECT_EQ(out->faults, in.faults);
    expect_doubles_eq(out->plan_cpu, in.plan_cpu);
    EXPECT_TRUE(bits_equal(out->span_sample, in.span_sample));
    EXPECT_EQ(out->record_trace, in.record_trace);
  }
}

TEST(WireRoundTrip, StepGoSeeded) {
  Rng rng(0x60);
  for (int i = 0; i < 100; ++i) {
    const StepGo in = random_step_go(rng);
    const auto out =
        decode_step_go(payload_of(encode(in), FrameType::kStepGo));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->quantum, in.quantum);
    EXPECT_EQ(out->flags, in.flags);
    expect_vec_eq(out->deliveries, in.deliveries,
                  [](const auto& a, const auto& b) { expect_eq(a, b); });
    expect_vec_eq(out->spans, in.spans,
                  [](const auto& a, const auto& b) { expect_eq(a, b); });
    expect_vec_eq(out->adverts, in.adverts,
                  [](const auto& a, const auto& b) { expect_eq(a, b); });
    EXPECT_EQ(out->congested_pes, in.congested_pes);
    EXPECT_EQ(out->down_nodes, in.down_nodes);
    EXPECT_EQ(out->up_nodes, in.up_nodes);
  }
}

TEST(WireRoundTrip, StepDoneSeeded) {
  Rng rng(0xD0E);
  for (int i = 0; i < 100; ++i) {
    const StepDone in = random_step_done(rng);
    const auto out =
        decode_step_done(payload_of(encode(in), FrameType::kStepDone));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->quantum, in.quantum);
    expect_vec_eq(out->deliveries, in.deliveries,
                  [](const auto& a, const auto& b) { expect_eq(a, b); });
    expect_vec_eq(out->spans, in.spans,
                  [](const auto& a, const auto& b) { expect_eq(a, b); });
    expect_vec_eq(out->adverts, in.adverts,
                  [](const auto& a, const auto& b) { expect_eq(a, b); });
    EXPECT_EQ(out->congested_pes, in.congested_pes);
  }
}

TEST(WireRoundTrip, HeartbeatAndTargetsSeeded) {
  Rng rng(0xBEA7);
  EXPECT_TRUE(
      decode_heartbeat(payload_of(encode(Heartbeat{}), FrameType::kHeartbeat))
          .has_value());
  for (int i = 0; i < 100; ++i) {
    const Targets tin = random_targets(rng);
    const auto tout =
        decode_targets(payload_of(encode(tin), FrameType::kTargets));
    ASSERT_TRUE(tout.has_value());
    expect_doubles_eq(tout->cpu, tin.cpu);
  }
}

TEST(WireRoundTrip, ReportSeeded) {
  Rng rng(0x3E9);
  for (int i = 0; i < 100; ++i) {
    const Report in = random_report(rng);
    const auto out =
        decode_report(payload_of(encode(in), FrameType::kReport));
    ASSERT_TRUE(out.has_value());
    const metrics::RunReport& a = out->report;
    const metrics::RunReport& b = in.report;
    EXPECT_TRUE(bits_equal(a.measured_seconds, b.measured_seconds));
    EXPECT_TRUE(bits_equal(a.weighted_throughput, b.weighted_throughput));
    EXPECT_TRUE(bits_equal(a.output_rate, b.output_rate));
    // The accumulators must transfer bit-exactly (from_raw round trip).
    EXPECT_EQ(a.latency.count(), b.latency.count());
    EXPECT_TRUE(bits_equal(a.latency.mean(), b.latency.mean()));
    EXPECT_TRUE(bits_equal(a.latency.m2(), b.latency.m2()));
    EXPECT_TRUE(bits_equal(a.latency.min(), b.latency.min()));
    EXPECT_TRUE(bits_equal(a.latency.max(), b.latency.max()));
    EXPECT_EQ(a.latency_histogram.count(), b.latency_histogram.count());
    EXPECT_TRUE(bits_equal(a.latency_histogram.p99(),
                           b.latency_histogram.p99()));
    EXPECT_EQ(a.internal_drops, b.internal_drops);
    EXPECT_EQ(a.ingress_drops, b.ingress_drops);
    EXPECT_EQ(a.sdos_processed, b.sdos_processed);
    EXPECT_TRUE(bits_equal(a.cpu_utilization, b.cpu_utilization));
    EXPECT_EQ(a.buffer_fill.count(), b.buffer_fill.count());
    EXPECT_TRUE(bits_equal(a.buffer_fill.mean(), b.buffer_fill.mean()));
    EXPECT_EQ(a.egress_outputs, b.egress_outputs);
    ASSERT_EQ(a.per_pe.size(), b.per_pe.size());
    for (std::size_t p = 0; p < a.per_pe.size(); ++p) {
      EXPECT_EQ(a.per_pe[p].arrived, b.per_pe[p].arrived);
      EXPECT_EQ(a.per_pe[p].processed, b.per_pe[p].processed);
      EXPECT_EQ(a.per_pe[p].emitted, b.per_pe[p].emitted);
      EXPECT_EQ(a.per_pe[p].dropped_input, b.per_pe[p].dropped_input);
      EXPECT_TRUE(bits_equal(a.per_pe[p].cpu_seconds, b.per_pe[p].cpu_seconds));
    }
    EXPECT_EQ(a.events_executed, b.events_executed);
    EXPECT_EQ(a.reoptimizations, b.reoptimizations);
  }
}

TEST(WireRoundTrip, MetricsReportSeeded) {
  Rng rng(0x3E721C5);
  for (int i = 0; i < 100; ++i) {
    const MetricsReport in = random_metrics_report(rng);
    const auto out = decode_metrics_report(
        payload_of(encode(in), FrameType::kMetricsReport));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->quantum, in.quantum);
    expect_vec_eq(out->counters, in.counters,
                  [](const auto& a, const auto& b) {
                    EXPECT_EQ(a.name, b.name);
                    EXPECT_EQ(a.delta, b.delta);
                  });
    expect_vec_eq(out->gauges, in.gauges, [](const auto& a, const auto& b) {
      EXPECT_EQ(a.name, b.name);
      EXPECT_TRUE(bits_equal(a.value, b.value));
    });
    expect_vec_eq(out->perf, in.perf, [](const auto& a, const auto& b) {
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.calls, b.calls);
      EXPECT_EQ(a.ns, b.ns);
    });
    expect_vec_eq(out->trace, in.trace,
                  [](const auto& a, const auto& b) { expect_eq(a, b); });
    expect_vec_eq(out->spans, in.spans,
                  [](const auto& a, const auto& b) { expect_eq(a, b); });
  }
}

TEST(WireRoundTrip, FlightDumpSeeded) {
  Rng rng(0xF11647);
  for (int i = 0; i < 100; ++i) {
    const obs::FlightDump in = random_flight_dump(rng);
    const auto out =
        decode_flight_dump(payload_of(encode(in), FrameType::kFlightDump));
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->event, in.event);
    EXPECT_TRUE(bits_equal(out->time, in.time));
    EXPECT_EQ(out->pushed, in.pushed);
    expect_vec_eq(out->recent, in.recent,
                  [](const auto& a, const auto& b) { expect_eq(a, b); });
    expect_vec_eq(out->in_flight, in.in_flight,
                  [](const auto& a, const auto& b) { expect_eq(a, b); });
  }
}

TEST(WireRoundTrip, Shutdown) {
  const auto frame = encode_shutdown();
  const auto parsed = parse_frame(frame.data(), frame.size());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, FrameType::kShutdown);
  EXPECT_TRUE(parsed->payload.empty());
}

// ---------------------------------------------------------------------------
// Golden byte fixtures: pin the layout so a codec change that silently
// breaks cross-version compatibility fails loudly. Regenerate by printing
// the encoder output — but a mismatch means the wire version must bump.

TEST(WireGolden, HeaderLayout) {
  const auto h = frame_header(FrameType::kStepGo, 0xAABBCCDD);
  const std::uint8_t want[8] = {0xE5, 0xAC, 0x04, 0x03, 0xDD, 0xCC, 0xBB, 0xAA};
  EXPECT_EQ(0, std::memcmp(h.data(), want, sizeof want));
}

TEST(WireGolden, HelloBytes) {
  Hello h;
  h.rank = 0x01020304;
  const auto frame = encode(h);
  const std::uint8_t want[] = {
      0xE5, 0xAC, 0x04, 0x01, 0x04, 0x00, 0x00, 0x00,  // header, len 4
      0x04, 0x03, 0x02, 0x01,                          // rank LE
  };
  ASSERT_EQ(frame.size(), sizeof want);
  EXPECT_EQ(0, std::memcmp(frame.data(), want, sizeof want));
}

TEST(WireGolden, HeartbeatBytes) {
  const auto frame = encode(Heartbeat{});
  const std::uint8_t want[] = {
      0xE5, 0xAC, 0x04, 0x05, 0x00, 0x00, 0x00, 0x00,  // header, no payload
  };
  ASSERT_EQ(frame.size(), sizeof want);
  EXPECT_EQ(0, std::memcmp(frame.data(), want, sizeof want));
}

TEST(WireGolden, ShutdownBytes) {
  const auto frame = encode_shutdown();
  const std::uint8_t want[] = {
      0xE5, 0xAC, 0x04, 0x08, 0x00, 0x00, 0x00, 0x00,  // header, no payload
  };
  ASSERT_EQ(frame.size(), sizeof want);
  EXPECT_EQ(0, std::memcmp(frame.data(), want, sizeof want));
}

TEST(WireGolden, MetricsReportBytes) {
  MetricsReport m;
  m.quantum = 2;
  m.counters.push_back({"a", 3});
  const auto frame = encode(m);
  const std::uint8_t want[] = {
      0xE5, 0xAC, 0x04, 0x09, 0x29, 0x00, 0x00, 0x00,  // header, len 41
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // quantum
      0x01, 0x00, 0x00, 0x00,                          // 1 counter
      0x01, 0x00, 0x00, 0x00, 0x61,                    // name "a"
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // delta 3
      0x00, 0x00, 0x00, 0x00,                          // 0 gauges
      0x00, 0x00, 0x00, 0x00,                          // 0 perf cells
      0x00, 0x00, 0x00, 0x00,                          // 0 trace records
      0x00, 0x00, 0x00, 0x00,                          // 0 spans
  };
  ASSERT_EQ(frame.size(), sizeof want);
  EXPECT_EQ(0, std::memcmp(frame.data(), want, sizeof want));
}

TEST(WireGolden, FlightDumpBytes) {
  obs::FlightDump d;
  d.event = "x";
  d.time = 0.0;
  d.pushed = 5;
  const auto frame = encode(d);
  const std::uint8_t want[] = {
      0xE5, 0xAC, 0x04, 0x0A, 0x1D, 0x00, 0x00, 0x00,  // header, len 29
      0x01, 0x00, 0x00, 0x00, 0x78,                    // event "x"
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // time 0.0
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // pushed
      0x00, 0x00, 0x00, 0x00,                          // 0 recent
      0x00, 0x00, 0x00, 0x00,                          // 0 in flight
  };
  ASSERT_EQ(frame.size(), sizeof want);
  EXPECT_EQ(0, std::memcmp(frame.data(), want, sizeof want));
}

TEST(WireGolden, ConfigBytes) {
  Config c;
  c.rank = 1;
  c.num_workers = 2;
  c.substeps = 4;
  c.seed = 5;
  c.duration = 2.0;
  c.warmup = 0.5;
  c.dt = 0.25;
  c.policy = 3;
  c.staleness = 0.0;
  c.channel_capacity = 16;
  c.heartbeat_interval = 1.0;
  c.start_quantum = 9;
  c.topology = "t";
  c.faults = "";
  c.plan_cpu = {1.0};
  c.span_sample = 0.5;
  c.record_trace = 1;
  const auto frame = encode(c);
  const std::uint8_t want[] = {
      0xE5, 0xAC, 0x04, 0x02, 0x67, 0x00, 0x00, 0x00,  // header, len 103
      0x01, 0x00, 0x00, 0x00,                          // rank
      0x02, 0x00, 0x00, 0x00,                          // num_workers
      0x04, 0x00, 0x00, 0x00,                          // substeps
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // seed
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,  // duration 2.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // warmup 0.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F,  // dt 0.25
      0x03,                                            // policy
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // staleness 0.0
      0x10, 0x00, 0x00, 0x00,                          // channel_capacity
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // heartbeat 1.0
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // start_quantum
      0x01, 0x00, 0x00, 0x00, 0x74,                    // topology "t"
      0x00, 0x00, 0x00, 0x00,                          // faults ""
      0x01, 0x00, 0x00, 0x00,                          // 1 plan_cpu entry
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  //   1.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // span_sample 0.5
      0x01,                                            // record_trace
  };
  ASSERT_EQ(frame.size(), sizeof want);
  EXPECT_EQ(0, std::memcmp(frame.data(), want, sizeof want));
}

TEST(WireGolden, StepGoBytes) {
  StepGo g;
  g.quantum = 3;
  g.flags = kStepGoFinal;
  g.deliveries.push_back(SdoDelivery{2, 1, 0.5});
  obs::SdoSpan s;  // in flight: one PE visit so far
  s.trace_id = 7;
  s.source_pe = 1;
  s.start = 0.0;
  s.hop_count = 1;
  s.hops[0] = {1, static_cast<std::uint32_t>(obs::HopKind::kPe), 0.0, 0.0,
               0.25};
  g.spans.push_back(SpanHandoff{0, s});
  g.adverts.push_back(Advert{4, 2.0, 0.25});
  g.congested_pes = {5};
  g.up_nodes = {6};
  const auto frame = encode(g);
  const std::uint8_t want[] = {
      0xE5, 0xAC, 0x04, 0x03, 0x90, 0x00, 0x00, 0x00,  // header, len 144
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // quantum
      0x01,                                            // flags: final
      0x01, 0x00, 0x00, 0x00,                          // 1 delivery
      0x02, 0x00, 0x00, 0x00,                          //   dest_pe
      0x01, 0x00, 0x00, 0x00,                          //   src_node
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  //   birth 0.5
      0x01, 0x00, 0x00, 0x00,                          // 1 span handoff
      0x00, 0x00, 0x00, 0x00,                          //   delivery 0
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   trace_id
      0x01, 0x00, 0x00, 0x00,                          //   source_pe
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   start 0.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0xBF,  //   end -1.0
      0x00, 0x00, 0x01,                                //   flags, hop_count
      0x01, 0x00, 0x00, 0x00,                          //   hop pe
      0x00, 0x00, 0x00, 0x00,                          //   hop kind (kPe)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   enqueue 0.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   dequeue 0.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F,  //   emit 0.25
      0x01, 0x00, 0x00, 0x00,                          // 1 advert
      0x04, 0x00, 0x00, 0x00,                          //   pe
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,  //   rmax 2.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F,  //   time 0.25
      0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,  // congested_pes {5}
      0x00, 0x00, 0x00, 0x00,                          // down_nodes {}
      0x01, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,  // up_nodes {6}
  };
  ASSERT_EQ(frame.size(), sizeof want);
  EXPECT_EQ(0, std::memcmp(frame.data(), want, sizeof want));
}

TEST(WireGolden, StepDoneBytes) {
  StepDone d;
  d.quantum = 4;
  d.deliveries.push_back(SdoDelivery{7, 2, 1.0});
  obs::SdoSpan s;  // leaving its worker: a PE visit, then the send hop
  s.trace_id = 9;
  s.source_pe = 2;
  s.start = 0.5;
  s.hop_count = 2;
  s.hops[0] = {2, static_cast<std::uint32_t>(obs::HopKind::kPe), 0.5, 0.5,
               1.0};
  s.hops[1] = {2, static_cast<std::uint32_t>(obs::HopKind::kWireSend), 1.25,
               1.25, 1.25};
  d.spans.push_back(SpanHandoff{0, s});
  d.adverts.push_back(Advert{3, 0.5, 2.0});
  d.congested_pes = {5};
  const auto frame = encode(d);
  const std::uint8_t want[] = {
      0xE5, 0xAC, 0x04, 0x04, 0xA3, 0x00, 0x00, 0x00,  // header, len 163
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // quantum
      0x01, 0x00, 0x00, 0x00,                          // 1 delivery
      0x07, 0x00, 0x00, 0x00,                          //   dest_pe
      0x02, 0x00, 0x00, 0x00,                          //   src_node
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  //   birth 1.0
      0x01, 0x00, 0x00, 0x00,                          // 1 span handoff
      0x00, 0x00, 0x00, 0x00,                          //   delivery 0
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   trace_id
      0x02, 0x00, 0x00, 0x00,                          //   source_pe
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  //   start 0.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0xBF,  //   end -1.0
      0x00, 0x00, 0x02,                                //   flags, hop_count
      0x02, 0x00, 0x00, 0x00,                          //   hop pe
      0x00, 0x00, 0x00, 0x00,                          //   hop kind (kPe)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  //   enqueue 0.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  //   dequeue 0.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  //   emit 1.0
      0x02, 0x00, 0x00, 0x00,                          //   hop pe
      0x02, 0x00, 0x00, 0x00,                          //   kind (kWireSend)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF4, 0x3F,  //   enqueue 1.25
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF4, 0x3F,  //   dequeue 1.25
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF4, 0x3F,  //   emit 1.25
      0x01, 0x00, 0x00, 0x00,                          // 1 advert
      0x03, 0x00, 0x00, 0x00,                          //   pe
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  //   rmax 0.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,  //   time 2.0
      0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,  // congested_pes {5}
  };
  ASSERT_EQ(frame.size(), sizeof want);
  EXPECT_EQ(0, std::memcmp(frame.data(), want, sizeof want));
}

TEST(WireGolden, TargetsBytes) {
  Targets t;
  t.cpu = {0.5, 2.0};
  const auto frame = encode(t);
  const std::uint8_t want[] = {
      0xE5, 0xAC, 0x04, 0x06, 0x14, 0x00, 0x00, 0x00,  // header, len 20
      0x02, 0x00, 0x00, 0x00,                          // 2 cpu targets
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  //   0.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,  //   2.0
  };
  ASSERT_EQ(frame.size(), sizeof want);
  EXPECT_EQ(0, std::memcmp(frame.data(), want, sizeof want));
}

TEST(WireGolden, ReportBytes) {
  Report r;
  metrics::RunReport& rep = r.report;
  rep.measured_seconds = 2.0;
  rep.weighted_throughput = 0.5;
  rep.output_rate = 1.0;
  rep.latency = OnlineStats::from_raw(2, 2.0, 8.0, 0.0, 4.0);
  rep.latency_histogram.add(1e5);  // both samples land in the overflow cell
  rep.latency_histogram.add(2e5);
  rep.internal_drops = 3;
  rep.ingress_drops = 4;
  rep.sdos_processed = 5;
  rep.cpu_utilization = 0.25;
  rep.egress_outputs = {6};
  rep.per_pe.push_back(metrics::PeAccounting{7, 8, 9, 10, 0.5});
  rep.events_executed = 11;
  rep.reoptimizations = 12;
  const auto frame = encode(r);
  std::vector<std::uint8_t> want = {
      0xE5, 0xAC, 0x04, 0x07, 0x44, 0x07, 0x00, 0x00,  // header, len 1860
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,  // measured_seconds 2.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  // weighted_tput 0.5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // output_rate 1.0
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // latency: count 2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,  //   mean 2.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x40,  //   m2 8.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   min 0.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x40,  //   max 4.0
      0xCA, 0x00, 0x00, 0x00,                          // histogram: 202 cells
  };
  want.insert(want.end(), 201 * 8, 0x00);  // underflow + 200 interior: empty
  const std::uint8_t tail[] = {
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   overflow cell 2
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   count 2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x6A, 0xF8, 0x40,  //   min 1e5
      0x00, 0x00, 0x00, 0x00, 0x00, 0x6A, 0x08, 0x41,  //   max 2e5
      0x00, 0x00, 0x00, 0x00, 0x80, 0x4F, 0x12, 0x41,  //   sum 3e5
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // internal_drops
      0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // ingress_drops
      0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // sdos_processed
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F,  // cpu_utilization 0.25
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // buffer_fill: count 0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   mean 0.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   m2 0.0
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x7F,  //   min +inf (empty)
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0xFF,  //   max -inf (empty)
      0x01, 0x00, 0x00, 0x00,                          // 1 egress output
      0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   6
      0x01, 0x00, 0x00, 0x00,                          // 1 per-PE entry
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   arrived
      0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   processed
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   emitted
      0x0A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //   dropped_input
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,  //   cpu_seconds 0.5
      0x0B, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // events_executed
      0x0C, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // reoptimizations
  };
  want.insert(want.end(), std::begin(tail), std::end(tail));
  EXPECT_EQ(frame, want);
}

TEST(WireGolden, DoubleIsIeeeBitsLe) {
  // 1.0 = 0x3FF0000000000000; the advert codec must emit exactly those
  // bytes little-endian, not a text round trip.
  StepGo g;
  g.quantum = 0;
  g.adverts.push_back(Advert{5, 1.0, -0.0});
  const auto frame = encode(g);
  // Find the 8-byte pattern for 1.0 in the payload.
  const std::uint8_t one[] = {0, 0, 0, 0, 0, 0, 0xF0, 0x3F};
  const std::uint8_t neg_zero[] = {0, 0, 0, 0, 0, 0, 0, 0x80};
  auto contains = [&frame](const std::uint8_t* pat, std::size_t n) {
    for (std::size_t i = 0; i + n <= frame.size(); ++i) {
      if (std::memcmp(frame.data() + i, pat, n) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains(one, sizeof one));
  EXPECT_TRUE(contains(neg_zero, sizeof neg_zero));
}

// ---------------------------------------------------------------------------
// Malformed input: truncation, bad magic/version/type, oversized lengths,
// and trailing garbage must yield errors — never UB, never a throw.

TEST(WireReject, TruncatedAtEveryByte) {
  Rng rng(0x7241);
  const StepGo in = random_step_go(rng);
  const auto frame = encode(in);
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    WireError err;
    const auto parsed = parse_frame(frame.data(), cut, &err);
    EXPECT_FALSE(parsed.has_value()) << "cut at " << cut;
    EXPECT_FALSE(err.reason.empty());
  }
}

TEST(WireReject, TruncatedPayloadAtEveryByte) {
  Rng rng(0x7242);
  StepDone in = random_step_done(rng);
  in.spans.push_back(SpanHandoff{0, random_span(rng)});  // a span cut too
  auto payload = payload_of(encode(in), FrameType::kStepDone);
  ASSERT_FALSE(payload.empty());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<std::uint8_t> truncated(payload.begin(),
                                        payload.begin() + cut);
    WireError err;
    const auto out = decode_step_done(truncated, &err);
    EXPECT_FALSE(out.has_value()) << "cut at " << cut;
    EXPECT_FALSE(err.reason.empty());
  }
}

TEST(WireReject, TrailingBytes) {
  Heartbeat hb;
  auto payload = payload_of(encode(hb), FrameType::kHeartbeat);
  payload.push_back(0x00);
  WireError err;
  EXPECT_FALSE(decode_heartbeat(payload, &err).has_value());
  EXPECT_FALSE(err.reason.empty());
}

TEST(WireReject, BadMagic) {
  auto frame = encode(Hello{});
  frame[0] ^= 0xFF;
  WireError err;
  EXPECT_FALSE(parse_frame(frame.data(), frame.size(), &err).has_value());
  EXPECT_NE(err.reason.find("magic"), std::string::npos);
}

TEST(WireReject, BadVersion) {
  auto frame = encode(Hello{});
  frame[2] = kWireVersion + 1;
  WireError err;
  EXPECT_FALSE(parse_frame(frame.data(), frame.size(), &err).has_value());
  EXPECT_NE(err.reason.find("version"), std::string::npos);
  // A version-3 peer is refused at the header, before any field is read.
  ASSERT_EQ(kWireVersion, 4);
  frame[2] = 3;
  WireError v3;
  EXPECT_FALSE(parse_frame(frame.data(), frame.size(), &v3).has_value());
  EXPECT_EQ(v3.reason, "unsupported wire version");
}

TEST(WireReject, BadFrameType) {
  auto frame = encode(Hello{});
  frame[3] = 0;  // below the valid range
  WireError err;
  EXPECT_FALSE(parse_frame(frame.data(), frame.size(), &err).has_value());
  frame[3] = 200;  // above the valid range
  EXPECT_FALSE(parse_frame(frame.data(), frame.size(), &err).has_value());
}

TEST(WireReject, OversizedLength) {
  auto frame = encode(Hello{});
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(frame.data() + 4, &huge, sizeof huge);
  WireError err;
  EXPECT_FALSE(parse_frame(frame.data(), frame.size(), &err).has_value());
  EXPECT_FALSE(err.reason.empty());
}

TEST(WireReject, LengthLongerThanBuffer) {
  auto frame = encode(Hello{});
  const std::uint32_t claim = 1024;  // sane length, but buffer is shorter
  std::memcpy(frame.data() + 4, &claim, sizeof claim);
  WireError err;
  EXPECT_FALSE(parse_frame(frame.data(), frame.size(), &err).has_value());
  EXPECT_FALSE(err.reason.empty());
}

TEST(WireReject, ImplausibleVectorCount) {
  // A StepGo whose delivery count claims 2^31 elements in a tiny payload
  // must be rejected by the count guard, not attempt the allocation.
  std::vector<std::uint8_t> payload;
  const std::uint64_t quantum = 1;
  payload.resize(8 + 1);
  std::memcpy(payload.data(), &quantum, 8);
  payload[8] = 0;  // flags
  const std::uint32_t bogus = 0x80000000u;
  for (std::size_t i = 0; i < 4; ++i) {
    payload.push_back(static_cast<std::uint8_t>(bogus >> (8 * i)));
  }
  WireError err;
  EXPECT_FALSE(decode_step_go(payload, &err).has_value());
  EXPECT_FALSE(err.reason.empty());
}

TEST(WireReject, WrongDecoderForType) {
  // Feeding a Hello payload to the Config decoder must fail cleanly.
  const auto payload = payload_of(encode(Hello{}), FrameType::kHello);
  WireError err;
  EXPECT_FALSE(decode_config(payload, &err).has_value());
  EXPECT_FALSE(err.reason.empty());
}

TEST(WireReject, MetricsReportTruncatedAtEveryByte) {
  Rng rng(0x7243);
  MetricsReport in = random_metrics_report(rng);
  in.spans.push_back(random_span(rng));  // a span cut too
  const auto payload = payload_of(encode(in), FrameType::kMetricsReport);
  ASSERT_FALSE(payload.empty());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    std::vector<std::uint8_t> truncated(payload.begin(),
                                        payload.begin() + cut);
    WireError err;
    const auto out = decode_metrics_report(truncated, &err);
    EXPECT_FALSE(out.has_value()) << "cut at " << cut;
    EXPECT_FALSE(err.reason.empty());
  }
}

TEST(WireReject, SpanHopCountBeyondMax) {
  // A span claiming more hops than the fixed array holds must be rejected
  // by the count guard before any hop is read into the struct.
  StepDone d;
  d.deliveries.push_back(SdoDelivery{});
  d.spans.push_back(SpanHandoff{0, obs::SdoSpan{}});
  auto payload = payload_of(encode(d), FrameType::kStepDone);
  // Layout: quantum(8) delivery count(4) delivery(16) handoff count(4)
  // handoff delivery(4), then the span: trace_id(8) source_pe(4) start(8)
  // end(8) dropped(1) truncated(1) hop_count(1).
  const std::size_t hop_count_at = 8 + 4 + 16 + 4 + 4 + 8 + 4 + 8 + 8 + 1 + 1;
  ASSERT_LT(hop_count_at, payload.size());
  payload[hop_count_at] =
      static_cast<std::uint8_t>(obs::SdoSpan::kMaxHops + 1);
  WireError err;
  EXPECT_FALSE(decode_step_done(payload, &err).has_value());
  EXPECT_NE(err.reason.find("hop count"), std::string::npos);
}

TEST(WireReject, SpanHopBadKind) {
  MetricsReport m;
  obs::SdoSpan s;
  s.hop_count = 1;
  s.hops[0].kind = 0;
  m.spans.push_back(s);
  auto payload = payload_of(encode(m), FrameType::kMetricsReport);
  // Layout: quantum(8), four empty vectors (counters, gauges, perf, trace),
  // the span count(4), the span's fixed fields (31), then the first hop,
  // whose kind lives right after its pe field.
  const std::size_t kind_at = 8 + 4 * 4 + 4 + 31 + 4;
  ASSERT_LT(kind_at, payload.size());
  payload[kind_at] = 99;
  WireError err;
  EXPECT_FALSE(decode_metrics_report(payload, &err).has_value());
  EXPECT_NE(err.reason.find("hop kind"), std::string::npos);
}

TEST(WireReject, FlightDumpImplausibleSpanCount) {
  obs::FlightDump d;
  d.event = "e";
  auto payload = payload_of(encode(d), FrameType::kFlightDump);
  // Overwrite the `recent` count (after event, time, pushed) with an
  // implausible value; the guard must fire before any allocation.
  const std::size_t count_at = (4 + 1) + 8 + 8;
  const std::uint32_t bogus = 0x80000000u;
  for (std::size_t i = 0; i < 4; ++i) {
    payload[count_at + i] = static_cast<std::uint8_t>(bogus >> (8 * i));
  }
  WireError err;
  EXPECT_FALSE(decode_flight_dump(payload, &err).has_value());
  EXPECT_NE(err.reason.find("implausible"), std::string::npos);
}

TEST(WireReject, ElementCountIsCheckedAgainstPayloadBeforeAllocating) {
  // A count the remaining bytes cannot hold must be refused before the
  // vector is sized: in memory a span is 552 bytes, so a few header bytes
  // could otherwise make the receiver allocate hundreds of megabytes.
  const auto le32 = [](std::vector<std::uint8_t>& out, std::uint32_t x) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
    }
  };
  std::vector<std::uint8_t> metrics(8, 0);  // quantum
  for (int i = 0; i < 4; ++i) le32(metrics, 0);  // counters .. trace
  le32(metrics, 1000000);                        // spans
  ASSERT_EQ(metrics.size(), 28u);
  WireError metrics_err;
  EXPECT_FALSE(decode_metrics_report(metrics, &metrics_err).has_value());
  EXPECT_NE(metrics_err.reason.find("implausible"), std::string::npos)
      << metrics_err.reason;

  std::vector<std::uint8_t> done(8, 0);  // quantum
  le32(done, 0);                         // deliveries
  le32(done, 100000);                    // span handoffs
  ASSERT_EQ(done.size(), 16u);
  WireError done_err;
  EXPECT_FALSE(decode_step_done(done, &done_err).has_value());
  EXPECT_NE(done_err.reason.find("implausible"), std::string::npos)
      << done_err.reason;
}

TEST(WireReject, ReportHistogramLayoutMismatch) {
  // A report whose latency histogram claims a different bucket count must
  // be rejected as a layout mismatch, not misread.
  const Report report;
  auto payload = payload_of(encode(report), FrameType::kReport);
  // Bucket-count u32 of the latency histogram: after measured_seconds,
  // weighted_throughput and output_rate (8 each) and the latency
  // accumulator (count, mean, m2, min, max: 8 each).
  const std::size_t buckets_at = 3 * 8 + 5 * 8;
  payload[buckets_at] = static_cast<std::uint8_t>(payload[buckets_at] + 1);
  WireError err;
  EXPECT_FALSE(decode_report(payload, &err).has_value());
  EXPECT_NE(err.reason.find("layout"), std::string::npos) << err.reason;
}

TEST(WireToString, CoversAllTypes) {
  for (std::uint8_t t = 1; t <= 10; ++t) {
    EXPECT_NE(std::string(to_string(static_cast<FrameType>(t))), "unknown");
  }
  EXPECT_EQ(std::string(to_string(static_cast<FrameType>(11))), "unknown");
}

}  // namespace
}  // namespace aces::runtime::wire
