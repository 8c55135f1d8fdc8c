// Fuzz-style robustness pass over the wire codecs, run as a regular ctest
// entry so every CI build exercises it (CI additionally runs it under
// sanitizers). Three attack surfaces:
//
//   1. pure random garbage fed to parse_frame and every decoder,
//   2. valid frames with random byte flips (header and payload),
//   3. valid frames truncated or extended at random points.
//
// Surfaces 2 and 3 start from a fresh PeerBatch or Targets each iteration
// plus one fixed valid frame of each of the 11 types in turn.
//
// The contract under test is narrow and absolute: decoders return
// std::nullopt with a non-empty WireError reason — they never crash, never
// throw, never read out of bounds (ASan/UBSan legs verify the latter).
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/wire.h"

namespace aces::runtime::wire {
namespace {

/// Runs every payload decoder over the buffer; none may crash or throw.
/// Returns how many succeeded (diagnostic only).
int decode_all(const std::vector<std::uint8_t>& payload) {
  int ok = 0;
  WireError err;
  ok += decode_hello(payload, &err).has_value() ? 1 : 0;
  ok += decode_config(payload, &err).has_value() ? 1 : 0;
  ok += decode_step_go(payload, &err).has_value() ? 1 : 0;
  ok += decode_step_done(payload, &err).has_value() ? 1 : 0;
  ok += decode_heartbeat(payload, &err).has_value() ? 1 : 0;
  ok += decode_targets(payload, &err).has_value() ? 1 : 0;
  ok += decode_report(payload, &err).has_value() ? 1 : 0;
  ok += decode_metrics_report(payload, &err).has_value() ? 1 : 0;
  ok += decode_flight_dump(payload, &err).has_value() ? 1 : 0;
  ok += decode_peer_batch(payload, &err).has_value() ? 1 : 0;
  return ok;
}

/// One seeded valid frame of each of the 11 types, so the mutation and
/// resize loops reach every decoder past its first few fields. The peer
/// batch carries a span handoff.
std::vector<std::vector<std::uint8_t>> valid_frames(Rng& rng) {
  const auto id = [&rng] {
    return static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
  };
  obs::SdoSpan span;
  span.trace_id = id();
  span.hop_count = 2;
  span.hops[0].pe = id();
  span.hops[1].kind = static_cast<std::uint32_t>(obs::HopKind::kWireRecv);
  const Hello hello{id(), "peer"};
  Config config;
  config.rank = id();
  config.controller.policy = control::FlowPolicy::kThreshold;
  config.peers = {"", "inproc-3"};
  config.topology = "node 0 cpu=1";
  config.faults = "crash node=0 at=1";
  config.plan_cpu = {rng.uniform(), rng.uniform()};
  config.span_sample = rng.uniform();
  StepGo go;
  go.quantum = id();
  go.count = id();
  go.down_nodes = {id()};
  go.up_nodes = {id()};
  StepDone done;
  done.quantum = id();
  done.dropped.push_back(Undelivered{id(), id(), id()});
  done.kept.push_back(Undelivered{id(), id(), id()});
  done.rejected = {id()};
  PeerBatch batch;
  batch.quantum = id();
  batch.deliveries.push_back(SdoDelivery{id(), id(), rng.uniform()});
  batch.spans.push_back(SpanHandoff{0, span});
  batch.adverts.push_back(Advert{id(), rng.uniform(), rng.uniform()});
  batch.congested_pes = {id()};
  Targets targets;
  targets.cpu = {rng.uniform(), rng.uniform()};
  Report report;
  report.report.latency.add(rng.uniform());
  report.report.latency_histogram.add(rng.uniform());
  report.report.egress_outputs = {id()};
  report.report.per_pe.push_back(
      metrics::PeAccounting{id(), id(), id(), id(), rng.uniform()});
  MetricsReport metrics;
  metrics.quantum = id();
  metrics.counters.push_back({"sdos", id()});
  metrics.gauges.push_back({"fill", rng.uniform()});
  metrics.perf.push_back({"tick", id(), id()});
  obs::TickRecord tick;
  tick.pe = id();
  tick.policy = "aces";
  metrics.trace.push_back(tick);
  metrics.spans.push_back(span);
  obs::FlightDump dump;
  dump.event = "fault.node_crash";
  dump.recent.push_back(span);
  dump.in_flight.push_back(span);
  return {encode(hello),  encode(config),      encode(go),
          encode(done),   encode(Heartbeat{}), encode(targets),
          encode(report), encode_shutdown(),   encode(metrics),
          encode(dump),   encode(batch)};
}

/// XORs 1–8 random bytes anywhere in the frame, header included.
void flip_bytes(std::vector<std::uint8_t>& frame, Rng& rng) {
  const auto flips = static_cast<int>(rng.uniform_int(1, 8));
  for (int f = 0; f < flips; ++f) {
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
    frame[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
  }
}

/// Cuts the frame at a random point, or appends 1–64 random bytes.
void resize(std::vector<std::uint8_t>& frame, Rng& rng) {
  if (rng.bernoulli(0.5)) {
    frame.resize(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frame.size()))));
  } else {
    const auto extra = static_cast<std::size_t>(rng.uniform_int(1, 64));
    for (std::size_t i = 0; i < extra; ++i) {
      frame.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
  }
}

/// Every decoder runs on the payload of any frame whose header survives.
void parse_and_decode(const std::vector<std::uint8_t>& frame) {
  WireError err;
  const auto parsed = parse_frame(frame.data(), frame.size(), &err);
  if (parsed.has_value()) (void)decode_all(parsed->payload);
}

TEST(WireFuzz, RandomGarbage) {
  Rng rng(0xF022);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(rng.uniform_int(0, 256)));
    for (std::uint8_t& b : buf) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    WireError err;
    (void)parse_frame(buf.data(), buf.size(), &err);
    (void)decode_all(buf);
  }
}

TEST(WireFuzz, MutatedValidFrames) {
  Rng rng(0xF023);
  Rng extra_rng(0xF025);
  const auto extra = valid_frames(extra_rng);
  for (int iter = 0; iter < 500; ++iter) {
    PeerBatch g;
    g.quantum = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 16));
    for (std::size_t i = 0; i < n; ++i) {
      g.deliveries.push_back(
          SdoDelivery{static_cast<std::uint32_t>(rng.uniform_int(0, 100)),
                      static_cast<std::uint32_t>(rng.uniform_int(0, 10)),
                      rng.uniform()});
      g.adverts.push_back(
          Advert{static_cast<std::uint32_t>(rng.uniform_int(0, 100)),
                 rng.uniform(), rng.uniform()});
    }
    auto frame = encode(g);
    flip_bytes(frame, rng);
    parse_and_decode(frame);
    auto other = extra[static_cast<std::size_t>(iter) % extra.size()];
    flip_bytes(other, extra_rng);
    parse_and_decode(other);
  }
}

TEST(WireFuzz, ResizedValidFrames) {
  Rng rng(0xF024);
  Rng extra_rng(0xF026);
  const auto extra = valid_frames(extra_rng);
  for (int iter = 0; iter < 500; ++iter) {
    Targets t;
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 32));
    for (std::size_t i = 0; i < n; ++i) {
      t.cpu.push_back(rng.uniform());
    }
    auto frame = encode(t);
    resize(frame, rng);
    parse_and_decode(frame);
    auto other = extra[static_cast<std::size_t>(iter) % extra.size()];
    resize(other, extra_rng);
    parse_and_decode(other);
  }
}

}  // namespace
}  // namespace aces::runtime::wire
