// Aggregation invariance for the distributed observability plane.
//
// The distributed runtime's contract is that the partition is not
// observable in the work (byte-identical work fingerprints). The telemetry
// plane inherits a two-part contract on top:
//
//  * shipping telemetry must not perturb the computation — fingerprints
//    with tracing on and off are byte-identical;
//  * the cluster-merged view must be partition-invariant — counters summed
//    across shards are exactly the 1-shard totals, and the merged latency
//    histograms (fed by quantum-grid virtual timestamps, stitched across
//    wire hops) carry the same samples for any shard count.
//
// Observation is free until enabled: with no aggregator to read it, the
// workers ship no telemetry and sample no span.
//
// Runs on the in-process transport: the telemetry path (frames to the
// coordinator, deltas, spans stitched across peer batches) is identical
// across transports, and the socket equivalence is pinned by
// transport_differential_test.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "control/config.h"
#include "fault/fault_spec.h"
#include "graph/serialization.h"
#include "graph/topology_generator.h"
#include "metrics/report_fingerprint.h"
#include "obs/cluster_aggregate.h"
#include "obs/latency.h"
#include "runtime/dist_coordinator.h"
#include "runtime/dist_options.h"
#include "runtime/dist_worker.h"
#include "runtime/transport/inproc.h"
#include "runtime/wire.h"

namespace aces {
namespace {

constexpr double kDuration = 12.0;
constexpr double kWarmup = 3.0;
constexpr std::uint64_t kSeed = 77;

graph::ProcessingGraph test_graph() {
  graph::TopologyParams p;
  p.num_nodes = 4;
  p.num_ingress = 3;
  p.num_intermediate = 8;
  p.num_egress = 3;
  p.depth = 2;
  p.load_factor = 0.6;
  return generate_topology(p, 21);
}

runtime::dist::DistOptions options_with(std::uint32_t processes,
                                        obs::ClusterAggregator* aggregator,
                                        double sample) {
  runtime::dist::DistOptions o;
  o.duration = kDuration;
  o.warmup = kWarmup;
  o.seed = kSeed;
  o.processes = processes;
  o.transport = runtime::transport::TransportKind::kInProc;
  o.controller.policy = control::FlowPolicy::kAces;
  o.aggregator = aggregator;
  o.span_sample = sample;
  return o;
}

/// Barrier quanta in a run of `o`.
std::uint64_t quanta_of(const runtime::dist::DistOptions& o) {
  return static_cast<std::uint64_t>(std::llround(o.duration / o.dt)) *
         o.substeps;
}

/// Segments of a fault-free run of `o`: the coordinator joins once per
/// control interval.
std::uint64_t segments_of(const runtime::dist::DistOptions& o) {
  return quanta_of(o) / o.substeps;
}

/// Value of one `key value` line in the status exposition; 0 if absent.
std::uint64_t status_value(const obs::ClusterAggregator& agg,
                           const std::string& key) {
  std::ostringstream os;
  agg.write_status(os);
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(key + ' ', 0) == 0) {
      return std::stoull(line.substr(key.size() + 1));
    }
  }
  return 0;
}

/// Value of the Prometheus sample `series` (name plus label block); 0 if
/// absent.
std::uint64_t prometheus_value(const obs::ClusterAggregator& agg,
                               const std::string& series) {
  std::ostringstream os;
  agg.write_prometheus(os);
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(series + ' ', 0) == 0) {
      return std::stoull(line.substr(series.size() + 1));
    }
  }
  return 0;
}

/// FNV-1a 64 over an exact serialization of a merged latency registry:
/// every PE's wait/service and every path's end-to-end histogram, each as
/// count, raw cells, and min/max/sum in hexfloat. Any span that is lost,
/// repeated or recorded differently on its way to the aggregator changes
/// it.
std::string latency_digest(const obs::LatencyRegistry& reg) {
  std::string text;
  auto hex = [&text](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    text += buf;
    text += ' ';
  };
  auto put = [&](const LogHistogram& h) {
    text += std::to_string(h.count()) + ' ';
    for (const std::uint64_t c : h.raw_counts()) {
      text += std::to_string(c) + ',';
    }
    hex(h.min());
    hex(h.max());
    hex(h.sum());
  };
  for (const auto& [pe, s] : reg.pes()) {
    text += "pe " + std::to_string(pe) + ' ';
    put(s.wait);
    put(s.service);
  }
  for (const auto& [id, p] : reg.paths()) {
    text += "path " + std::to_string(id) + ' ' + p.label + ' ';
    put(p.end_to_end);
  }
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    digest ^= c;
    digest *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx",
                static_cast<unsigned long long>(digest));
  return out;
}

TEST(DistObservabilityTest, TelemetryDoesNotPerturbTheComputation) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  const metrics::RunReport bare = runtime::dist::run_distributed(
      g, plan, options_with(3, nullptr, 0.0));
  obs::ClusterAggregator agg;
  const metrics::RunReport traced = runtime::dist::run_distributed(
      g, plan, options_with(3, &agg, 1.0));

  ASSERT_GT(bare.sdos_processed, 0u);
  EXPECT_EQ(metrics::work_fingerprint(bare), metrics::work_fingerprint(traced))
      << "span tracing / metrics shipping changed the work";
  EXPECT_GT(status_value(agg, "aces_cluster_spans_completed"), 0u);

  // Recording the control trace also times every node tick into the
  // worker's registry, which ships it as that shard's controller_tick
  // timer: one call per node tick, and still the same work.
  obs::ClusterAggregator ticks_agg;
  runtime::dist::DistOptions o = options_with(2, &ticks_agg, 0.0);
  o.record_trace = true;
  const metrics::RunReport ticked = runtime::dist::run_distributed(g, plan, o);
  EXPECT_EQ(metrics::work_fingerprint(bare), metrics::work_fingerprint(ticked));
  std::map<std::int32_t, std::set<std::pair<std::uint32_t, double>>> ticks;
  for (const obs::TickRecord& r : ticks_agg.trace_records()) {
    ticks[r.shard].emplace(r.node, r.time);
  }
  ASSERT_EQ(ticks.size(), 2u);
  for (const auto& [shard, node_ticks] : ticks) {
    const std::string series = "aces_shard_timer_calls_total{shard=\"" +
                               std::to_string(shard) +
                               "\",name=\"controller_tick\"}";
    EXPECT_EQ(prometheus_value(ticks_agg, series), node_ticks.size())
        << "shard " << shard;
  }
}

TEST(DistObservabilityTest, ClusterCountersArePartitionInvariant) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  obs::ClusterAggregator agg1, agg3;
  runtime::dist::run_distributed(g, plan, options_with(1, &agg1, 1.0));
  runtime::dist::run_distributed(g, plan, options_with(3, &agg3, 1.0));

  EXPECT_EQ(agg1.shard_count(), 1u);
  EXPECT_EQ(agg3.shard_count(), 3u);

  const auto c1 = agg1.cluster_counters();
  const auto c3 = agg3.cluster_counters();
  ASSERT_FALSE(c1.empty());
  EXPECT_EQ(c1, c3) << "summed counter deltas must not depend on the "
                       "partition";
  bool has_arrived = false;
  for (const auto& [name, value] : c1) {
    if (name == "dist.sdo.arrived") {
      has_arrived = true;
      EXPECT_GT(value, 0u);
    }
  }
  EXPECT_TRUE(has_arrived);
}

TEST(DistObservabilityTest, MergedLatencyIsPartitionInvariant) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  obs::ClusterAggregator agg1, agg3;
  runtime::dist::run_distributed(g, plan, options_with(1, &agg1, 1.0));
  runtime::dist::run_distributed(g, plan, options_with(3, &agg3, 1.0));

  const obs::LatencyRegistry m1 = agg1.merged_latency();
  const obs::LatencyRegistry m3 = agg3.merged_latency();

  ASSERT_FALSE(m1.pes().empty());
  ASSERT_EQ(m1.pes().size(), m3.pes().size());
  for (const auto& [pe, s1] : m1.pes()) {
    ASSERT_TRUE(m3.pes().contains(pe)) << "pe " << pe;
    const auto& s3 = m3.pes().at(pe);
    // Timestamps live on the shared quantum grid, so the merged histograms
    // are sample-exact, not merely statistically close.
    EXPECT_EQ(s1.wait.count(), s3.wait.count()) << "pe " << pe;
    EXPECT_EQ(s1.wait.raw_counts(), s3.wait.raw_counts()) << "pe " << pe;
    EXPECT_NEAR(s1.wait.sum(), s3.wait.sum(), 1e-9 + 1e-9 * s1.wait.sum())
        << "pe " << pe;
    EXPECT_EQ(s1.service.count(), s3.service.count()) << "pe " << pe;
    EXPECT_EQ(s1.service.raw_counts(), s3.service.raw_counts())
        << "pe " << pe;
  }

  ASSERT_EQ(m1.paths().size(), m3.paths().size());
  for (const auto& [id, p1] : m1.paths()) {
    ASSERT_TRUE(m3.paths().contains(id)) << p1.label;
    const auto& p3 = m3.paths().at(id);
    EXPECT_EQ(p1.label, p3.label);
    EXPECT_EQ(p1.end_to_end.count(), p3.end_to_end.count()) << p1.label;
    EXPECT_EQ(p1.end_to_end.raw_counts(), p3.end_to_end.raw_counts())
        << p1.label;
    EXPECT_NEAR(p1.end_to_end.sum(), p3.end_to_end.sum(),
                1e-9 + 1e-9 * p1.end_to_end.sum())
        << p1.label;
  }

  // Same spans either way, and the same stitched ones: every cross-node
  // delivery takes the same wire hops, whatever the partition, whether
  // the coordinator relays it or its worker loops it back.
  EXPECT_EQ(status_value(agg1, "aces_cluster_spans_completed"),
            status_value(agg3, "aces_cluster_spans_completed"));
  EXPECT_GT(status_value(agg1, "aces_cluster_spans_stitched"), 0u);
  EXPECT_EQ(status_value(agg1, "aces_cluster_spans_stitched"),
            status_value(agg3, "aces_cluster_spans_stitched"));

  // Pinned exposure: the registries are rebuilt at the coordinator from
  // the spans each shard ships, so a span that stops reaching the
  // aggregator (or is recorded by a different rule than the workers' own)
  // changes the digest even if both runs lose it alike. The two differ
  // only in the last bits of the float sums (shard merges add in a
  // different order). Re-pin only for a deliberate behaviour change.
  EXPECT_EQ(latency_digest(m1), "80b00cc0d117e809");
  EXPECT_EQ(latency_digest(m3), "8a3c5fc300ecbe2a");
}

TEST(DistObservabilityTest, MultiShardRunsStitchSpansAcrossTheWire) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  obs::ClusterAggregator agg;
  runtime::dist::run_distributed(g, plan, options_with(3, &agg, 1.0));

  const std::uint64_t completed =
      status_value(agg, "aces_cluster_spans_completed");
  const std::uint64_t stitched =
      status_value(agg, "aces_cluster_spans_stitched");
  ASSERT_GT(completed, 0u);
  EXPECT_GT(stitched, 0u) << "no span crossed a process boundary in a "
                             "3-shard run of a multi-node topology";
  EXPECT_LE(stitched, completed);

  // A crossing's serialize, send and receive hops carry one virtual time:
  // the emission stamp (k+1)·q is the quantum end the peer batch leaves at
  // and the next quantum's start it is applied at. That is why the
  // aggregator keeps no transport-time metric; a wire given virtual time
  // of its own would fail here and make the metric worth having again.
  constexpr auto kSerialize =
      static_cast<std::uint32_t>(obs::HopKind::kWireSerialize);
  std::size_t crossings = 0;
  for (const auto& [rank, spans] : agg.recent_spans()) {
    for (const obs::SdoSpan& span : spans) {
      if (span.truncated) continue;
      for (std::uint32_t i = 0; i < span.hop_count; ++i) {
        if (span.hops[i].kind != kSerialize) continue;
        ASSERT_LT(i + 2, span.hop_count) << "trace " << span.trace_id;
        const double t = span.hops[i].emit;
        // Serialize, send, receive: kinds 1, 2, 3 in a row.
        for (std::uint32_t j = i; j < i + 3; ++j) {
          const obs::SpanHop& hop = span.hops[j];
          EXPECT_EQ(hop.kind, kSerialize + (j - i))
              << "trace " << span.trace_id;
          EXPECT_EQ(hop.enqueue, t) << "trace " << span.trace_id;
          EXPECT_EQ(hop.dequeue, t) << "trace " << span.trace_id;
          EXPECT_EQ(hop.emit, t) << "trace " << span.trace_id;
        }
        ++crossings;
      }
    }
  }
  EXPECT_GT(crossings, 0u);
}

/// Worker -> coordinator bytes summed over every shard of a run.
std::uint64_t bytes_from_workers(const obs::ClusterAggregator& agg) {
  std::uint64_t total = 0;
  for (std::uint32_t rank = 0; rank < agg.shard_count(); ++rank) {
    total += status_value(
        agg, "aces_shard_" + std::to_string(rank) + "_bytes_in");
  }
  return total;
}

TEST(DistObservabilityTest, SpanSamplingAddsBoundedTelemetryBytes) {
  // The paper-default topology has 60 PEs: a worker that re-sent its
  // latency histograms (3.3 KB per PE) or its flight ring every epoch
  // would dwarf everything else it sends the coordinator. No histogram
  // travels and each sampled span crosses to the coordinator once, in one
  // MetricsReport, so what 1% sampling adds is at most one span's largest
  // encoding per completed span.
  const graph::ProcessingGraph g =
      generate_topology(graph::TopologyParams{}, 1);
  const opt::AllocationPlan plan = opt::optimize(g);

  obs::ClusterAggregator bare, sampled;
  runtime::dist::run_distributed(g, plan, options_with(2, &bare, 0.0));
  runtime::dist::run_distributed(g, plan, options_with(2, &sampled, 0.01));

  runtime::wire::MetricsReport one_span;
  one_span.spans.emplace_back().hop_count = obs::SdoSpan::kMaxHops;
  const std::uint64_t span_bytes =
      runtime::wire::encode(one_span).size() -
      runtime::wire::encode(runtime::wire::MetricsReport{}).size();

  const std::uint64_t bare_bytes = bytes_from_workers(bare);
  const std::uint64_t sampled_bytes = bytes_from_workers(sampled);
  const std::uint64_t spans =
      status_value(sampled, "aces_cluster_spans_completed");
  ASSERT_GT(bare_bytes, 0u);
  ASSERT_GT(spans, 0u);
  ASSERT_GE(sampled_bytes, bare_bytes);
  EXPECT_LE(sampled_bytes - bare_bytes, spans * span_bytes)
      << "sampled " << sampled_bytes << " B vs untraced " << bare_bytes
      << " B for " << spans << " spans of at most " << span_bytes << " B";
}

TEST(DistObservabilityTest, FaultFreeRunShipsNoFlightDumpAndRelaysNoTelemetry) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  obs::ClusterAggregator agg;
  const runtime::dist::DistOptions o = options_with(3, &agg, 1.0);
  runtime::dist::run_distributed(g, plan, o);

  // The coordinator sends each shard its Config, one StepGo per control
  // interval plus the final one, and the Shutdown, and nothing else: spans
  // ride the peer batches, and a fault-free run pushes no Targets.
  const auto shards = agg.shard_statuses();
  ASSERT_EQ(shards.size(), 3u);
  for (const auto& [rank, status] : shards) {
    EXPECT_EQ(status.frames_out, segments_of(o) + 3) << "shard " << rank;
    EXPECT_EQ(status.flight_dumps, 0u) << "shard " << rank;
    EXPECT_EQ(status_value(agg, "aces_shard_" + std::to_string(rank) +
                                    "_flight_dumps"),
              0u);
  }
  EXPECT_TRUE(agg.flight_dumps().empty());
  // The standing evidence is there all the same, built from the spans.
  const auto recent = agg.recent_spans();
  EXPECT_EQ(recent.size(), 3u);
  EXPECT_GT(status_value(agg, "aces_cluster_spans_stitched"), 0u);
}

TEST(DistObservabilityTest, CrashRunRetainsItsFaultDumpWithInFlightSpans) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  obs::ClusterAggregator agg;
  runtime::dist::DistOptions o = options_with(3, &agg, 1.0);
  o.faults = fault::parse_fault_spec("crash node=1 at=5 until=7");
  runtime::dist::run_distributed(g, plan, o);

  // Three shards over four nodes: rank 1 owns node 1 alone.
  const auto dumps = agg.flight_dumps();
  ASSERT_EQ(dumps.size(), 1u);
  ASSERT_TRUE(dumps.contains(1));
  const obs::FlightDump& dump = dumps.at(1);
  EXPECT_EQ(dump.event, "fault.node_crash");
  EXPECT_NEAR(dump.time, 5.0, 1e-9);
  EXPECT_FALSE(dump.in_flight.empty())
      << "the crash caught no SDO in flight on the crashed shard";
  for (const obs::SdoSpan& span : dump.in_flight) {
    EXPECT_LT(span.end, 0.0) << "trace " << span.trace_id;
  }
  // Later spans extend the standing ring but leave the fault dump alone.
  EXPECT_GT(agg.recent_spans().at(1).back().end, 7.0);
  EXPECT_EQ(agg.shard_statuses().at(1).flight_dumps, 1u);
}

TEST(DistObservabilityTest, EveryFrameIsCountedOnceEachWay) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  // Out: Config, a StepGo per segment plus the final one, Shutdown, and
  // one Targets per re-solve. In: two Hellos, a StepDone per segment, the
  // Report, and every heartbeat, MetricsReport and fault dump. A segment
  // is a control interval, and the crash window adds two barriers: the
  // quanta after it opens (t = 5) and closes (t = 7), where tier 1 is
  // re-solved, both off the control-interval grid.
  for (const char* faults : {"", "crash node=1 at=5 until=7"}) {
    SCOPED_TRACE(faults);
    obs::ClusterAggregator agg;
    runtime::dist::DistOptions o = options_with(3, &agg, 0.1);
    o.faults = fault::parse_fault_spec(faults);
    runtime::dist::DistStats stats;
    runtime::dist::run_distributed(g, plan, o, &stats);

    EXPECT_EQ(stats.reoptimizations, o.faults.empty() ? 0u : 2u);
    const std::uint64_t segments =
        segments_of(o) + (o.faults.empty() ? 0u : 2u);
    const auto shards = agg.shard_statuses();
    ASSERT_EQ(shards.size(), 3u);
    std::uint64_t heartbeats = 0;
    for (const auto& [rank, s] : shards) {
      EXPECT_EQ(s.frames_out, segments + 3 + stats.reoptimizations)
          << "shard " << rank;
      EXPECT_EQ(s.frames_in, segments + 3 + s.metrics_reports +
                                 s.heartbeats + s.flight_dumps)
          << "shard " << rank;
      EXPECT_GT(s.metrics_reports, 0u) << "shard " << rank;
      heartbeats += s.heartbeats;
    }
    EXPECT_EQ(heartbeats, stats.heartbeats_received);
  }
}

TEST(DistObservabilityTest, NewestFaultDumpIsTheNewestFault) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  // Nine stalls of one PE: more faults than a tracer retains dumps for
  // (SpanTracerOptions::max_dumps). Each one still ships its own dump.
  std::string faults;
  for (int i = 1; i <= 9; ++i) {
    faults += "stall pe=2 at=" + std::to_string(i) + " for=0.2;";
  }
  ASSERT_LT(obs::SpanTracerOptions{}.max_dumps, 9u);
  obs::ClusterAggregator agg;
  runtime::dist::DistOptions o = options_with(3, &agg, 1.0);
  o.faults = fault::parse_fault_spec(faults);
  runtime::dist::run_distributed(g, plan, o);

  const auto dumps = agg.flight_dumps();
  ASSERT_EQ(dumps.size(), 1u);
  const auto& [rank, dump] = *dumps.begin();
  EXPECT_EQ(dump.event, "fault.pe_stall");
  EXPECT_NEAR(dump.time, 9.0, 1e-9) << "a stale dump from an earlier stall";
  EXPECT_EQ(agg.shard_statuses().at(rank).flight_dumps, 9u);
}

namespace transport = runtime::transport;
namespace wire = runtime::wire;

/// Forwards to a peer link, counting the span handoffs of the batches sent.
class HandoffCounter final : public transport::Endpoint {
 public:
  HandoffCounter(std::unique_ptr<transport::Endpoint> inner,
                 std::atomic<std::uint64_t>& handoffs)
      : inner_(std::move(inner)), handoffs_(handoffs) {}

  bool send(std::vector<std::uint8_t> frame) override {
    const auto parsed = wire::parse_frame(frame.data(), frame.size());
    if (parsed.has_value() && parsed->type == wire::FrameType::kPeerBatch) {
      const auto batch = wire::decode_peer_batch(parsed->payload);
      if (batch.has_value()) handoffs_ += batch->spans.size();
    }
    return inner_->send(std::move(frame));
  }

  transport::RecvStatus recv(wire::Frame* out, int timeout_ms) override {
    return inner_->recv(out, timeout_ms);
  }

  void close() override { inner_->close(); }

  [[nodiscard]] std::string_view last_error() const override {
    return inner_->last_error();
  }

 private:
  std::unique_ptr<transport::Endpoint> inner_;
  std::atomic<std::uint64_t>& handoffs_;
};

/// What two workers sent while this test played their coordinator.
struct WorkerTraffic {
  std::uint64_t telemetry_frames = 0;  ///< MetricsReports and fault dumps
  std::uint64_t span_handoffs = 0;     ///< spans riding their peer batches
};

/// The Config the coordinator sends a worker of options_with(2, …, 0.5) on
/// `g`, with the telemetry bit `telemetry`; `rank` and `peers` are filled
/// per worker.
wire::Config config_for(const graph::ProcessingGraph& g,
                        const opt::AllocationPlan& plan,
                        std::uint8_t telemetry) {
  const runtime::dist::DistOptions o = options_with(2, nullptr, 0.5);
  wire::Config c;
  c.num_workers = 2;
  c.substeps = o.substeps;
  c.seed = o.seed;
  c.duration = o.duration;
  c.warmup = o.warmup;
  c.dt = o.dt;
  c.controller = o.controller;
  c.topology = graph::to_string(g);
  for (const opt::PeAllocation& pe : plan.pe) c.plan_cpu.push_back(pe.cpu);
  c.span_sample = o.span_sample;
  c.telemetry = telemetry;
  return c;
}

/// Plays the coordinator to two in-process workers running `c`: their
/// handshakes, one segment of every quantum, the final StepGo and the
/// Shutdown. Tallies what they send.
WorkerTraffic drive_two_workers(wire::Config c) {
  constexpr int kWaitMs = 10000;
  WorkerTraffic traffic;
  std::atomic<std::uint64_t> handoffs{0};
  runtime::dist::PeerLinks links;
  links.wrap = [&handoffs](std::uint32_t,
                           std::unique_ptr<transport::Endpoint> link)
      -> std::unique_ptr<transport::Endpoint> {
    return std::make_unique<HandoffCounter>(std::move(link), handoffs);
  };
  // Receives from `ep` through the next frame of type `last`.
  const auto through = [&traffic](transport::Endpoint& ep,
                                  wire::FrameType last) {
    for (;;) {
      wire::Frame frame;
      if (ep.recv(&frame, kWaitMs) != transport::RecvStatus::kOk) {
        return false;
      }
      if (frame.type == wire::FrameType::kMetricsReport ||
          frame.type == wire::FrameType::kFlightDump) {
        ++traffic.telemetry_frames;
      }
      if (frame.type == last) return true;
    }
  };

  std::vector<std::unique_ptr<transport::Endpoint>> coordinator;
  std::vector<std::thread> workers;
  c.peers.assign(c.num_workers, "");
  for (std::uint32_t rank = 0; rank < c.num_workers; ++rank) {
    auto [mine, theirs] = transport::make_inproc_pair();
    workers.emplace_back([end = std::move(theirs), rank, &links] {
      runtime::dist::worker_entry(*end, rank, links);
    });
    wire::Frame frame;
    EXPECT_EQ(mine->recv(&frame, kWaitMs), transport::RecvStatus::kOk);
    const auto hello = wire::decode_hello(frame.payload);
    EXPECT_TRUE(hello.has_value());
    c.rank = rank;
    EXPECT_TRUE(mine->send(wire::encode(c)));
    EXPECT_TRUE(through(*mine, wire::FrameType::kHello));
    // Ranks that join later link to this one.
    if (hello.has_value()) c.peers[rank] = hello->peer_address;
    coordinator.push_back(std::move(mine));
  }
  wire::StepGo go;
  go.count = static_cast<std::uint32_t>(std::llround(c.duration / c.dt)) *
             c.substeps;
  for (const auto& ep : coordinator) EXPECT_TRUE(ep->send(wire::encode(go)));
  for (const auto& ep : coordinator) {
    EXPECT_TRUE(through(*ep, wire::FrameType::kStepDone));
  }
  go.quantum = go.count;
  go.count = 0;
  go.flags = wire::kStepGoFinal;
  for (const auto& ep : coordinator) {
    EXPECT_TRUE(ep->send(wire::encode(go)));
    EXPECT_TRUE(through(*ep, wire::FrameType::kReport));
    ep->send(wire::encode_shutdown());
    ep->close();
  }
  for (std::thread& worker : workers) worker.join();
  traffic.span_handoffs = handoffs;
  return traffic;
}

TEST(DistObservabilityTest, WithoutAnAggregatorWorkersShipNoTelemetry) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  // Sampling asked for, but no aggregator: the coordinator reads no
  // telemetry frame. With one it reads every frame the shards report, and
  // the work is the same.
  runtime::dist::DistStats bare_stats;
  const metrics::RunReport bare = runtime::dist::run_distributed(
      g, plan, options_with(2, nullptr, 0.5), &bare_stats);
  obs::ClusterAggregator agg;
  runtime::dist::DistStats agg_stats;
  const metrics::RunReport aggregated = runtime::dist::run_distributed(
      g, plan, options_with(2, &agg, 0.5), &agg_stats);
  ASSERT_GT(bare.sdos_processed, 0u);
  EXPECT_EQ(bare_stats.telemetry_frames_received, 0u);
  std::uint64_t shipped = 0;
  for (const auto& [rank, status] : agg.shard_statuses()) {
    shipped += status.metrics_reports + status.flight_dumps;
  }
  EXPECT_GT(shipped, 0u);
  EXPECT_EQ(agg_stats.telemetry_frames_received, shipped);
  EXPECT_EQ(metrics::work_fingerprint(bare),
            metrics::work_fingerprint(aggregated));

  // The workers themselves, driven by hand: without the Config's telemetry
  // bit they build no span tracer, so no span rides a peer batch and none
  // completes to be kept unread. With it, spans cross and ship.
  const WorkerTraffic off = drive_two_workers(config_for(g, plan, 0));
  EXPECT_EQ(off.telemetry_frames, 0u);
  EXPECT_EQ(off.span_handoffs, 0u);
  const WorkerTraffic on = drive_two_workers(config_for(g, plan, 1));
  EXPECT_GT(on.telemetry_frames, 0u);
  EXPECT_GT(on.span_handoffs, 0u);
}

TEST(DistObservabilityTest, ProcKilledShardsLastSpansStayReadable) {
  const graph::ProcessingGraph g = test_graph();
  const opt::AllocationPlan plan = opt::optimize(g);

  obs::ClusterAggregator agg;
  runtime::dist::DistOptions o = options_with(3, &agg, 1.0);
  o.faults = fault::parse_fault_spec("prockill node=1 at=6");
  runtime::dist::run_distributed(g, plan, o);

  ASSERT_FALSE(agg.shard_statuses().at(1).alive);
  const auto recent = agg.recent_spans();
  ASSERT_TRUE(recent.contains(1)) << "the dead shard's spans are gone";
  const std::vector<obs::SdoSpan>& last = recent.at(1);
  EXPECT_FALSE(last.empty());
  EXPECT_LE(last.size(), obs::SpanTracerOptions{}.ring_capacity);
  // The shard's final epoch report arrived before the kill; nothing it
  // shipped ends after it.
  for (const obs::SdoSpan& span : last) {
    EXPECT_LE(span.end, 6.0 + 1e-9) << "trace " << span.trace_id;
  }
}

}  // namespace
}  // namespace aces

int main(int argc, char** argv) {
  // Socket-transport workers re-execute this binary; dispatch them before
  // gtest parses flags (inproc runs never take this path, but the harness
  // links the worker entry either way).
  if (const int rc = aces::runtime::dist::maybe_worker(argc, argv); rc >= 0) {
    return rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
