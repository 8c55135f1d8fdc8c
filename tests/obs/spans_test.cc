// Data-plane span tracing: flight-recorder ring semantics, deterministic
// sampling, hop bookkeeping, and the integration contracts the tentpole
// promises — monotone hop timestamps, path ids stable across substrates,
// fault dumps capturing the crashed PE's in-flight spans, and traced runs
// that leave the RunReport untouched.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_spec.h"
#include "graph/topology_generator.h"
#include "obs/export.h"
#include "obs/latency.h"
#include "obs/spans.h"
#include "opt/global_optimizer.h"
#include "runtime/runtime_engine.h"
#include "sim/stream_simulation.h"

namespace aces::obs {
namespace {

PeId pe_id(std::uint32_t v) { return PeId(v); }

TEST(FlightRecorderTest, KeepsTheLastCapacitySpans) {
  FlightRecorder recorder(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    SdoSpan span;
    span.trace_id = i;
    recorder.push(span);
  }
  const std::vector<SdoSpan> recent = recorder.snapshot();
  ASSERT_EQ(recent.size(), 4u);
  for (std::size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].trace_id, 6u + i);  // oldest retained first
  }
  EXPECT_EQ(recorder.pushed(), 10u);
}

// Seqlock torture: one writer pushes spans whose every payload word is
// derived from the trace id while readers snapshot continuously. A torn
// read — any field inconsistent with the slot's trace id — means the
// sequence check failed to reject an in-progress write. Run under TSan
// this also proves the word-wise atomic copy is race-free by the memory
// model, not merely "works on x86".
TEST(FlightRecorderTest, SnapshotNeverObservesTornWritesUnderConcurrency) {
  FlightRecorder recorder(8);
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> observed{0};

  auto expected = [](std::uint64_t id) {
    SdoSpan span;
    span.trace_id = id;
    span.source_pe = static_cast<std::uint32_t>(id % 1024);
    span.start = static_cast<Seconds>(id);
    span.end = static_cast<Seconds>(id) + 1.0;
    span.hop_count = static_cast<std::uint32_t>(id % SdoSpan::kMaxHops);
    for (std::uint32_t h = 0; h < span.hop_count; ++h) {
      span.hops[h].pe = static_cast<std::uint32_t>(id + h);
      span.hops[h].enqueue = static_cast<Seconds>(id) + 0.25;
      span.hops[h].dequeue = static_cast<Seconds>(id) + 0.5;
      span.hops[h].emit = static_cast<Seconds>(id) + 0.75;
    }
    return span;
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      ready.fetch_add(1, std::memory_order_release);
      while (!stop.load(std::memory_order_acquire)) {
        for (const SdoSpan& got : recorder.snapshot()) {
          observed.fetch_add(1, std::memory_order_relaxed);
          const SdoSpan want = expected(got.trace_id);
          bool ok = got.source_pe == want.source_pe &&
                    got.start == want.start && got.end == want.end &&
                    got.hop_count == want.hop_count &&
                    got.dropped == want.dropped &&
                    got.truncated == want.truncated;
          for (std::uint32_t h = 0; ok && h < want.hop_count; ++h) {
            ok = got.hops[h].pe == want.hops[h].pe &&
                 got.hops[h].enqueue == want.hops[h].enqueue &&
                 got.hops[h].dequeue == want.hops[h].dequeue &&
                 got.hops[h].emit == want.hops[h].emit;
          }
          if (!ok) torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Don't start writing until every reader is spinning, and keep writing
  // until they have demonstrably overlapped the writer — otherwise a fast
  // writer finishes before the reader threads are even scheduled and the
  // test exercises nothing. The iteration cap keeps a wedged reader thread
  // from hanging the test (the ctest TIMEOUT would catch it regardless).
  while (ready.load(std::memory_order_acquire) < 3) std::this_thread::yield();
  std::uint64_t id = 0;
  while (id < 20000 ||
         (observed.load(std::memory_order_relaxed) == 0 && id < 5000000)) {
    recorder.push(expected(id++));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(observed.load(), 0u);  // readers actually overlapped the writer
  EXPECT_EQ(recorder.pushed(), id);
}

TEST(SpanTracerTest, SamplingIsDeterministicPerSeed) {
  SpanTracerOptions options;
  options.sample_rate = 0.25;
  options.seed = 99;
  SpanTracer a(options);
  SpanTracer b(options);
  int sampled = 0;
  for (int i = 0; i < 400; ++i) {
    const std::int32_t ha = a.begin(pe_id(0), 0.0);
    const std::int32_t hb = b.begin(pe_id(0), 0.0);
    EXPECT_EQ(ha >= 0, hb >= 0) << "draw " << i;
    if (ha >= 0) ++sampled;
    a.complete(ha, 1.0);
    b.complete(hb, 1.0);
  }
  // ~25% acceptance; a generous band catches a broken threshold without
  // flaking (binomial stddev here is ~8.7).
  EXPECT_GT(sampled, 50);
  EXPECT_LT(sampled, 150);
}

TEST(SpanTracerTest, RateOneSamplesEverything) {
  SpanTracerOptions options;
  options.sample_rate = 1.0;
  SpanTracer tracer(options);
  for (int i = 0; i < 32; ++i) {
    const std::int32_t h = tracer.begin(pe_id(3), 0.0);
    ASSERT_GE(h, 0);
    tracer.complete(h, 1.0);
  }
  EXPECT_EQ(tracer.spans_started(), 32u);
  EXPECT_EQ(tracer.spans_completed(), 32u);
}

TEST(SpanTracerTest, PoolExhaustionDegradesToUnsampled) {
  SpanTracerOptions options;
  options.sample_rate = 1.0;
  options.max_in_flight = 2;
  SpanTracer tracer(options);
  const std::int32_t h1 = tracer.begin(pe_id(0), 0.0);
  const std::int32_t h2 = tracer.begin(pe_id(0), 0.0);
  const std::int32_t h3 = tracer.begin(pe_id(0), 0.0);
  EXPECT_GE(h1, 0);
  EXPECT_GE(h2, 0);
  EXPECT_EQ(h3, -1);
  EXPECT_EQ(tracer.pool_exhausted(), 1u);
  tracer.complete(h1, 1.0);
  EXPECT_GE(tracer.begin(pe_id(0), 2.0), 0);  // slot freed and reusable
}

TEST(SpanTracerTest, ReEnqueueOfPendingHopReStampsInsteadOfAppending) {
  SpanTracerOptions options;
  options.sample_rate = 1.0;
  SpanTracer tracer(options);
  const std::int32_t h = tracer.begin(pe_id(0), 0.0);
  tracer.on_enqueue(h, pe_id(1), 1.0);
  // Lock-Step retry: same PE re-enqueued before any dequeue.
  tracer.on_enqueue(h, pe_id(1), 2.5);
  tracer.on_dequeue(h, 3.0);
  tracer.on_emit(h, 3.5);
  // A genuine revisit (cycle-free graphs don't produce this, but the
  // tracer must not merge distinct hops that completed service).
  tracer.on_enqueue(h, pe_id(1), 4.0);
  tracer.complete(h, 5.0);

  const std::vector<SdoSpan> spans = tracer.recorder().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].hop_count, 2u);
  EXPECT_DOUBLE_EQ(spans[0].hops[0].enqueue, 2.5);
  EXPECT_DOUBLE_EQ(spans[0].hops[0].dequeue, 3.0);
  EXPECT_DOUBLE_EQ(spans[0].hops[1].enqueue, 4.0);
}

TEST(SpanTracerTest, DroppedSpansFeedHopStatsButNotPathHistogram) {
  SpanTracerOptions options;
  options.sample_rate = 1.0;
  SpanTracer tracer(options);
  const std::int32_t h = tracer.begin(pe_id(0), 0.0);
  tracer.on_enqueue(h, pe_id(0), 0.0);
  tracer.on_dequeue(h, 0.5);
  tracer.on_emit(h, 0.75);
  tracer.on_enqueue(h, pe_id(1), 0.75);
  tracer.drop(h, 1.0);

  EXPECT_EQ(tracer.spans_dropped(), 1u);
  EXPECT_EQ(tracer.spans_completed(), 0u);
  EXPECT_TRUE(tracer.latency().paths().empty());
  ASSERT_EQ(tracer.latency().pes().count(0u), 1u);
  EXPECT_EQ(tracer.latency().pes().at(0).wait.count(), 1u);
  // drop() finalizes: a second finalize on the same handle is a no-op.
  tracer.complete(h, 2.0);
  EXPECT_EQ(tracer.spans_completed(), 0u);
}

TEST(SpanTracerTest, WorstSpansSortedByLatencyDescending) {
  SpanTracerOptions options;
  options.sample_rate = 1.0;
  options.worst_k = 3;
  SpanTracer tracer(options);
  for (const double latency : {0.2, 0.9, 0.1, 0.5, 0.7}) {
    const std::int32_t h = tracer.begin(pe_id(0), 0.0);
    tracer.complete(h, latency);
  }
  const std::vector<SdoSpan>& worst = tracer.worst_spans();
  ASSERT_EQ(worst.size(), 3u);
  EXPECT_DOUBLE_EQ(worst[0].latency(), 0.9);
  EXPECT_DOUBLE_EQ(worst[1].latency(), 0.7);
  EXPECT_DOUBLE_EQ(worst[2].latency(), 0.5);
}

// ---------------------------------------------------------------------------
// Integration against the two substrates.

graph::ProcessingGraph small_topology(std::uint64_t seed) {
  graph::TopologyParams params;
  params.num_nodes = 3;
  params.num_ingress = 2;
  params.num_intermediate = 5;
  params.num_egress = 2;
  return graph::generate_topology(params, seed);
}

SpanTracerOptions trace_everything(std::uint64_t seed) {
  SpanTracerOptions options;
  options.sample_rate = 1.0;
  options.seed = seed;
  options.max_in_flight = 16384;
  options.ring_capacity = 16384;
  return options;
}

TEST(SpanSimIntegrationTest, HopTimestampsAreMonotone) {
  const auto g = small_topology(5);
  const auto plan = opt::optimize(g);
  sim::SimOptions options;
  options.duration = 15.0;
  options.warmup = 3.0;
  options.seed = 5;
  SpanTracer tracer(trace_everything(options.seed));
  options.spans = &tracer;
  sim::StreamSimulation sim(g, plan, options);
  sim.run();

  const std::vector<SdoSpan> spans = tracer.recorder().snapshot();
  ASSERT_GT(spans.size(), 100u);
  for (const SdoSpan& span : spans) {
    ASSERT_GT(span.hop_count, 0u);
    EXPECT_LE(span.start, span.hops[0].enqueue);
    double prev = span.start;
    for (std::uint32_t i = 0; i < span.hop_count; ++i) {
      const SpanHop& hop = span.hops[i];
      EXPECT_LE(prev, hop.enqueue);
      prev = hop.enqueue;
      if (hop.dequeue >= 0.0) {
        EXPECT_LE(prev, hop.dequeue);
        prev = hop.dequeue;
      }
      if (hop.emit >= 0.0) {
        EXPECT_LE(prev, hop.emit);
        prev = hop.emit;
      }
    }
    if (span.end >= 0.0) {
      EXPECT_LE(prev, span.end);
    }
  }
}

TEST(SpanSimIntegrationTest, TracingLeavesTheRunReportUntouched) {
  const auto g = small_topology(8);
  const auto plan = opt::optimize(g);
  sim::SimOptions options;
  options.duration = 12.0;
  options.warmup = 2.0;
  options.seed = 8;
  sim::StreamSimulation plain(g, plan, options);
  plain.run();
  const metrics::RunReport untraced = plain.report();

  SpanTracer tracer(trace_everything(options.seed));
  options.spans = &tracer;
  sim::StreamSimulation traced_sim(g, plan, options);
  traced_sim.run();
  const metrics::RunReport traced = traced_sim.report();
  EXPECT_GT(tracer.spans_started(), 0u);

  EXPECT_EQ(untraced.sdos_processed, traced.sdos_processed);
  EXPECT_EQ(untraced.internal_drops, traced.internal_drops);
  EXPECT_EQ(untraced.ingress_drops, traced.ingress_drops);
  EXPECT_DOUBLE_EQ(untraced.weighted_throughput, traced.weighted_throughput);
  EXPECT_DOUBLE_EQ(untraced.latency.mean(), traced.latency.mean());
  EXPECT_EQ(untraced.latency_histogram.count(),
            traced.latency_histogram.count());
}

// The sampling draw sits on the arrival path, before admission: which SDOs
// are traced is a pure function of (seed, source PE, arrival index), so a
// full ingress buffer turning SDOs away cannot shift the sampled set.
TEST(SpanSimIntegrationTest, SampledSetIgnoresIngressDrops) {
  graph::TopologyParams params;
  params.load_factor = 1.4;
  const graph::ProcessingGraph base = graph::generate_topology(params, 5);
  const auto run = [&](int buffer, std::uint64_t* ingress_drops) {
    graph::ProcessingGraph g = base;
    for (PeId id : g.all_pes()) g.pe(id).buffer_capacity = buffer;
    sim::SimOptions options;
    options.duration = 40.0;
    options.seed = 5;
    options.controller.policy = control::FlowPolicy::kUdp;
    SpanTracerOptions tracer_options;
    tracer_options.sample_rate = 0.05;
    tracer_options.seed = options.seed;
    tracer_options.keep_completed = true;
    SpanTracer tracer(tracer_options);
    options.spans = &tracer;
    sim::StreamSimulation sim(g, opt::optimize(g), options);
    sim.run();
    *ingress_drops = sim.report().ingress_drops;
    // Finished spans (completed or dropped) plus the ones still in flight.
    tracer.fault_dump("end", sim.now());
    std::set<std::uint64_t> ids;
    const auto keep = [&ids](const SdoSpan& span) {
      if (span.start < 10.0) ids.insert(span.trace_id);
    };
    for (const SdoSpan& span : tracer.take_completed()) keep(span);
    for (const SdoSpan& span : tracer.dumps().back().in_flight) keep(span);
    return ids;
  };
  std::uint64_t small_drops = 0;
  std::uint64_t large_drops = 0;
  const std::set<std::uint64_t> small = run(5, &small_drops);
  const std::set<std::uint64_t> large = run(400, &large_drops);
  EXPECT_GT(small_drops, large_drops);
  EXPECT_GT(small.size(), 50u);
  EXPECT_EQ(small, large);
}

TEST(SpanCrossSubstrateTest, PathIdsAreStableAcrossSubstrates) {
  const auto g = small_topology(13);
  const auto plan = opt::optimize(g);

  sim::SimOptions sim_options;
  sim_options.duration = 10.0;
  sim_options.warmup = 2.0;
  sim_options.seed = 13;
  SpanTracer sim_tracer(trace_everything(13));
  sim_options.spans = &sim_tracer;
  sim::StreamSimulation sim(g, plan, sim_options);
  sim.run();

  runtime::RuntimeOptions rt_options;
  rt_options.duration = 10.0;
  rt_options.warmup = 2.0;
  rt_options.time_scale = 20.0;
  rt_options.seed = 13;
  SpanTracer rt_tracer(trace_everything(13));
  rt_options.spans = &rt_tracer;
  runtime::run_runtime(g, plan, rt_options);

  const auto labels_of = [](const SpanTracer& tracer) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& [id, stats] : tracer.latency().paths()) {
      out[stats.label] = id;
    }
    return out;
  };
  const auto sim_paths = labels_of(sim_tracer);
  const auto rt_paths = labels_of(rt_tracer);
  ASSERT_FALSE(sim_paths.empty());
  ASSERT_FALSE(rt_paths.empty());
  std::size_t shared = 0;
  for (const auto& [label, id] : sim_paths) {
    const auto it = rt_paths.find(label);
    if (it == rt_paths.end()) continue;
    EXPECT_EQ(id, it->second) << "path " << label;
    ++shared;
  }
  // Both substrates route the same plan: the busy paths must coincide.
  EXPECT_GT(shared, 0u);
}

TEST(SpanFaultDumpTest, CrashDumpCapturesTheDoomedInFlightSpans) {
  const auto g = small_topology(21);
  const auto plan = opt::optimize(g);
  sim::SimOptions options;
  options.duration = 20.0;
  options.warmup = 2.0;
  options.seed = 21;
  options.faults = fault::parse_fault_spec("crash node=1 at=8 until=14");
  SpanTracer tracer(trace_everything(options.seed));
  options.spans = &tracer;
  sim::StreamSimulation sim(g, plan, options);
  sim.run();

  EXPECT_EQ(tracer.dumps_taken(), 1u);
  ASSERT_EQ(tracer.dumps().size(), 1u);
  const FlightDump& dump = tracer.dumps()[0];
  EXPECT_EQ(dump.event, "fault.node_crash");
  EXPECT_DOUBLE_EQ(dump.time, 8.0);
  // The dump is taken before the crash discards spans, so the SDOs about
  // to be lost on the crashed node are present in the in-flight capture.
  ASSERT_FALSE(dump.in_flight.empty());
  std::size_t on_crashed_node = 0;
  for (const SdoSpan& span : dump.in_flight) {
    ASSERT_GT(span.hop_count, 0u);
    const std::uint32_t last_pe = span.hops[span.hop_count - 1].pe;
    if (g.pe(PeId(last_pe)).node == NodeId(1)) ++on_crashed_node;
  }
  EXPECT_GT(on_crashed_node, 0u);
  // Those spans were then dropped, not completed.
  EXPECT_GT(tracer.spans_dropped(), 0u);
}

TEST(SpanExportTest, PrometheusAndJsonlExpositionsAreWellFormed) {
  const auto g = small_topology(3);
  const auto plan = opt::optimize(g);
  sim::SimOptions options;
  options.duration = 10.0;
  options.warmup = 2.0;
  options.seed = 3;
  SpanTracer tracer(trace_everything(options.seed));
  options.spans = &tracer;
  sim::StreamSimulation sim(g, plan, options);
  sim.run();

  std::ostringstream prom;
  write_latency_prometheus(prom, tracer);
  const std::string text = prom.str();
  EXPECT_NE(text.find("# TYPE aces_spans_started_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE aces_pe_wait_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE aces_path_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);

  std::ostringstream jsonl;
  write_spans_jsonl(jsonl, tracer);
  std::istringstream lines(jsonl.str());
  std::string line;
  std::size_t count = 0;
  bool saw_meta = false;
  bool saw_pe = false;
  bool saw_path = false;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"kind\":"), std::string::npos);
    saw_meta = saw_meta || line.find("\"kind\":\"meta\"") != std::string::npos;
    saw_pe = saw_pe || line.find("\"kind\":\"pe\"") != std::string::npos;
    saw_path = saw_path || line.find("\"kind\":\"path\"") != std::string::npos;
    ++count;
  }
  EXPECT_GT(count, 3u);
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_pe);
  EXPECT_TRUE(saw_path);
}

}  // namespace
}  // namespace aces::obs
