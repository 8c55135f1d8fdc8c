// The PE data-path kernel's transitions, checked directly: selectivity and
// fan-out, egress accounting, the Lock-Step hold, the controller's Eq. 8
// view, crash discard, and the partition-invariant stream forks. The
// substrates' end-to-end tests cover the same rules only through a whole
// run.
#include "pe/pe_core.h"

#include <gtest/gtest.h>

#include <limits>
#include <utility>
#include <vector>

#include "graph/topology_generator.h"
#include "obs/spans.h"

namespace aces::pe {
namespace {

/// Records what the kernel reports to a collector.
struct RecordingCollector {
  std::uint64_t processed = 0;
  std::uint64_t internal_drops = 0;
  std::vector<std::pair<std::size_t, Seconds>> egress;  // (index, latency)
  std::vector<double> cpu;
  std::vector<double> fill;

  void on_processed(Seconds, std::uint64_t count = 1) { processed += count; }
  void on_egress_output(Seconds, std::size_t index, double, Seconds latency) {
    egress.emplace_back(index, latency);
  }
  void on_internal_drop(Seconds) { ++internal_drops; }
  void on_cpu_used(Seconds, double cpu_seconds) { cpu.push_back(cpu_seconds); }
  void on_buffer_sample(Seconds, double fraction) { fill.push_back(fraction); }
};

PeCore<Sdo> make_core() {
  return PeCore<Sdo>(workload::ServiceModel(0.002, 0.020, 10.0, 1.0, Rng(1)));
}

graph::PeDescriptor descriptor(graph::PeKind kind, double selectivity) {
  graph::PeDescriptor d;
  d.kind = kind;
  d.selectivity = selectivity;
  return d;
}

obs::SpanTracer trace_everything() {
  obs::SpanTracerOptions options;
  options.sample_rate = 1.0;
  return obs::SpanTracer(options);
}

/// A traced SDO born at `birth` and queued at source PE `pe`.
Sdo traced(obs::SpanTracer& tracer, std::uint32_t pe, Seconds birth) {
  Sdo sdo{birth, sample_arrival(&tracer, PeId(pe), birth)};
  tracer.on_enqueue(sdo.span, PeId(pe), birth);
  return sdo;
}

TEST(PeCoreTest, SelectivityCreditEmitsTheExactMeanPerSlot) {
  PeCore<Sdo> core = make_core();
  RecordingCollector collector;
  const graph::PeDescriptor d = descriptor(graph::PeKind::kIntermediate, 1.5);
  std::vector<int> per_slot(2, 0);
  for (int i = 0; i < 100; ++i) {
    core.begin_service(Sdo{}, 0.0, nullptr, 0.0);
    core.complete(d, 2, 1.0, collector, nullptr,
                  [&](std::size_t slot, const Sdo&) { ++per_slot[slot]; });
  }
  EXPECT_EQ(per_slot[0], 150);
  EXPECT_EQ(per_slot[1], 150);
  EXPECT_EQ(core.lifetime_processed, 100u);
  EXPECT_EQ(core.lifetime_emitted, 300u);
  EXPECT_EQ(collector.processed, 100u);
  EXPECT_DOUBLE_EQ(core.processed, 100.0);
  EXPECT_FALSE(core.busy);
}

TEST(PeCoreTest, AbsorbedSdoCompletesItsSpanInsteadOfDroppingIt) {
  obs::SpanTracer tracer = trace_everything();
  PeCore<Sdo> core = make_core();
  RecordingCollector collector;
  const graph::PeDescriptor d = descriptor(graph::PeKind::kIntermediate, 0.5);
  core.begin_service(traced(tracer, 0, 0.0), 0.1, &tracer, 0.1);
  const std::uint64_t copies =
      core.complete(d, 1, 0.2, collector, &tracer,
                    [](std::size_t, const Sdo&) { ADD_FAILURE(); });
  EXPECT_EQ(copies, 0u);
  EXPECT_EQ(tracer.spans_completed(), 1u);
  EXPECT_EQ(tracer.spans_dropped(), 0u);
  EXPECT_EQ(core.lifetime_dropped, 0u);
}

TEST(PeCoreTest, FanOutGoesSlotBySlotAndOnlyTheFirstCopyCarriesTheSpan) {
  obs::SpanTracer tracer = trace_everything();
  PeCore<Sdo> core = make_core();
  RecordingCollector collector;
  const graph::PeDescriptor d = descriptor(graph::PeKind::kIntermediate, 2.0);
  const Sdo sdo = traced(tracer, 0, 0.5);
  ASSERT_GE(sdo.span, 0);
  core.begin_service(sdo, 1.0, &tracer, 1.0);
  std::vector<std::pair<std::size_t, std::int32_t>> sent;
  const std::uint64_t copies =
      core.complete(d, 3, 2.0, collector, &tracer,
                    [&](std::size_t slot, const Sdo& copy) {
                      EXPECT_DOUBLE_EQ(copy.birth, 0.5);
                      sent.emplace_back(slot, copy.span);
                    });
  const std::vector<std::pair<std::size_t, std::int32_t>> expected = {
      {0, sdo.span}, {0, -1}, {1, -1}, {1, -1}, {2, -1}, {2, -1}};
  EXPECT_EQ(sent, expected);
  EXPECT_EQ(copies, 6u);
  EXPECT_EQ(core.lifetime_emitted, 6u);
  // The span travels on; it is neither completed nor dropped here.
  EXPECT_EQ(tracer.spans_completed() + tracer.spans_dropped(), 0u);
}

TEST(PeCoreTest, EgressCountsOutputsWithLatencySinceBirth) {
  obs::SpanTracer tracer = trace_everything();
  PeCore<Sdo> core = make_core();
  core.egress_index = 3;
  RecordingCollector collector;
  const graph::PeDescriptor d = descriptor(graph::PeKind::kEgress, 1.0);
  core.begin_service(traced(tracer, 0, 1.25), 1.5, &tracer, 1.5);
  const std::uint64_t outputs =
      core.complete(d, 0, 2.0, collector, &tracer,
                    [](std::size_t, const Sdo&) { ADD_FAILURE(); });
  EXPECT_EQ(outputs, 1u);
  ASSERT_EQ(collector.egress.size(), 1u);
  EXPECT_EQ(collector.egress[0].first, 3u);
  EXPECT_DOUBLE_EQ(collector.egress[0].second, 0.75);
  EXPECT_EQ(core.lifetime_emitted, 1u);
  EXPECT_EQ(tracer.spans_completed(), 1u);
}

TEST(PeCoreTest, EgressTickInputReadsInfinityWithAgeZero) {
  PeCore<Sdo> core = make_core();
  core.processed = 4.0;
  core.cpu_used = 0.03;
  core.arrived = 5.0;
  const control::PeTickInput in =
      core.tick_input(5.0, 7, true, 0, 1.0, [](std::size_t) {
        ADD_FAILURE();
        return Advert{};
      });
  EXPECT_EQ(in.downstream_rmax, std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(in.downstream_advert_age, 0.0);
  EXPECT_DOUBLE_EQ(in.buffer_occupancy, 7.0);
  EXPECT_DOUBLE_EQ(in.processed_sdos, 4.0);
  EXPECT_DOUBLE_EQ(in.cpu_seconds_used, 0.03);
  EXPECT_DOUBLE_EQ(in.arrived_sdos, 5.0);
  EXPECT_TRUE(in.output_blocked);
}

TEST(PeCoreTest, StaleSlotReadsZeroWhileAFreshSlotGoverns) {
  const PeCore<Sdo> core = make_core();
  // Slot 0 advertises more but went silent at t=0; slot 1 is fresh.
  const std::vector<Advert> adverts = {{100.0, 0.0}, {40.0, 4.5}};
  const auto advert = [&](std::size_t slot) { return adverts[slot]; };
  const control::PeTickInput in = core.tick_input(5.0, 0, false, 2, 1.0, advert);
  EXPECT_DOUBLE_EQ(in.downstream_rmax, 40.0);
  EXPECT_DOUBLE_EQ(in.downstream_advert_age, 0.5);
  // Without a staleness timeout the Eq. 8 max takes the fastest consumer.
  EXPECT_DOUBLE_EQ(core.tick_input(5.0, 0, false, 2, 0.0, advert).downstream_rmax,
                   100.0);
  // Every slot silent: the cap clamps to zero.
  EXPECT_DOUBLE_EQ(core.tick_input(9.0, 0, false, 2, 1.0, advert).downstream_rmax,
                   0.0);
}

TEST(PeCoreTest, CloseIntervalSamplesClampedFillAndResetsCounters) {
  PeCore<Sdo> core = make_core();
  RecordingCollector collector;
  core.processed = 2.0;
  core.cpu_used = 0.05;
  core.arrived = 3.0;
  core.close_interval(1.0, 60, 50, collector);
  ASSERT_EQ(collector.fill.size(), 1u);
  EXPECT_DOUBLE_EQ(collector.fill[0], 1.0);
  ASSERT_EQ(collector.cpu.size(), 1u);
  EXPECT_DOUBLE_EQ(collector.cpu[0], 0.05);
  EXPECT_DOUBLE_EQ(core.processed + core.cpu_used + core.arrived, 0.0);
}

TEST(PeCoreTest, DiscardLosesTheSdoInServiceThenTheHeldOnes) {
  obs::SpanTracer tracer = trace_everything();
  PeCore<Sdo> core = make_core();
  RecordingCollector collector;
  core.share = 0.4;
  core.begin_service(traced(tracer, 7, 0.0), 0.0, &tracer, 0.0);
  const std::vector<Sdo> held = {traced(tracer, 8, 0.5), Sdo{0.6}, Sdo{0.7}};
  const std::uint64_t lost =
      core.discard(1.0, collector, &tracer, [&](auto lose) {
        for (const Sdo& sdo : held) lose(sdo);
      });
  EXPECT_EQ(lost, 4u);
  EXPECT_EQ(core.lifetime_dropped, 4u);
  EXPECT_EQ(collector.internal_drops, 4u);
  EXPECT_EQ(tracer.spans_dropped(), 2u);
  EXPECT_EQ(tracer.spans_completed(), 0u);
  const std::vector<obs::SdoSpan> order = tracer.recorder().snapshot();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].source_pe, 7u);  // the SDO in service goes first
  EXPECT_EQ(order[1].source_pe, 8u);
  EXPECT_FALSE(core.busy);
  EXPECT_DOUBLE_EQ(core.work_remaining, 0.0);
  EXPECT_DOUBLE_EQ(core.share, 0.0);
  // An idle PE with nothing held loses nothing.
  EXPECT_EQ(core.discard(2.0, collector, &tracer, [](auto) {}), 0u);
}

/// An offer whose consumer is always full.
bool refuse(std::size_t, const Sdo&) { return false; }

/// Source PEs of the spans `tracer` recorded, in the order they ended.
std::vector<std::uint32_t> ended_sources(const obs::SpanTracer& tracer) {
  std::vector<std::uint32_t> sources;
  for (const obs::SdoSpan& span : tracer.recorder().snapshot()) {
    sources.push_back(span.source_pe);
  }
  return sources;
}

TEST(PeCoreTest, ARefusedCopyIsHeldAndBlocksWhileAnotherSlotStillTakes) {
  PeCore<Sdo> core = make_core();
  core.held = decltype(core.held)(4);
  // Slot 0's consumer is full; slot 1's takes every copy.
  std::vector<std::pair<std::size_t, Seconds>> taken;
  const auto offer = [&](std::size_t slot, const Sdo& sdo) {
    if (slot == 0) return false;
    taken.emplace_back(slot, sdo.birth);
    return true;
  };
  EXPECT_TRUE(core.send_or_hold(0, Sdo{1.0}, offer));
  EXPECT_TRUE(core.blocked);
  EXPECT_FALSE(core.send_or_hold(1, Sdo{2.0}, offer));
  const std::vector<std::pair<std::size_t, Seconds>> expected = {{1, 2.0}};
  EXPECT_EQ(taken, expected);
  ASSERT_EQ(core.held.size(), 1u);
  EXPECT_EQ(core.held.front().first, 0u);
  EXPECT_DOUBLE_EQ(core.held.front().second.birth, 1.0);
  EXPECT_TRUE(core.blocked);
}

TEST(PeCoreTest, FlushOffersTheOldestFirstAndUnblocksOnlyWhenEmpty) {
  PeCore<Sdo> core = make_core();
  core.held = decltype(core.held)(4);
  for (int k = 0; k < 3; ++k) {
    core.send_or_hold(static_cast<std::size_t>(k % 2), Sdo{k * 1.0}, refuse);
  }
  int room = 1;
  std::vector<Seconds> offered;
  const auto offer = [&](std::size_t, const Sdo& sdo) {
    offered.push_back(sdo.birth);
    return room-- > 0;
  };
  // Room for one copy: the oldest goes, the next is refused, and the last
  // is not offered.
  EXPECT_FALSE(core.flush(offer));
  EXPECT_EQ(offered, (std::vector<Seconds>{0.0, 1.0}));
  EXPECT_EQ(core.held.size(), 2u);
  EXPECT_TRUE(core.blocked);
  // Room for the rest: they go in order and the PE unblocks.
  room = 2;
  offered.clear();
  EXPECT_TRUE(core.flush(offer));
  EXPECT_EQ(offered, (std::vector<Seconds>{1.0, 2.0}));
  EXPECT_TRUE(core.held.empty());
  EXPECT_FALSE(core.blocked);
}

TEST(PeCoreTest, DiscardDropsTheHoldAfterTheSdoInServiceAndBeforeTheQueues) {
  obs::SpanTracer tracer = trace_everything();
  PeCore<Sdo> core = make_core();
  core.held = decltype(core.held)(2);
  RecordingCollector collector;
  core.send_or_hold(0, traced(tracer, 8, 0.1), refuse);
  core.send_or_hold(1, traced(tracer, 9, 0.2), refuse);
  core.begin_service(traced(tracer, 7, 0.3), 0.3, &tracer, 0.3);
  const Sdo queued = traced(tracer, 10, 0.4);
  EXPECT_EQ(core.discard(1.0, collector, &tracer,
                         [&](auto lose) { lose(queued); }),
            4u);
  EXPECT_EQ(ended_sources(tracer), (std::vector<std::uint32_t>{7, 8, 9, 10}));
  EXPECT_EQ(collector.internal_drops, 4u);
  EXPECT_TRUE(core.held.empty());
  EXPECT_FALSE(core.blocked);
}

TEST(PeCoreTest, BuildCoresSizesTheHoldForOneCompletion) {
  // A PE of selectivity 2.5 feeding three consumers: with a 0.9 credit
  // carried in, one completion emits 3 copies per slot, the bound.
  graph::ProcessingGraph g;
  const NodeId node = g.add_node();
  graph::PeDescriptor d;
  d.kind = graph::PeKind::kIngress;
  d.node = node;
  d.selectivity = 2.5;
  d.input_stream = g.add_stream({100.0, 0.0, "feed"});
  const PeId producer = g.add_pe(d);
  for (int k = 0; k < 3; ++k) {
    graph::PeDescriptor consumer;
    consumer.kind = graph::PeKind::kEgress;
    consumer.node = node;
    g.add_edge(producer, g.add_pe(consumer));
  }
  opt::AllocationPlan plan;
  plan.pe.resize(g.pe_count());
  Rng master(1);
  std::vector<PeCore<Sdo>> cores;
  cores.reserve(g.pe_count());
  build_cores(g, plan, master,
              [&](PeId, workload::ServiceModel service) -> PeCore<Sdo>& {
                return cores.emplace_back(std::move(service));
              });
  PeCore<Sdo>& core = cores[producer.value()];
  RecordingCollector collector;
  core.selectivity_credit = 0.9;
  core.begin_service(Sdo{}, 0.0, nullptr, 0.0);
  EXPECT_EQ(core.complete(g.pe(producer), 3, 1.0, collector, nullptr,
                          [&](std::size_t slot, const Sdo& sdo) {
                            core.send_or_hold(slot, sdo, refuse);
                          }),
            9u);
  EXPECT_EQ(core.held.size(), 9u);
  EXPECT_TRUE(core.held.full());
  EXPECT_TRUE(core.blocked);
}

TEST(PeCoreTest, HostedSourcesGetTheSameStreamsAsTheWholeSet) {
  graph::TopologyParams params;
  params.num_nodes = 4;
  params.num_ingress = 6;
  const graph::ProcessingGraph g = graph::generate_topology(params, 3);
  Rng whole_master(11);
  Rng part_master(11);
  std::vector<Source> whole = make_sources(g, whole_master, nullptr);
  std::vector<Source> part = make_sources(
      g, part_master, nullptr, [](NodeId n) { return n.value() % 2 == 1; });
  ASSERT_EQ(whole.size(), 6u);
  ASSERT_FALSE(part.empty());
  ASSERT_LT(part.size(), whole.size());
  // Both masters advanced past every stream fork.
  EXPECT_EQ(whole_master(), part_master());
  for (Source& hosted : part) {
    EXPECT_EQ(g.pe(hosted.pe).node.value() % 2, 1u);
    Source* same = nullptr;
    for (Source& s : whole) {
      if (s.pe == hosted.pe) same = &s;
    }
    ASSERT_NE(same, nullptr);
    for (int k = 0; k < 20; ++k) {
      EXPECT_DOUBLE_EQ(hosted.process->next_interarrival(),
                       same->process->next_interarrival());
    }
  }
}

}  // namespace
}  // namespace aces::pe
