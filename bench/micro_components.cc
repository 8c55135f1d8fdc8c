// Micro-benchmarks (google-benchmark) for the building blocks on the hot
// paths: the event kernel, the tier-2 controller, the data-plane channel,
// and the tier-1 solver. These quantify the claim that the distributed
// controller is "computationally light" (paper §V-C). The BM_Cluster*
// benchmarks time each exposition of a filled cluster aggregator; BM_Wire*
// and BM_InprocRoundTrip time what a distributed quantum pays around its
// compute: one PeerBatch's codec and one in-process handoff each way.
#include <sys/resource.h>

#include <benchmark/benchmark.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "control/cpu_scheduler.h"
#include "control/flow_controller.h"
#include "control/lqr.h"
#include "control/node_controller.h"
#include "graph/topology_generator.h"
#include "obs/cluster_aggregate.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "opt/global_optimizer.h"
#include "runtime/channel.h"
#include "runtime/dist_coordinator.h"
#include "runtime/dist_options.h"
#include "runtime/transport/inproc.h"
#include "runtime/wire.h"
#include "sim/simulator.h"
#include "sim/stream_simulation.h"

namespace {

using namespace aces;

// lane:0 schedules every event on the heap at scattered times; lane:1
// schedules every event through a registered FIFO lane.
void BM_EventQueueScheduleAndRun(benchmark::State& state) {
  const auto events = static_cast<int>(state.range(0));
  const bool lane = state.range(1) != 0;
  for (auto _ : state) {
    sim::Simulator simulator;
    if (lane) simulator.add_lane(1e-3);
    for (int i = 0; i < events; ++i) {
      if (lane) {
        simulator.schedule_in(1e-3, [] {});
      } else {
        simulator.schedule_at((i * 7919) % 1000 * 1e-3, [] {});
      }
    }
    simulator.run_all();
    benchmark::DoNotOptimize(simulator.executed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_EventQueueScheduleAndRun)
    ->ArgNames({"events", "lane"})
    ->ArgsProduct({{1000, 10000}, {0, 1}});

void BM_FlowControllerUpdate(benchmark::State& state) {
  const auto gains = control::design_flow_gains(2, control::LqrWeights{});
  control::FlowController fc(gains, 25.0);
  double b = 40.0;
  for (auto _ : state) {
    const double r = fc.update(b, 100.0);
    b = b > 25.0 ? b - 0.1 : b + 0.1;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FlowControllerUpdate);

void BM_PartitionCpu(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<control::CpuDemand> demands(n);
  for (std::size_t i = 0; i < n; ++i) {
    demands[i] = {1.0 + static_cast<double>(i % 7),
                  0.05 * static_cast<double>(1 + i % 4)};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(control::partition_cpu(1.0, demands));
  }
}
BENCHMARK(BM_PartitionCpu)->Arg(6)->Arg(32);

void BM_NodeControllerTick(benchmark::State& state) {
  graph::TopologyParams params;
  params.num_nodes = 1;
  params.num_ingress = 2;
  params.num_intermediate = 3;
  params.num_egress = 1;
  const auto g = generate_topology(params, 1);
  const auto plan = opt::optimize(g);
  control::NodeController controller(g, NodeId(0), plan,
                                     control::ControllerConfig{});
  std::vector<control::PeTickInput> inputs(controller.local_pes().size());
  for (auto& in : inputs) {
    in.buffer_occupancy = 20.0;
    in.processed_sdos = 10.0;
    in.cpu_seconds_used = 0.02;
    in.arrived_sdos = 11.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.tick(0.1, inputs));
  }
}
BENCHMARK(BM_NodeControllerTick);

void BM_DareSolve(benchmark::State& state) {
  const int delay = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        control::design_flow_gains(delay, control::LqrWeights{}));
  }
}
BENCHMARK(BM_DareSolve)->Arg(0)->Arg(2)->Arg(6);

void BM_ChannelPushPop(benchmark::State& state) {
  runtime::Channel<int> ch(1024);
  for (auto _ : state) {
    ch.try_push(1);
    benchmark::DoNotOptimize(ch.try_pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelPushPop);

/// A PeerBatch of `deliveries` deliveries and `adverts` adverts: 448 bytes
/// with 26 and none, about what a 400-PE two-shard quantum trades.
runtime::wire::PeerBatch peer_batch(int deliveries, int adverts) {
  runtime::wire::PeerBatch batch;
  batch.quantum = 1234;
  for (int i = 0; i < deliveries; ++i) {
    batch.deliveries.push_back(runtime::wire::SdoDelivery{
        static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(i / 4),
        0.1 * i});
  }
  for (int i = 0; i < adverts; ++i) {
    batch.adverts.push_back(runtime::wire::Advert{
        static_cast<std::uint32_t>(i), 10.0 + i, 0.5});
  }
  return batch;
}

void BM_WireEncodePeerBatch(benchmark::State& state) {
  const runtime::wire::PeerBatch batch =
      peer_batch(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::vector<std::uint8_t> frame = runtime::wire::encode(batch);
    bytes = frame.size();
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes));
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_WireEncodePeerBatch)
    ->ArgNames({"deliveries", "adverts"})
    ->Args({26, 0})
    ->Args({26, 100});

void BM_WireDecodePeerBatch(benchmark::State& state) {
  const std::vector<std::uint8_t> frame = runtime::wire::encode(
      peer_batch(static_cast<int>(state.range(0)),
                 static_cast<int>(state.range(1))));
  const std::vector<std::uint8_t> payload(
      frame.begin() + runtime::wire::kHeaderBytes, frame.end());
  for (auto _ : state) {
    auto batch = runtime::wire::decode_peer_batch(payload);
    benchmark::DoNotOptimize(batch);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
  state.counters["bytes"] = static_cast<double>(frame.size());
}
BENCHMARK(BM_WireDecodePeerBatch)
    ->ArgNames({"deliveries", "adverts"})
    ->Args({26, 0})
    ->Args({26, 100});

/// Receives one frame in the worker's 20-ms slices.
runtime::transport::RecvStatus recv_in_slices(
    runtime::transport::Endpoint& ep, runtime::wire::Frame* frame) {
  auto status = runtime::transport::RecvStatus::kTimeout;
  while (status == runtime::transport::RecvStatus::kTimeout) {
    status = ep.recv(frame, 20);
  }
  return status;
}

long context_switches() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw + usage.ru_nivcsw;
}

/// One Heartbeat each way through an in-process pair, the other end echoed
/// by a second thread: the fixed cost of a handoff. Run it pinned to one CPU
/// (`taskset -c 0`), as perfbench runs, to count one wake per handoff:
/// `switches` is the process's context switches per round trip.
void BM_InprocRoundTrip(benchmark::State& state) {
  auto [near, far] = runtime::transport::make_inproc_pair();
  runtime::transport::Endpoint& echo_end = *far;
  const std::vector<std::uint8_t> heartbeat =
      runtime::wire::encode(runtime::wire::Heartbeat{});
  std::thread echo([&echo_end, &heartbeat] {
    runtime::wire::Frame frame;
    while (recv_in_slices(echo_end, &frame) ==
               runtime::transport::RecvStatus::kOk &&
           echo_end.send(heartbeat)) {
    }
  });
  runtime::wire::Frame frame;
  const long before = context_switches();
  for (auto _ : state) {
    near->send(heartbeat);
    recv_in_slices(*near, &frame);
  }
  const long switches = context_switches() - before;
  near->close();
  echo.join();
  state.SetItemsProcessed(state.iterations());
  state.counters["switches"] = benchmark::Counter(
      static_cast<double>(switches), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_InprocRoundTrip);

void BM_CounterDisabled(benchmark::State& state) {
  // Telemetry off: the handle the runtime holds when RuntimeOptions::counters
  // is null. Must price at a predicted-not-taken branch (~a ns or less) so
  // leaving the counters compiled into the data plane is free.
  obs::Counter counter;
  for (auto _ : state) {
    counter.inc();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterDisabled);

void BM_CounterEnabled(benchmark::State& state) {
  obs::Registry registry;
  obs::Counter counter = registry.counter("bench.events");
  for (auto _ : state) {
    counter.inc();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterEnabled);

void BM_TraceRecord(benchmark::State& state) {
  // Control-plane rate is ~10 Hz × nodes, so the mutex is fine; this bounds
  // the cost of one record() for sizing longer traced runs.
  obs::ControlTraceRecorder recorder;
  obs::TickRecord rec;
  rec.buffer_occupancy = 20.0;
  for (auto _ : state) {
    recorder.record(rec);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecord);

void BM_ScopedTimerDisabled(benchmark::State& state) {
  // Disabled timer: construction + destruction must not read the clock.
  for (auto _ : state) {
    obs::ScopedTimer timer{obs::Timer()};
    benchmark::DoNotOptimize(&timer);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopedTimerDisabled);

void BM_TopologyGeneration(benchmark::State& state) {
  graph::TopologyParams params;  // 60 PEs / 10 nodes
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_topology(params, seed++));
  }
}
BENCHMARK(BM_TopologyGeneration);

void BM_GlobalOptimize(benchmark::State& state) {
  const auto g = generate_topology(graph::TopologyParams{}, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt::optimize(g));
  }
}
BENCHMARK(BM_GlobalOptimize);

void BM_SimulatedSecond(benchmark::State& state) {
  // Cost of simulating one virtual second of the 60 PE / 10 node system.
  const auto g = generate_topology(graph::TopologyParams{}, 1);
  const auto plan = opt::optimize(g);
  for (auto _ : state) {
    sim::SimOptions o;
    o.duration = 2.0;
    o.warmup = 1.0;
    o.seed = 1;
    benchmark::DoNotOptimize(sim::simulate(g, plan, o));
  }
}
BENCHMARK(BM_SimulatedSecond);

/// An aggregator filled by one run of perfbench's dist_telemetry shape on
/// the in-process transport: the 60-PE default topology, 2 workers, 4
/// substeps, 1% of spans sampled, 100 virtual seconds. Its wall time is
/// what an exposition's cost is a share of.
struct TelemetryRun {
  obs::ClusterAggregator aggregator;
  double wall_seconds = 0.0;

  TelemetryRun() {
    const auto g = generate_topology(graph::TopologyParams{}, 1);
    const auto plan = opt::optimize(g);
    runtime::dist::DistOptions o;
    o.duration = 100.0;
    o.warmup = 10.0;
    o.processes = 2;
    o.substeps = 4;
    o.transport = runtime::transport::TransportKind::kInProc;
    o.span_sample = 0.01;
    o.aggregator = &aggregator;
    const auto start = std::chrono::steady_clock::now();
    runtime::dist::run_distributed(g, plan, o);
    wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  }
};

/// Times one rendering of the filled aggregator; reports its size and the
/// filling run's wall time.
void render(benchmark::State& state,
            void (obs::ClusterAggregator::*write)(std::ostream&) const) {
  static const TelemetryRun run;  // filled once, outside every timed loop
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    (run.aggregator.*write)(os);
    bytes = static_cast<std::size_t>(os.tellp());
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["run_ms"] = run.wall_seconds * 1e3;
}

void BM_ClusterStatus(benchmark::State& state) {
  render(state, &obs::ClusterAggregator::write_status);
}
BENCHMARK(BM_ClusterStatus);

void BM_ClusterPrometheus(benchmark::State& state) {
  render(state, &obs::ClusterAggregator::write_prometheus);
}
BENCHMARK(BM_ClusterPrometheus);

void BM_ClusterReport(benchmark::State& state) {
  render(state, &obs::ClusterAggregator::write_report);
}
BENCHMARK(BM_ClusterReport);

}  // namespace

BENCHMARK_MAIN();
