#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "control/node_controller.h"
#include "graph/serialization.h"
#include "runtime/transport/inproc.h"
#include "runtime/transport/uds.h"
#include "runtime/wire.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

namespace transport = aces::runtime::transport;
namespace wire = aces::runtime::wire;

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"graph.generate_ms", "ms"},
    {"graph.topology_bytes", "bytes"},
    {"graph.parse_ms", "ms"},
    {"opt.solve_ms", "ms"},
    {"dist.start_stop_ms", "ms"},
    {"dist.start_stop_cpu_ms", "ms"},
    {"sim.events", "count"},
    {"sim.events_per_sdo", "ratio"},
    {"sim.ns_per_event.aces", "ns"},
    {"sim.ns_per_event.udp", "ns"},
    {"sim.ns_per_event.lockstep", "ns"},
    {"sim.ns_per_event.threshold", "ns"},
    {"sim.calendar_population", "count"},
    {"sim.calendar_ns_per_event", "ns"},
    {"sim.unattributed_share", "ratio"},
    {"workload.arrivals", "count"},
    {"workload.arrival_ns", "ns"},
    {"control.ticks", "count"},
    {"control.tick_us", "us"},
    {"dist.quanta", "count"},
    {"dist.us_per_quantum", "us"},
    {"dist.barrier_rtt_us", "us"},
    {"dist.step_skew_us_mean", "us"},
    {"dist.step_skew_us_max", "us"},
    {"dist.heartbeats", "count"},
    {"dist.unattributed_us_per_quantum", "us"},
    {"wire.frames_per_quantum", "frames/quantum"},
    {"wire.bytes_per_quantum", "bytes/quantum"},
    {"wire.encode_ns_per_byte", "ns/byte"},
    {"wire.decode_ns_per_byte", "ns/byte"},
    {"transport.uds_rtt_us", "us"},
    {"transport.inproc_rtt_us", "us"},
    {"obs.spans_completed", "count"},
    {"obs.telemetry_frames", "count"},
    {"obs.telemetry_bytes", "bytes"},
    {"obs.telemetry_overhead", "ratio"},
    {"bench.trace_overhead", "ms"},
    {"budget.run_ms", "ms"},
    {"budget.graph_ms", "ms"},
    {"budget.start_stop_ms", "ms"},
    {"budget.workload_ms", "ms"},
    {"budget.control_ms", "ms"},
    {"budget.calendar_ms", "ms"},
    {"budget.wire_ms", "ms"},
    {"budget.transport_ms", "ms"},
    {"budget.obs_ms", "ms"},
    {"budget.unattributed_ms", "ms"},
};

/// The attributed budget lines. With budget.unattributed_ms, the remainder,
/// they sum to budget.run_ms by construction.
const char* const kAttributed[] = {
    "budget.graph_ms",   "budget.start_stop_ms", "budget.workload_ms",
    "budget.control_ms", "budget.calendar_ms",   "budget.wire_ms",
    "budget.transport_ms", "budget.obs_ms",
};

constexpr int kSetupRepeats = 5;
constexpr int kReplayRepeats = 3;
/// Control interval every substrate ticks at (the options' default).
constexpr double kDt = 0.1;
/// SimOptions' default cross-node delivery latency: how long an SDO
/// delivery event stays pending in the calendar.
constexpr double kNetworkLatency = 0.002;
/// Hold-model events replayed per repeat (capped so the replay stays short).
constexpr std::uint64_t kCalendarEvents = 2'000'000;
/// Bytes encoded (and decoded) per wire-replay repeat.
constexpr std::size_t kWireBytes = 16u << 20;
constexpr int kRoundTrips = 1000;
constexpr int kRecvTimeoutMs = 5000;

const char* policy_key(aces::control::FlowPolicy policy) {
  switch (policy) {
    case aces::control::FlowPolicy::kAces:
      return "aces";
    case aces::control::FlowPolicy::kUdp:
      return "udp";
    case aces::control::FlowPolicy::kLockStep:
      return "lockstep";
    case aces::control::FlowPolicy::kThreshold:
      return "threshold";
  }
  return "unknown";
}

struct ControlReplay {
  std::uint64_t ticks = 0;
  double seconds = 0.0;
};

/// Replays one call's recorded TickRecords into fresh NodeControllers, one
/// tick() per (node, tick time), with the inputs the substrate reported.
/// Returns the node ticks replayed and the median wall seconds of all of
/// their tick() calls.
ControlReplay replay_control(const Workload& workload,
                             aces::control::FlowPolicy policy,
                             const std::vector<aces::obs::TickRecord>& records) {
  const aces::graph::ProcessingGraph& g = workload.graph();
  std::vector<std::size_t> local_index(g.pe_count(), 0);
  for (const aces::NodeId node : g.all_nodes()) {
    const std::vector<aces::PeId>& pes = g.pes_on_node(node);
    for (std::size_t i = 0; i < pes.size(); ++i) {
      local_index[pes[i].value()] = i;
    }
  }
  struct NodeTick {
    std::uint32_t node = 0;
    double time = 0.0;
    std::vector<aces::control::PeTickInput> inputs;
  };
  std::vector<NodeTick> ticks;
  for (const aces::obs::TickRecord& r : records) {
    if (ticks.empty() || ticks.back().node != r.node ||
        ticks.back().time != r.time) {
      NodeTick tick;
      tick.node = r.node;
      tick.time = r.time;
      tick.inputs.resize(g.pes_on_node(aces::NodeId(r.node)).size());
      ticks.push_back(std::move(tick));
    }
    aces::control::PeTickInput& in = ticks.back().inputs[local_index[r.pe]];
    in.buffer_occupancy = r.buffer_occupancy;
    in.processed_sdos = r.processed_sdos;
    in.cpu_seconds_used = r.cpu_seconds_used;
    in.arrived_sdos = r.arrived_sdos;
    in.downstream_rmax = r.downstream_rmax;
    in.output_blocked = r.output_blocked;
  }

  aces::control::ControllerConfig config;
  config.policy = policy;
  std::vector<double> seconds;
  for (int repeat = 0; repeat < kReplayRepeats; ++repeat) {
    std::vector<aces::control::NodeController> controllers;
    controllers.reserve(g.node_count());
    for (const aces::NodeId node : g.all_nodes()) {
      controllers.emplace_back(g, node, workload.plan(), config);
    }
    const Clock::time_point start = Clock::now();
    for (const NodeTick& tick : ticks) {
      controllers[tick.node].tick(kDt, tick.inputs);
    }
    seconds.push_back(seconds_since(start));
  }
  return {ticks.size(), median(seconds)};
}

/// Hold model through sim::Simulator: `population` events stay pending and
/// each executed event schedules one successor an exponential increment
/// later, with mean population ÷ event rate (Little's law), so the calendar
/// sees the workload's pending-event count and time density. Returns the
/// median wall nanoseconds per executed event.
double calendar_ns_per_event(std::size_t population, double events_per_second,
                             std::uint64_t seed) {
  struct Hold {
    aces::sim::Simulator sim;
    aces::Rng rng;
    double mean_increment = 0.0;

    void fire() {
      sim.schedule_in(rng.exponential(mean_increment), [this] { fire(); });
    }
  };
  std::vector<double> ns;
  for (int repeat = 0; repeat < kReplayRepeats; ++repeat) {
    Hold hold{aces::sim::Simulator(), aces::Rng(seed),
              static_cast<double>(population) / events_per_second};
    for (std::size_t i = 0; i < population; ++i) hold.fire();
    const double horizon =
        static_cast<double>(kCalendarEvents) / events_per_second;
    const Clock::time_point start = Clock::now();
    hold.sim.run_until(horizon);
    const double elapsed = seconds_since(start);
    ns.push_back(1e9 * elapsed /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, hold.sim.executed())));
  }
  return median(ns);
}

struct WireCost {
  double encode_ns_per_byte = 0.0;
  double decode_ns_per_byte = 0.0;
};

/// Encodes and decodes a StepGo and a StepDone of about `frame_bytes` each
/// (deliveries and adverts in equal byte shares). Per byte of frame,
/// header included, as the aggregator counts bytes.
WireCost wire_cost(double frame_bytes) {
  const std::size_t fixed = wire::encode(wire::StepDone{}).size();
  const double body = std::max(0.0, frame_bytes - static_cast<double>(fixed));
  const auto deliveries = static_cast<std::size_t>(std::llround(body / 2 / 16));
  const auto adverts = static_cast<std::size_t>(std::llround(body / 2 / 20));
  wire::StepGo go;
  go.quantum = 12345;
  go.deliveries.assign(deliveries, wire::SdoDelivery{17, 3, 12.5});
  go.adverts.assign(adverts, wire::Advert{9, 41.25, 12.4});
  wire::StepDone done;
  done.quantum = 12345;
  done.deliveries = go.deliveries;
  done.adverts = go.adverts;
  const std::vector<std::uint8_t> go_frame = wire::encode(go);
  const std::vector<std::uint8_t> done_frame = wire::encode(done);
  const std::vector<std::uint8_t> go_payload(go_frame.begin() + 8,
                                             go_frame.end());
  const std::vector<std::uint8_t> done_payload(done_frame.begin() + 8,
                                               done_frame.end());
  const std::size_t pair_bytes = go_frame.size() + done_frame.size();
  const std::size_t iterations = std::max<std::size_t>(1, kWireBytes / pair_bytes);
  const double bytes = static_cast<double>(iterations * pair_bytes);

  std::vector<double> encode_ns;
  std::vector<double> decode_ns;
  std::size_t sink = 0;
  for (int repeat = 0; repeat < kReplayRepeats; ++repeat) {
    Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < iterations; ++i) {
      sink += wire::encode(go).size() + wire::encode(done).size();
    }
    encode_ns.push_back(1e9 * seconds_since(start) / bytes);
    start = Clock::now();
    for (std::size_t i = 0; i < iterations; ++i) {
      const auto g = wire::decode_step_go(go_payload);
      const auto d = wire::decode_step_done(done_payload);
      if (!g.has_value() || !d.has_value()) {
        throw std::runtime_error("wire replay frame failed to decode");
      }
      sink += g->deliveries.size() + d->adverts.size();
    }
    decode_ns.push_back(1e9 * seconds_since(start) / bytes);
  }
  if (sink == 0) throw std::runtime_error("wire replay did no work");
  return {median(encode_ns), median(decode_ns)};
}

/// Median round-trip seconds of a `frame_bytes` frame sent on `near` and
/// echoed back by a thread reading `far`.
double ping_pong_rtt(transport::Endpoint& near, transport::Endpoint& far,
                     std::size_t frame_bytes) {
  const std::size_t payload = frame_bytes > 8 ? frame_bytes - 8 : 0;
  std::vector<std::uint8_t> frame(8 + payload, 0);
  const auto header = wire::frame_header(wire::FrameType::kStepDone,
                                         static_cast<std::uint32_t>(payload));
  std::copy(header.begin(), header.end(), frame.begin());

  std::thread echo([&far] {
    wire::Frame in;
    std::vector<std::uint8_t> out;
    while (far.recv(&in, kRecvTimeoutMs) == transport::RecvStatus::kOk) {
      const auto h = wire::frame_header(
          in.type, static_cast<std::uint32_t>(in.payload.size()));
      out.assign(h.begin(), h.end());
      out.insert(out.end(), in.payload.begin(), in.payload.end());
      if (!far.send(out)) return;
    }
  });
  std::vector<double> rtts;
  bool ok = true;
  for (int repeat = 0; repeat < kReplayRepeats && ok; ++repeat) {
    const Clock::time_point start = Clock::now();
    for (int trip = 0; trip < kRoundTrips && ok; ++trip) {
      wire::Frame back;
      ok = near.send(frame) &&
           near.recv(&back, kRecvTimeoutMs) == transport::RecvStatus::kOk;
    }
    rtts.push_back(seconds_since(start) / kRoundTrips);
  }
  near.close();  // the echo thread's recv now reports kClosed
  echo.join();
  if (!ok) throw std::runtime_error("transport replay lost a frame");
  return median(rtts);
}

double inproc_rtt(std::size_t frame_bytes) {
  auto [near, far] = transport::make_inproc_pair();
  return ping_pong_rtt(*near, *far, frame_bytes);
}

double uds_rtt(std::size_t frame_bytes) {
  // Relative, like the runtime's own socket: short and inside the checkout.
  const std::string path =
      "./perfbench-rtt-" + std::to_string(::getpid()) + ".sock";
  std::string error;
  const auto listener = transport::SocketListener::listen_uds(path, &error);
  if (listener == nullptr) throw std::runtime_error("listen: " + error);
  std::unique_ptr<transport::Endpoint> client;
  std::string connect_error;
  std::thread connector([&] {
    client = transport::connect_uds(path, kRecvTimeoutMs, &connect_error);
  });
  std::unique_ptr<transport::Endpoint> server =
      listener->accept(kRecvTimeoutMs);
  connector.join();
  if (server == nullptr || client == nullptr) {
    throw std::runtime_error("connect: " + connect_error);
  }
  return ping_pong_rtt(*server, *client, frame_bytes);
}

/// What the coordinator's aggregator saw in one run call.
struct ClusterView {
  double frames = 0.0;
  double bytes = 0.0;
  double heartbeats = 0.0;
  double rtt_seconds = 0.0;  ///< mean StepGo→StepDone round trip
  double skew_seconds_mean = 0.0;
  double skew_seconds_max = 0.0;
  double spans_completed = 0.0;
};

ClusterView view_of(const aces::obs::ClusterAggregator& aggregator) {
  ClusterView view;
  double rtt_sum = 0.0;
  double rtt_count = 0.0;
  for (const auto& [rank, status] : aggregator.shard_statuses()) {
    view.frames += static_cast<double>(status.frames_in + status.frames_out);
    view.bytes += static_cast<double>(status.bytes_in + status.bytes_out);
    view.heartbeats += static_cast<double>(status.heartbeats);
    rtt_sum += status.rtt_seconds.mean() *
               static_cast<double>(status.rtt_seconds.count());
    rtt_count += static_cast<double>(status.rtt_seconds.count());
  }
  if (rtt_count > 0.0) view.rtt_seconds = rtt_sum / rtt_count;
  // The skew and span totals are exposed through the status line protocol
  // (`key value` per line), the aggregator's public machine-readable view.
  std::ostringstream status;
  aggregator.write_status(status);
  std::istringstream lines(status.str());
  std::string key;
  double value = 0.0;
  while (lines >> key >> value) {
    if (key == "aces_cluster_barrier_skew_seconds_mean") {
      view.skew_seconds_mean = value;
    } else if (key == "aces_cluster_barrier_skew_seconds_max") {
      view.skew_seconds_max = value;
    } else if (key == "aces_cluster_spans_completed") {
      view.spans_completed = value;
    }
  }
  return view;
}

/// `values` in kLayerMetrics order; a metric without a value reads 0.
std::vector<Metric> in_list_order(std::map<std::string, double> values) {
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values.find(name);
    metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
    if (it != values.end()) values.erase(it);
  }
  if (!values.empty()) {
    throw std::logic_error("per-layer metric missing from the list: " +
                           values.begin()->first);
  }
  return metrics;
}

}  // namespace

std::vector<Metric> per_layer_metrics(Workload& workload, double seconds,
                                      Tally& tally, std::ostream& notes) {
  const WorkloadSpec& spec = workload.spec();
  const bool distributed = spec.distributed;
  std::map<std::string, double> v;

  // Set-up layers: graph generation, tier-1 solve, and the distributed
  // runtime's one-interval start/stop.
  std::vector<double> generate_s;
  std::vector<double> solve_s;
  std::vector<double> start_stop_s;
  std::vector<double> start_stop_cpu_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const SetupTimes t = workload.setup(tally);
    if (t.total < 0.0) continue;
    generate_s.push_back(t.generate);
    solve_s.push_back(t.solve);
    start_stop_s.push_back(t.construct);
    start_stop_cpu_s.push_back(t.construct_cpu);
  }
  if (generate_s.empty()) return in_list_order(v);
  const std::string topology_text = aces::graph::to_string(workload.graph());
  std::vector<double> parse_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point start = Clock::now();
    const aces::graph::ProcessingGraph parsed =
        aces::graph::topology_from_string(topology_text);
    parse_s.push_back(seconds_since(start));
    if (parsed.pe_count() != workload.graph().pe_count()) {
      tally.fail(std::string(spec.name) + ": topology text did not round-trip");
    }
  }
  v["graph.generate_ms"] = 1e3 * median(generate_s);
  v["graph.topology_bytes"] = static_cast<double>(topology_text.size());
  v["graph.parse_ms"] = 1e3 * median(parse_s);
  v["opt.solve_ms"] = 1e3 * median(solve_s);
  if (distributed) {
    v["dist.start_stop_ms"] = 1e3 * median(start_stop_s);
    v["dist.start_stop_cpu_ms"] = 1e3 * median(start_stop_cpu_s);
  }

  // Run calls: untraced, traced and (for the telemetry workload) telemetry
  // off alternate until the time is up, so host drift hits all alike.
  Probe traced;
  traced.time_arrivals = !distributed;
  traced.aggregate = distributed;
  Probe telemetry_off;
  telemetry_off.aggregate = true;
  telemetry_off.telemetry_off = true;
  // Every call must do the work of the first: tracing, telemetry and tick
  // recording never change results.
  std::string reference;
  auto same_work = [&](const RunResult& run, const char* what) {
    if (reference.empty()) {
      reference = run.fingerprint;
    } else if (run.fingerprint != reference) {
      tally.fail(std::string(spec.name) + ": " + what +
                 " run's work fingerprint differs from the untraced run");
    }
  };
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> off_s;
  std::vector<double> arrival_s;
  std::vector<double> rtt_s;
  std::vector<double> skew_mean_s;
  std::vector<double> skew_max_s;
  std::map<aces::control::FlowPolicy, std::vector<double>> policy_s;
  RunResult last_traced;
  RunResult last_off;
  bool have_traced = false;
  bool have_off = false;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    RunResult untraced;
    if (workload.run(Probe{}, 0, tally, &untraced)) {
      same_work(untraced, "untraced");
      untraced_s.push_back(untraced.wall_seconds());
      for (std::size_t i = 0; i < untraced.call_seconds.size(); ++i) {
        policy_s[untraced.call_policies[i]].push_back(untraced.call_seconds[i]);
      }
    }
    RunResult t;
    if (workload.run(traced, 0, tally, &t)) {
      same_work(t, "traced");
      traced_s.push_back(t.wall_seconds());
      arrival_s.push_back(t.arrival_seconds);
      if (t.aggregator != nullptr) {
        const ClusterView view = view_of(*t.aggregator);
        rtt_s.push_back(view.rtt_seconds);
        skew_mean_s.push_back(view.skew_seconds_mean);
        skew_max_s.push_back(view.skew_seconds_max);
      }
      last_traced = std::move(t);
      have_traced = true;
    }
    if (spec.telemetry) {
      RunResult off;
      if (workload.run(telemetry_off, 0, tally, &off)) {
        same_work(off, "telemetry-off");
        off_s.push_back(off.wall_seconds());
        last_off = std::move(off);
        have_off = true;
      }
    }
  } while (Clock::now() < deadline);

  // One more call records the controller ticks (and, in the simulator, the
  // busy PEs) for the replays.
  Probe capture;
  capture.record_ticks = true;
  RunResult captured;
  const bool have_capture = workload.run(capture, 0, tally, &captured);
  if (have_capture) same_work(captured, "tick-recording");
  if (!have_traced || !have_capture || (spec.telemetry && !have_off)) {
    return in_list_order(v);
  }

  const double run_s = median(traced_s);
  v["bench.trace_overhead"] = 1e3 * (run_s - median(untraced_s));
  v["budget.run_ms"] = 1e3 * run_s;

  // Control: the recorded ticks replayed through NodeController::tick.
  ControlReplay control;
  for (std::size_t i = 0; i < captured.ticks.size(); ++i) {
    const ControlReplay r =
        replay_control(workload, captured.call_policies[i], captured.ticks[i]);
    control.ticks += r.ticks;
    control.seconds += r.seconds;
  }
  v["control.ticks"] = static_cast<double>(control.ticks);
  if (control.ticks > 0) {
    v["control.tick_us"] =
        1e6 * control.seconds / static_cast<double>(control.ticks);
  }
  v["budget.control_ms"] = 1e3 * control.seconds;

  if (!distributed) {
    const RunResult& r = last_traced;
    v["sim.events"] = static_cast<double>(r.events);
    v["sim.events_per_sdo"] =
        static_cast<double>(r.events) / static_cast<double>(r.sdos);
    for (std::size_t i = 0; i < r.call_policies.size(); ++i) {
      const aces::control::FlowPolicy policy = r.call_policies[i];
      v[std::string("sim.ns_per_event.") + policy_key(policy)] =
          1e9 * median(policy_s[policy]) /
          static_cast<double>(r.call_events[i]);
    }
    v["workload.arrivals"] = static_cast<double>(r.arrivals);
    v["workload.arrival_ns"] =
        1e9 * median(arrival_s) / static_cast<double>(r.arrivals);
    v["budget.workload_ms"] = 1e3 * median(arrival_s);

    // Pending events of the ACES call: one arrival per stream, one tick per
    // node, one completion per busy PE, and the deliveries in flight.
    const aces::graph::ProcessingGraph& g = workload.graph();
    double copies = 0.0;
    std::size_t streams = 0;
    for (const aces::PeId id : g.all_pes()) {
      const aces::graph::PeKind kind = g.pe(id).kind;
      streams += kind == aces::graph::PeKind::kIngress ? 1 : 0;
      if (kind != aces::graph::PeKind::kEgress) {
        copies += static_cast<double>(captured.aces.per_pe[id.value()].emitted);
      }
    }
    const auto population = static_cast<std::size_t>(std::llround(
        static_cast<double>(streams + g.node_count()) +
        captured.mean_busy_pes + copies / spec.duration * kNetworkLatency));
    const double events_per_second =
        static_cast<double>(captured.call_events.front()) / spec.duration;
    const double calendar_ns = calendar_ns_per_event(
        std::max<std::size_t>(1, population), events_per_second,
        workload.seed());
    v["sim.calendar_population"] = static_cast<double>(population);
    v["sim.calendar_ns_per_event"] = calendar_ns;
    v["budget.calendar_ms"] = 1e-6 * calendar_ns * static_cast<double>(r.events);
  } else {
    const RunResult& r = last_traced;
    const double quanta = static_cast<double>(r.quanta);
    const double workers = static_cast<double>(spec.processes);
    const ClusterView on = view_of(*r.aggregator);
    // For the telemetry workload everything telemetry adds, its frames
    // included, is the obs line; the wire and transport lines count the
    // telemetry-off traffic.
    const ClusterView base = spec.telemetry ? view_of(*last_off.aggregator) : on;
    v["dist.quanta"] = quanta;
    v["dist.us_per_quantum"] = 1e6 * (run_s - median(start_stop_s)) / quanta;
    v["dist.barrier_rtt_us"] = 1e6 * median(rtt_s);
    v["dist.step_skew_us_mean"] = 1e6 * median(skew_mean_s);
    v["dist.step_skew_us_max"] = 1e6 * median(skew_max_s);
    v["dist.heartbeats"] = static_cast<double>(r.stats.heartbeats_received);
    v["wire.frames_per_quantum"] = on.frames / quanta;
    v["wire.bytes_per_quantum"] = on.bytes / quanta;

    const double frame_bytes = base.bytes / std::max(1.0, base.frames);
    const WireCost cost = wire_cost(frame_bytes);
    v["wire.encode_ns_per_byte"] = cost.encode_ns_per_byte;
    v["wire.decode_ns_per_byte"] = cost.decode_ns_per_byte;
    const auto rtt_bytes = static_cast<std::size_t>(std::llround(frame_bytes));
    const double uds = uds_rtt(rtt_bytes);
    const double inproc = inproc_rtt(rtt_bytes);
    v["transport.uds_rtt_us"] = 1e6 * uds;
    v["transport.inproc_rtt_us"] = 1e6 * inproc;

    const double parse_total_s = workers * median(parse_s);
    v["budget.graph_ms"] = 1e3 * parse_total_s;
    v["budget.start_stop_ms"] = 1e3 * (median(start_stop_s) - parse_total_s);
    v["budget.wire_ms"] = 1e-6 * (cost.encode_ns_per_byte +
                                  cost.decode_ns_per_byte) * base.bytes;
    // One round trip carries two frames.
    v["budget.transport_ms"] =
        1e3 * 0.5 * base.frames *
        (spec.transport == transport::TransportKind::kUds ? uds : inproc);

    if (spec.telemetry) {
      const double heartbeat_bytes =
          static_cast<double>(wire::encode(wire::Heartbeat{}).size());
      const ClusterView off = base;
      v["obs.spans_completed"] = on.spans_completed;
      v["obs.telemetry_frames"] =
          (on.frames - on.heartbeats) - (off.frames - off.heartbeats);
      v["obs.telemetry_bytes"] = (on.bytes - heartbeat_bytes * on.heartbeats) -
                                 (off.bytes - heartbeat_bytes * off.heartbeats);
      v["obs.telemetry_overhead"] = median(off_s) / median(untraced_s);
      v["budget.obs_ms"] = 1e3 * (run_s - median(off_s));
    }
  }

  double attributed_ms = 0.0;
  for (const char* part : kAttributed) attributed_ms += v[part];
  v["budget.unattributed_ms"] = v["budget.run_ms"] - attributed_ms;
  if (!distributed) {
    v["sim.unattributed_share"] =
        v["budget.unattributed_ms"] / v["budget.run_ms"];
  } else {
    v["dist.unattributed_us_per_quantum"] =
        1e3 * v["budget.unattributed_ms"] / v["dist.quanta"];
  }

  notes << "# budget (ms) of one traced run call, " << traced_s.size()
        << " traced / " << untraced_s.size() << " untraced calls:\n";
  notes << std::fixed << std::setprecision(3);
  for (const char* part : kAttributed) {
    notes << "#   " << std::setw(24) << std::left << part << ' ' << v[part]
          << '\n';
  }
  for (const char* total : {"budget.unattributed_ms", "budget.run_ms"}) {
    notes << "#   " << std::setw(24) << std::left << total << ' ' << v[total]
          << '\n';
  }
  notes.unsetf(std::ios::floatfield);
  return in_list_order(std::move(v));
}

}  // namespace perfbench
