#include "sim/stream_simulation.h"

#include <limits>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/check.h"
#include "common/rng.h"
#include "control/node_controller.h"
#include "fault/fault_injector.h"
#include "metrics/collector.h"
#include "obs/registry.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "pe/pe_core.h"
#include "sim/simulator.h"

namespace aces::sim {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// One-way delivery latency for SDOs and advertisements between co-located
/// PEs.
constexpr Seconds kLocalLatency = 0.0002;
/// The same between PEs on different nodes.
constexpr Seconds kNetworkLatency = 0.002;
}  // namespace

struct StreamSimulation::Impl {
  using Sdo = pe::Sdo;

  /// Simulator-side state of one PE around the shared kernel core.
  struct PeRt : pe::PeCore<Sdo> {
    PeId id;
    std::size_t index;  // == id.value()
    // Fixed-capacity ring sized to the PE's buffer bound: SDO slots are
    // allocated once at construction, never per arrival.
    BoundedQueue<Sdo> buffer;
    int reserved = 0;  // Lock-Step in-flight slot reservations
    // Failure-injection depth: > 0 while any stall or node crash holds this
    // PE inert. A counter, not a flag, so overlapping windows nest instead
    // of clobbering each other.
    int disabled = 0;
    Seconds last_progress = 0.0;
    std::uint64_t epoch = 0;
    // Trajectory recording; non-null only when record_timeseries is set.
    metrics::TimeSeries* buffer_series = nullptr;
    metrics::TimeSeries* share_series = nullptr;
    /// Latest advertisement received from each downstream PE, aligned with
    /// graph.downstream(id); +inf until the first advertisement lands.
    std::vector<double> downstream_advert;
    /// When each downstream_advert slot was last refreshed (run start counts
    /// as fresh). Drives the advertisement-staleness degradation rule.
    std::vector<Seconds> downstream_advert_time;
    /// For propagating this PE's advertisement: (upstream PE index, slot in
    /// that PE's downstream_advert).
    std::vector<std::pair<std::size_t, std::size_t>> upstream_slots;

    PeRt(PeId pe_id, std::size_t buffer_capacity, workload::ServiceModel svc)
        : PeCore(std::move(svc)),
          id(pe_id),
          index(pe_id.value()),
          buffer(buffer_capacity) {}
  };

  Impl(const graph::ProcessingGraph& g, const opt::AllocationPlan& plan,
       const SimOptions& opt)
      : graph(g),  // private copy: workload/capacity changes mutate it
        options(opt),
        policy(opt.controller.policy),
        collector(opt.warmup, pe::egress_count(g)) {
    ACES_CHECK_MSG(opt.dt > 0.0, "dt must be positive");
    ACES_CHECK_MSG(opt.duration > opt.warmup, "duration must exceed warmup");
    ACES_CHECK_MSG(opt.prefill_fraction >= 0.0 && opt.prefill_fraction <= 1.0,
                   "prefill fraction out of [0,1]");
    ACES_CHECK_MSG(opt.reoptimize_interval >= 0.0,
                   "negative re-optimization interval");
    // Most events wait one of the fixed delays: a delivery or advert the
    // transport latency, a node tick the period dt. Their FIFO lanes skip
    // the heap (sim/simulator.h).
    simulator.add_lane(kLocalLatency);
    simulator.add_lane(kNetworkLatency);
    simulator.add_lane(opt.dt);
    graph.validate();
    Rng master(opt.seed);

    total_capacity = 0.0;
    for (NodeId n : graph.all_nodes()) total_capacity += graph.node(n).cpu_capacity;

    // PE runtime state (reserved: the cores are handed out by reference).
    pes.reserve(graph.pe_count());
    pe::build_cores(graph, plan, master,
                    [this](PeId id, workload::ServiceModel service)
                        -> pe::PeCore<Sdo>& {
                      const std::size_t fanout = graph.downstream(id).size();
                      PeRt& rt = pes.emplace_back(
                          id,
                          static_cast<std::size_t>(graph.pe(id).buffer_capacity),
                          std::move(service));
                      rt.downstream_advert.assign(fanout, kInf);
                      rt.downstream_advert_time.assign(fanout, 0.0);
                      return rt;
                    });
    // Upstream advertisement slots.
    for (PeId id : graph.all_pes()) {
      const auto& downs = graph.downstream(id);
      for (std::size_t slot = 0; slot < downs.size(); ++slot) {
        pes[downs[slot].value()].upstream_slots.emplace_back(id.value(), slot);
      }
    }

    // Node controllers (bound to the private graph copy).
    controllers.reserve(graph.node_count());
    for (NodeId n : graph.all_nodes())
      controllers.emplace_back(graph, n, plan, opt.controller);

    // Sources (optionally through the user-supplied arrival factory).
    sources = pe::make_sources(graph, master, opt.arrival_factory);

    // Trajectory recording.
    if (opt.record_timeseries) {
      for (PeRt& pe : pes) {
        const std::string prefix = "pe" + std::to_string(pe.index);
        pe.buffer_series = &trajectories.series(prefix + ".buffer");
        pe.share_series = &trajectories.series(prefix + ".share");
      }
    }

    // Pre-filled buffers: the "arbitrary starting point" of the stability
    // analysis. Processing begins at time zero.
    if (opt.prefill_fraction > 0.0) {
      for (PeRt& pe : pes) {
        const auto fill = static_cast<std::size_t>(
            opt.prefill_fraction * graph.pe(pe.id).buffer_capacity);
        for (std::size_t k = 0; k < fill; ++k) pe.buffer.push_back(Sdo{});
        pe.lifetime_arrived += fill;
        const std::size_t index = pe.index;
        simulator.schedule_at(0.0, [this, index] { maybe_start(pes[index]); });
      }
    }

    // Prime the event loop: ticks (staggered phases) and first arrivals.
    for (std::size_t n = 0; n < controllers.size(); ++n) {
      const Seconds phase =
          opt.randomize_tick_phase ? master.uniform(0.0, opt.dt) : opt.dt;
      simulator.schedule_in(phase, [this, n] { node_tick(n); });
    }
    for (std::size_t s = 0; s < sources.size(); ++s) {
      simulator.schedule_in(sources[s].process->next_interarrival(),
                            [this, s] { source_arrival(s); });
    }

    // Scheduled workload and capacity shifts.
    change_rng = master.fork(0xC4A);
    for (const RateChange& change : opt.rate_changes) {
      simulator.schedule_at(change.at, [this, change] {
        apply_rate_change(change);
      });
    }
    for (const CapacityChange& change : opt.capacity_changes) {
      simulator.schedule_at(change.at, [this, change] {
        apply_capacity_change(change);
      });
    }

    // Priority shifts.
    for (const WeightChange& change : opt.weight_changes) {
      ACES_CHECK_MSG(change.pe.valid() && change.pe.value() < pes.size(),
                     "weight change references unknown PE");
      ACES_CHECK_MSG(change.new_weight >= 0.0, "negative weight");
      simulator.schedule_at(change.at, [this, change] {
        graph.pe(change.pe).weight = change.new_weight;
      });
    }

    tick_timer = obs::make_timer(opt.counters, "controller_tick");
    solve_timer = obs::make_timer(opt.counters, "optimizer_solve");

    // Declarative fault schedule (fault::FaultInjector).
    if (!opt.faults.empty()) {
      fault::validate(opt.faults, graph);
      injector = std::make_unique<fault::FaultInjector>(
          opt.faults, opt.seed, graph.pe_count(), opt.counters);
      node_down.assign(graph.node_count(), 0);
      for (const fault::NodeCrash& c : opt.faults.crashes) {
        simulator.schedule_at(c.at, [this, c] { crash_node(c.node); });
        simulator.schedule_at(c.until, [this, c] { restart_node(c.node); });
      }
      for (const fault::PeStall& s : opt.faults.stalls) {
        simulator.schedule_at(s.at, [this, s] {
          PeRt& pe = pes[s.pe.value()];
          progress(pe);
          ++pe.disabled;
          pe.share = 0.0;  // halts the in-flight SDO; work resumes on recovery
          ++pe.epoch;
          injector->note_pe_stall();
          if (options.spans != nullptr) {
            options.spans->fault_dump("fault.pe_stall", simulator.now());
          }
        });
        // Shares return at the node's next tick; service restarts then.
        simulator.schedule_at(s.at + s.duration, [this, s] {
          --pes[s.pe.value()].disabled;
        });
      }
    }

    // Periodic tier-1 re-optimization (paper §V: the first tier runs
    // "periodically, to support changing workload and resource
    // availability").
    if (opt.reoptimize_interval > 0.0) {
      simulator.schedule_in(opt.reoptimize_interval, [this] { reoptimize(); });
    }
  }

  void apply_rate_change(const RateChange& change) {
    graph.stream(change.stream).mean_rate = change.new_rate;
    // Rebuild the arrival process of every source fed by this stream; the
    // next already-scheduled arrival still fires and then draws gaps from
    // the new process.
    for (pe::Source& source : sources) {
      if (graph.pe(source.pe).input_stream != change.stream) continue;
      source.process = pe::make_process(
          options.arrival_factory, change.stream, graph.stream(change.stream),
          change_rng.fork(source.pe.value()));
    }
  }

  void apply_capacity_change(const CapacityChange& change) {
    graph.node(change.node).cpu_capacity = change.new_capacity;
    controllers[change.node.value()].set_capacity(change.new_capacity);
    // total_capacity feeds the utilization metric; keep it current from
    // this point on (utilization becomes an approximation across a change,
    // which the reports tolerate).
    total_capacity = 0.0;
    for (NodeId n : graph.all_nodes())
      total_capacity += graph.node(n).cpu_capacity;
  }

  [[nodiscard]] bool down(std::size_t node_index) const {
    return node_index < node_down.size() && node_down[node_index] > 0;
  }

  [[nodiscard]] std::vector<NodeId> down_nodes() const {
    std::vector<NodeId> failed;
    for (std::size_t n = 0; n < node_down.size(); ++n) {
      if (node_down[n] > 0)
        failed.push_back(NodeId(static_cast<NodeId::value_type>(n)));
    }
    return failed;
  }

  /// A node crashes: everything buffered, in service, or held on it is
  /// lost, its PEs go inert, and — with tier 1 active — the global plan is
  /// re-solved without it so survivors inherit its utility.
  void crash_node(NodeId node) {
    if (++node_down[node.value()] > 1) return;  // nested crash window
    const Seconds now = simulator.now();
    // Post-mortem first: the dump must capture the doomed SDOs while their
    // spans still read as in-flight.
    if (options.spans != nullptr) {
      options.spans->fault_dump("fault.node_crash", now);
    }
    std::uint64_t lost = 0;
    for (PeId id : graph.pes_on_node(node)) {
      PeRt& pe = pes[id.value()];
      progress(pe);
      lost += pe.discard(now, collector, options.spans, [&pe](auto lose) {
        for (std::size_t k = 0; k < pe.buffer.size(); ++k) lose(pe.buffer.at(k));
        pe.buffer.clear();
      });
      ++pe.disabled;
      ++pe.epoch;
    }
    injector->note_node_crash(lost);
    // Lock-Step senders sleeping on this node's buffers may resume; their
    // sends will be dropped at delivery while the node is down.
    for (PeId id : graph.pes_on_node(node)) wake_upstream(pes[id.value()]);
    if (options.reoptimize_interval > 0.0) solve_and_push();
  }

  /// The crashed node returns with drained buffers and factory-fresh
  /// controller state, and tier 1 folds it back into the plan.
  void restart_node(NodeId node) {
    if (--node_down[node.value()] > 0) return;
    for (PeId id : graph.pes_on_node(node)) {
      PeRt& pe = pes[id.value()];
      --pe.disabled;
      ++pe.epoch;
      pe.last_progress = simulator.now();
    }
    controllers[node.value()].reset_state();
    injector->note_node_restart();
    // Backstop: any sender still sleeping on this node's buffers flushes
    // into the drained (now live) buffers immediately.
    for (PeId id : graph.pes_on_node(node)) wake_upstream(pes[id.value()]);
    if (options.reoptimize_interval > 0.0) solve_and_push();
  }

  /// One tier-1 solve (excluding currently-down nodes) pushed to every
  /// controller.
  void solve_and_push() {
    opt::AllocationPlan plan;
    {
      const obs::ScopedTimer scope(solve_timer);
      plan = opt::optimize_excluding(graph, down_nodes());
    }
    for (auto& controller : controllers) controller.set_plan(plan);
    ++reoptimization_count;
  }

  void reoptimize() {
    solve_and_push();
    simulator.schedule_in(options.reoptimize_interval,
                          [this] { reoptimize(); });
  }

  [[nodiscard]] Seconds transport_latency(std::size_t from,
                                          std::size_t to) const {
    const bool same_node =
        graph.pe(PeId(static_cast<PeId::value_type>(from))).node ==
        graph.pe(PeId(static_cast<PeId::value_type>(to))).node;
    return same_node ? kLocalLatency : kNetworkLatency;
  }

  /// Accrues CPU progress on the in-flight SDO up to the current instant.
  void progress(PeRt& pe) {
    const Seconds now = simulator.now();
    if (pe.busy && pe.share > 0.0) pe.spend((now - pe.last_progress) * pe.share);
    pe.last_progress = now;
  }

  void schedule_completion(PeRt& pe) {
    ACES_CHECK(pe.busy && pe.share > 0.0);
    const std::uint64_t epoch = pe.epoch;
    const std::size_t index = pe.index;
    simulator.schedule_in(pe.work_remaining / pe.share,
                          [this, index, epoch] { on_completion(index, epoch); });
  }

  /// Free slots in a PE's buffer from a Lock-Step sender's point of view.
  [[nodiscard]] bool has_space_for_send(const PeRt& pe) const {
    return static_cast<int>(pe.buffer.size()) + pe.reserved <
           graph.pe(pe.id).buffer_capacity;
  }

  void maybe_start(PeRt& pe) {
    if (pe.busy || pe.blocked || pe.disabled || pe.buffer.empty() ||
        pe.share <= 0.0)
      return;
    const Sdo sdo = pe.buffer.front();
    pe.buffer.pop_front();
    pe.begin_service(sdo, simulator.now(), options.spans, simulator.now());
    pe.last_progress = simulator.now();
    ++pe.epoch;
    schedule_completion(pe);
    if (policy == control::FlowPolicy::kLockStep) wake_upstream(pe);
  }

  void on_completion(std::size_t index, std::uint64_t epoch) {
    PeRt& pe = pes[index];
    if (epoch != pe.epoch || !pe.busy) return;  // superseded by a tick
    progress(pe);
    if (!pe.finished()) {  // numeric drift: finish the residue
      schedule_completion(pe);
      return;
    }
    pe.complete(graph.pe(pe.id), graph.downstream(pe.id).size(),
                simulator.now(), collector, options.spans,
                [&](std::size_t slot, Sdo sdo) { send(pe, slot, sdo); });
    if (!pe.blocked) maybe_start(pe);
  }

  /// Lock-Step's offer for the kernel's hold: reserves a slot in the buffer
  /// downstream of `pe` on `slot` and schedules the delivery after the
  /// transport latency; false when that buffer has no free slot.
  auto reserve_from(const PeRt& pe) {
    return [this, &pe](std::size_t slot, const Sdo& sdo) {
      const std::size_t target = graph.downstream(pe.id)[slot].value();
      PeRt& t = pes[target];
      if (!has_space_for_send(t)) return false;
      ++t.reserved;
      const Seconds latency = transport_latency(pe.index, target);
      simulator.schedule_in(latency, [this, target, sdo] {
        deliver_reserved(target, sdo);
      });
      return true;
    };
  }

  /// Emits one SDO on downstream slot `slot` of `pe`, honouring the policy's
  /// full-buffer semantics.
  void send(PeRt& pe, std::size_t slot, Sdo sdo) {
    if (policy == control::FlowPolicy::kLockStep) {
      pe.send_or_hold(slot, sdo, reserve_from(pe));
      return;
    }
    // ACES / UDP: fire and (maybe) forget — drop resolves at delivery time.
    const std::size_t target = graph.downstream(pe.id)[slot].value();
    const Seconds latency = transport_latency(pe.index, target);
    simulator.schedule_in(latency,
                          [this, target, sdo] { deliver(target, sdo); });
  }

  /// Accepts `sdo` into `pe`'s buffer now and starts service if idle.
  void admit(PeRt& pe, Sdo sdo) {
    if (options.spans != nullptr) {
      options.spans->on_enqueue(sdo.span, pe.id, simulator.now());
    }
    ACES_PERF_COUNT("buffer_pool_hit");
    pe.buffer.push_back(sdo);
    pe.note_admitted();
    maybe_start(pe);
  }

  void deliver(std::size_t target, Sdo sdo) {
    PeRt& pe = pes[target];
    if (pe::delivery_lost(injector.get(), graph, pe.id, simulator.now())) {
      pe.note_dropped(sdo, simulator.now(), collector, options.spans);
    } else if (pe.buffer.full()) {
      ACES_PERF_COUNT("buffer_pool_miss");
      pe.note_dropped(sdo, simulator.now(), collector, options.spans);
    } else {
      admit(pe, sdo);
    }
  }

  void deliver_reserved(std::size_t target, Sdo sdo) {
    PeRt& pe = pes[target];
    --pe.reserved;
    ACES_CHECK_MSG(pe.reserved >= 0, "reservation accounting underflow");
    if (pe::delivery_lost(injector.get(), graph, pe.id, simulator.now())) {
      pe.note_dropped(sdo, simulator.now(), collector, options.spans);
      // The freed slot must wake blocked senders just like a pop would,
      // or a dead consumer wedges its Lock-Step producers forever.
      wake_upstream(pe);
      return;
    }
    admit(pe, sdo);
  }

  /// Lock-Step: a slot freed at `pe` — let blocked upstream senders flush.
  void wake_upstream(PeRt& pe) {
    for (PeId up : graph.upstream(pe.id)) {
      PeRt& u = pes[up.value()];
      if (u.blocked && u.flush(reserve_from(u))) maybe_start(u);
    }
  }

  void source_arrival(std::size_t source_index) {
    pe::Source& src = sources[source_index];
    PeRt& pe = pes[src.pe.value()];
    const Seconds now = simulator.now();
    const Sdo sdo{now, pe::sample_arrival(options.spans, pe.id, now)};
    if (pe::delivery_lost(injector.get(), graph, pe.id, now)) {
      pe.note_arrival_dropped(sdo, collector, options.spans);
    } else if (policy == control::FlowPolicy::kLockStep
                   ? !has_space_for_send(pe)
                   : pe.buffer.full()) {
      ACES_PERF_COUNT("buffer_pool_miss");
      pe.note_arrival_dropped(sdo, collector, options.spans);
    } else {
      admit(pe, sdo);
    }
    simulator.schedule_in(src.process->next_interarrival(),
                          [this, source_index] { source_arrival(source_index); });
  }

  void node_tick(std::size_t node_index) {
    const Seconds now = simulator.now();
    control::NodeController& controller = controllers[node_index];
    const auto& local = controller.local_pes();

    // A crashed node's controller is dead air: no ticks, no advertisements
    // (upstream peers watch ours go stale), just the eventual restart.
    if (down(node_index)) {
      simulator.schedule_in(options.dt,
                            [this, node_index] { node_tick(node_index); });
      return;
    }

    // UDP/Lock-Step never propagate advertisements, so their slots would
    // all read as stale; gate the clamp on the same condition as the
    // propagation below or healthy baselines trace rmax=0 + a fault flag.
    const Seconds staleness = control::uses_flow_control(policy)
                                  ? options.controller.advert_staleness_timeout
                                  : 0.0;
    std::vector<control::PeTickInput>& inputs = tick_inputs;
    inputs.resize(local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
      PeRt& pe = pes[local[i].value()];
      progress(pe);
      inputs[i] = pe.tick_input(
          now, pe.buffer.size(), pe.blocked, pe.downstream_advert.size(),
          staleness, [&pe](std::size_t slot) {
            return pe::Advert{pe.downstream_advert[slot],
                              pe.downstream_advert_time[slot]};
          });
    }
    const std::vector<control::PeTickOutput>& outputs =
        pe::tick(controller, options.dt, inputs, tick_timer);

    for (std::size_t i = 0; i < local.size(); ++i) {
      PeRt& pe = pes[local[i].value()];
      // A disabled PE holds no share, whatever the controller granted.
      const double granted = pe.disabled ? 0.0 : outputs[i].cpu_share;
      if (options.trace != nullptr) {
        options.trace->record(pe::tick_record(controller, i, now, staleness,
                                              inputs[i], outputs[i], granted,
                                              pe.lifetime_dropped,
                                              injector.get()));
      }
      pe.close_interval(now, pe.buffer.size(), pe.buffer.capacity(),
                        collector);
      if (pe.buffer_series != nullptr) {
        pe.buffer_series->append(now, static_cast<double>(pe.buffer.size()));
        pe.share_series->append(now, outputs[i].cpu_share);
      }

      if (granted != pe.share) {
        pe.share = granted;
        ++pe.epoch;
        if (pe.busy && pe.share > 0.0) schedule_completion(pe);
      }
      if (!pe.busy) maybe_start(pe);

      // Propagate advertisements upstream with transport latency (ACES and
      // Threshold; an XON advertisement of +inf must travel too, or a gated
      // upstream would never resume).
      if (control::uses_flow_control(policy)) {
        const double rmax = outputs[i].advertised_rmax;
        // Injected control-plane degradation: the advertisement this PE
        // emits at this tick is lost as one event (all upstream copies), or
        // delayed on top of the transport latency.
        Seconds extra_latency = 0.0;
        if (injector != nullptr && !pe.upstream_slots.empty()) {
          if (injector->advert_lost(pe.id, now)) continue;
          extra_latency = injector->advert_delay(pe.id, now);
        }
        for (const auto& [up_index, slot] : pe.upstream_slots) {
          const Seconds latency =
              transport_latency(pe.index, up_index) + extra_latency;
          simulator.schedule_in(latency, [this, up_index, slot, rmax] {
            pes[up_index].downstream_advert[slot] = rmax;
            pes[up_index].downstream_advert_time[slot] = simulator.now();
          });
        }
      }
    }
    simulator.schedule_in(options.dt, [this, node_index] { node_tick(node_index); });
  }

  graph::ProcessingGraph graph;  // private copy; dynamic events mutate it
  SimOptions options;
  control::FlowPolicy policy;
  metrics::Collector collector;
  Simulator simulator;
  std::vector<PeRt> pes;
  std::vector<control::NodeController> controllers;
  /// node_tick's inputs, reused by every tick.
  std::vector<control::PeTickInput> tick_inputs;
  std::vector<pe::Source> sources;
  double total_capacity = 0.0;
  metrics::TimeSeriesSet trajectories;
  Rng change_rng;
  int reoptimization_count = 0;
  /// Control-phase timers; disabled unless SimOptions::counters is set.
  obs::Timer tick_timer;
  obs::Timer solve_timer;
  /// Non-null iff SimOptions::faults is non-empty.
  std::unique_ptr<fault::FaultInjector> injector;
  /// Crash-window nesting depth per node, for ticks and tier-1 exclusion;
  /// sized only when faults are active.
  std::vector<int> node_down;
};

StreamSimulation::StreamSimulation(const graph::ProcessingGraph& graph,
                                   const opt::AllocationPlan& plan,
                                   const SimOptions& options)
    : impl_(std::make_unique<Impl>(graph, plan, options)) {}

StreamSimulation::~StreamSimulation() = default;

void StreamSimulation::run() { run_until(impl_->options.duration); }

void StreamSimulation::run_until(Seconds t) { impl_->simulator.run_until(t); }

metrics::RunReport StreamSimulation::report() const {
  metrics::RunReport report = impl_->collector.finalize(
      impl_->simulator.now(), impl_->total_capacity);
  report.per_pe.reserve(impl_->pes.size());
  for (const auto& pe : impl_->pes) report.per_pe.push_back(pe.accounting());
  report.events_executed = impl_->simulator.executed();
  report.reoptimizations =
      static_cast<std::uint64_t>(impl_->reoptimization_count);
  return report;
}

Seconds StreamSimulation::now() const { return impl_->simulator.now(); }

std::size_t StreamSimulation::buffer_size(PeId id) const {
  return impl_->pes.at(id.value()).buffer.size();
}

double StreamSimulation::cpu_share(PeId id) const {
  return impl_->pes.at(id.value()).share;
}

double StreamSimulation::last_advertisement(PeId id) const {
  // The freshest advertisement this PE computed is tracked by its upstream
  // peers; report the value stored in any upstream slot, or +inf if none.
  const auto& pe = impl_->pes.at(id.value());
  if (pe.upstream_slots.empty()) return std::numeric_limits<double>::infinity();
  const auto& [up_index, slot] = pe.upstream_slots.front();
  return impl_->pes.at(up_index).downstream_advert.at(slot);
}

std::uint64_t StreamSimulation::events_executed() const {
  return impl_->simulator.executed();
}

PeStats StreamSimulation::pe_stats(PeId id) const {
  const auto& pe = impl_->pes.at(id.value());
  return PeStats{pe.accounting(), pe.buffer.size(), pe.busy, pe.blocked,
                 pe.reserved};
}

const metrics::TimeSeriesSet& StreamSimulation::timeseries() const {
  return impl_->trajectories;
}

int StreamSimulation::reoptimizations() const {
  return impl_->reoptimization_count;
}

metrics::RunReport simulate(const graph::ProcessingGraph& graph,
                            const opt::AllocationPlan& plan,
                            const SimOptions& options) {
  StreamSimulation sim(graph, plan, options);
  sim.run();
  return sim.report();
}

}  // namespace aces::sim
