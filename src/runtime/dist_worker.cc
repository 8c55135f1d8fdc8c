// Barrier-stepped worker engine. Determinism rules (each one is load-
// bearing for the cross-transport byte-identity guarantee — see
// docs/architecture.md):
//
//  * Virtual time advances in quanta q = dt / substeps under coordinator
//    barriers; nothing is paced by the wall clock except heartbeats.
//  * Every *cross-node* effect takes exactly one quantum, whether or not
//    the two nodes share a worker: SDO emissions, advert refreshes and
//    Lock-Step congestion are buffered and applied at the next barrier.
//    What another rank reads goes out in the StepDone and the coordinator
//    relays it; what this worker reads itself stays here, in a loopback
//    outbox it applies at the next quantum exactly as if it had been
//    relayed. Same-node sends are direct, as in the threaded runtime.
//  * Inbound cross-node deliveries are applied in src_node order, whatever
//    the partition. The coordinator relays the other ranks' outboxes
//    concatenated in rank order; ranks own ascending node ranges, and every
//    worker steps its nodes in id order, so each outbox is already sorted
//    by source node. The loopback deliveries, whose sources are this
//    worker's own nodes, are spliced in after the relayed ones from lower
//    nodes (src_node < node_begin_), which is where the relay would have
//    put them.
//  * Per-PE randomness (service model, arrival process, fault draws) is
//    forked from the master seed by PE id — never by worker rank — so the
//    partition does not perturb any stream.
//  * Completions and drops inside quantum k are stamped at its end
//    (k+1)·q; arrivals keep their exact birth times.
#include "runtime/dist_worker.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/mutex.h"
#include "common/rng.h"
#include "control/node_controller.h"
#include "fault/fault_injector.h"
#include "graph/serialization.h"
#include "metrics/collector.h"
#include "obs/registry.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "opt/global_optimizer.h"
#include "pe/pe_core.h"
#include "runtime/transport/uds.h"

namespace aces::runtime::dist {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Frozen advert_time for a node the coordinator declared dead: any
/// staleness timeout reads it as infinitely stale.
constexpr double kDeadAdvertTime = -1e300;
/// A worker waiting on the coordinator gives up after this long — the
/// coordinator drives the pace, so silence this long means it is gone.
constexpr int kCoordinatorTimeoutMs = 120000;

struct Sdo {
  Seconds birth = 0.0;
  /// When the SDO entered its current queue (wait-histogram stamp; the
  /// values are quantum-grid times, so they are partition-invariant).
  /// Every admission sets it.
  Seconds enqueue = 0.0;
  /// Span handle on the local tracer; -1 untraced (the common case).
  std::int32_t span = -1;
};

/// Rebuilds an AllocationPlan the NodeControllers can consume from the
/// per-PE cpu targets carried on the wire: cpu is all of a plan they read.
opt::AllocationPlan plan_from_cpu(const std::vector<double>& cpu,
                                  std::size_t node_count) {
  opt::AllocationPlan plan;
  plan.pe.resize(cpu.size());
  for (std::size_t i = 0; i < cpu.size(); ++i) plan.pe[i].cpu = cpu[i];
  plan.node_usage.assign(node_count, 0.0);
  return plan;
}

class WorkerEngine {
 public:
  WorkerEngine(const wire::Config& cfg, transport::Endpoint& ep)
      : cfg_(cfg),
        ep_(ep),
        graph_(graph::topology_from_string(cfg.topology)),
        collector_(cfg.warmup, pe::egress_count(graph_)) {
    graph_.validate();
    ACES_CHECK_MSG(cfg.substeps > 0, "substeps must be positive");
    ACES_CHECK_MSG(cfg.dt > 0.0, "dt must be positive");
    ACES_CHECK_MSG(cfg.rank < cfg.num_workers, "rank outside the shard count");
    q_ = cfg.dt / cfg.substeps;

    controller_config_.policy = static_cast<control::FlowPolicy>(cfg.policy);
    controller_config_.advert_staleness_timeout = cfg.staleness;
    lockstep_ = controller_config_.policy == control::FlowPolicy::kLockStep;

    if (!cfg.faults.empty()) {
      fault::FaultSchedule schedule = fault::parse_fault_spec(cfg.faults);
      fault::validate(schedule, graph_);
      injector_ = std::make_unique<fault::FaultInjector>(
          std::move(schedule), cfg.seed, graph_.pe_count());
    }

    total_capacity_ = 0.0;
    for (NodeId n : graph_.all_nodes())
      total_capacity_ += graph_.node(n).cpu_capacity;

    std::tie(node_begin_, node_end_) =
        shard_range(cfg.rank, cfg.num_workers, graph_.node_count());
    const opt::AllocationPlan plan =
        plan_from_cpu(cfg.plan_cpu, graph_.node_count());

    // Per-PE randomness is forked by PE id for every PE, hosted or not,
    // so the partition cannot perturb any stream.
    Rng master(cfg.seed);
    visible_advert_.assign(graph_.pe_count(), kInf);
    visible_advert_time_.assign(graph_.pe_count(), 0.0);
    congested_.assign(graph_.pe_count(), 0);
    pes_.reserve(graph_.pe_count());
    pe::build_cores(graph_, plan, master,
                    [&](PeId id, workload::ServiceModel service)
                        -> pe::PeCore<Sdo>& {
                      // Only a hosted PE's queue is ever used.
                      const std::size_t capacity =
                          !owns_node(graph_.pe(id).node.value()) ? 0
                          : cfg.channel_capacity > 0
                              ? cfg.channel_capacity
                              : static_cast<std::size_t>(
                                    graph_.pe(id).buffer_capacity);
                      return pes_.emplace_back(std::move(service), capacity);
                    });

    // Who reads each hosted PE's adverts and congestion: the ranks hosting
    // one of its upstream PEs, this one included.
    readers_.assign(graph_.pe_count(), 0);
    for (const PeId id : graph_.all_pes()) {
      if (!owns_node(graph_.pe(id).node.value())) continue;
      hosted_pes_.push_back(id);
      for (const PeId up : graph_.upstream(id)) {
        readers_[id.value()] |= owns_node(graph_.pe(up).node.value())
                                    ? kReadHere
                                    : kReadElsewhere;
      }
    }

    for (std::size_t n = node_begin_; n < node_end_; ++n) {
      controllers_.emplace_back(graph_, NodeId(static_cast<NodeId::value_type>(n)),
                                plan, controller_config_);
    }
    was_down_.assign(node_end_ - node_begin_, false);
    was_stalled_.assign(graph_.pe_count(), false);

    // Telemetry. The counters are always on (counted in counts_, added to
    // the registry once per quantum) and every name counts a *graph*
    // property — cross_node is decided by node placement, never by the
    // partition — so the coordinator's cross-shard sums match a
    // single-process run exactly. The span tracer is optional and samples
    // by (seed, source PE, arrival index) — the PE kernel's rule in every
    // substrate — so traced runs stay bit-identical.
    ctr_arrived_ = counters_.counter("dist.sdo.arrived");
    ctr_processed_ = counters_.counter("dist.sdo.processed");
    ctr_emitted_ = counters_.counter("dist.sdo.emitted");
    ctr_dropped_ = counters_.counter("dist.sdo.dropped");
    ctr_cross_node_ = counters_.counter("dist.sdo.cross_node");
    gauge_quantum_ = counters_.gauge("dist.quantum");
    // Tick timing is opt-in, like `aces simulate --trace`: two clock reads
    // per tick are too dear for an untraced run.
    if (cfg.record_trace != 0) {
      tick_timer_ = counters_.timer("controller_tick");
    }
    if (cfg.span_sample > 0.0) {
      obs::SpanTracerOptions topt;
      topt.sample_rate = cfg.span_sample;
      topt.seed = cfg.seed;
      topt.keep_completed = true;  // drained into each MetricsReport
      topt.max_dumps = 0;          // every fault dump ships; none is kept
      tracer_ = std::make_unique<obs::SpanTracer>(topt);
    }

    const Seconds start_vtime = static_cast<double>(cfg.start_quantum) * q_;
    sources_ = pe::make_sources(graph_, master, nullptr, [this](NodeId n) {
      return owns_node(n.value());
    });
    for (pe::Source& src : sources_) {
      src.next_arrival = src.process->next_interarrival();
      // A worker joining mid-run (restart after a prockill) fast-forwards
      // its arrival streams: the SDOs that would have arrived while the
      // process was dead are gone, but the generator state matches what an
      // uninterrupted worker would hold.
      while (src.next_arrival < start_vtime) {
        src.next_arrival += src.process->next_interarrival();
      }
    }
  }

  int run() {
    // Leaving this scope, a throw from loop() included, requests stop —
    // which wakes the heartbeat mid-interval — and joins it: the worker
    // exits as soon as its loop ends, not up to one interval later.
    std::jthread heartbeat(
        [this](const std::stop_token& stop) { heartbeat_loop(stop); });
    return loop();
  }

 private:
  struct PeState : pe::PeCore<Sdo> {
    PeState(workload::ServiceModel model, std::size_t bound)
        : PeCore(std::move(model)), queue(bound) {}

    /// The input buffer, bounded at the PE's capacity (0 when not hosted).
    BoundedQueue<Sdo> queue;
    /// Lock-Step cross-node backlog: deliveries accepted from the wire but
    /// not yet admitted to `queue` (receiver-side blocking — nothing is
    /// dropped). Drained at quantum start as space allows.
    std::deque<Sdo> inbound;
    /// Lock-Step remote blocking: some cross-node downstream was congested
    /// at the last barrier. Same-node blocking is the kernel's `blocked`.
    bool blocked_remote = false;

    [[nodiscard]] bool full() const { return queue.full(); }
  };

  /// readers_ bits.
  static constexpr std::uint8_t kReadHere = 1;       ///< by this worker
  static constexpr std::uint8_t kReadElsewhere = 2;  ///< by another rank

  /// The data-path counters, in plain integers while a quantum runs; added
  /// to the registry's counters once per quantum (flush_counts).
  struct Counts {
    std::uint64_t arrived = 0;
    std::uint64_t processed = 0;
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t cross_node = 0;
  };

  [[nodiscard]] bool owns_node(std::size_t node) const {
    return node >= node_begin_ && node < node_end_;
  }

  /// Sends a Heartbeat every heartbeat_interval until `stop` is requested.
  void heartbeat_loop(const std::stop_token& stop) {
    const auto interval =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(
                std::max(0.001, cfg_.heartbeat_interval)));
    // The stop request is the flag: the stop_token wait registers a
    // callback that notifies `wake`, so no other thread shares `mu`.
    Mutex mu;
    std::condition_variable_any wake;
    for (;;) {
      {
        MutexLock lock(mu);
        wake.wait_for(mu, stop, interval, [] { return false; });
      }
      if (stop.stop_requested()) return;
      if (!ep_.send(wire::encode(wire::Heartbeat{}))) return;
    }
  }

  int loop() {
    for (;;) {
      wire::Frame frame;
      const auto status = ep_.recv(&frame, kCoordinatorTimeoutMs);
      if (status != transport::RecvStatus::kOk) return 1;
      switch (frame.type) {
        case wire::FrameType::kTargets: {
          const auto targets = wire::decode_targets(frame.payload);
          if (!targets.has_value()) return 1;
          const opt::AllocationPlan plan =
              plan_from_cpu(targets->cpu, graph_.node_count());
          for (auto& controller : controllers_) controller.set_plan(plan);
          break;
        }
        case wire::FrameType::kStepGo: {
          const auto go = wire::decode_step_go(frame.payload);
          if (!go.has_value()) return 1;
          // One send per quantum: the telemetry frames and the StepDone
          // (or the final Report) go out together, so the coordinator wakes
          // once.
          std::vector<std::uint8_t> out;
          if ((go->flags & wire::kStepGoFinal) != 0) {
            append_telemetry(out, go->quantum, /*epoch=*/true);
            append(out, wire::encode(make_report()));
            if (!ep_.send(std::move(out))) return 1;
            break;  // stay in the loop until Shutdown
          }
          run_quantum(*go);
          flush_counts();
          const bool epoch = (go->quantum + 1) % cfg_.substeps == 0;
          append_telemetry(out, go->quantum, epoch);
          append(out, encode_step_done(go->quantum));
          if (!ep_.send(std::move(out))) return 1;
          break;
        }
        case wire::FrameType::kShutdown:
          return 0;
        default:
          return 1;  // protocol violation
      }
    }
  }

  // ---- one barrier quantum -------------------------------------------

  void run_quantum(const wire::StepGo& go) {
    const std::uint64_t k = go.quantum;
    const Seconds vnow = static_cast<double>(k) * q_;
    const Seconds vend = static_cast<double>(k + 1) * q_;
    gauge_quantum_.set(static_cast<double>(k));

    // Membership first: a dead node's mailboxes clamp to r_max = 0 and an
    // infinitely stale timestamp, so both the staleness rule and the Eq. 8
    // max stop routing flow at it.
    for (const std::uint32_t node : go.down_nodes) {
      for (PeId id : graph_.pes_on_node(NodeId(node))) {
        visible_advert_[id.value()] = 0.0;
        visible_advert_time_[id.value()] = kDeadAdvertTime;
      }
    }
    for (const std::uint32_t node : go.up_nodes) {
      for (PeId id : graph_.pes_on_node(NodeId(node))) {
        visible_advert_[id.value()] = kInf;
        visible_advert_time_[id.value()] = vnow;
      }
    }
    // Advert refreshes from quantum k-1 (uniformly one quantum stale), for
    // the downstreams of this worker's PEs: the only adverts it reads. The
    // other ranks' come relayed; this worker's own come from its loopback.
    // Each PE lives on one rank and advertises at most once a quantum, so
    // the two lists never name one PE and their order does not matter.
    for (const wire::Advert& a : go.adverts) apply_advert(a);
    for (const wire::Advert& a : loopback_.adverts) apply_advert(a);
    loopback_.adverts.clear();
    std::fill(congested_.begin(), congested_.end(), 0);
    for (const std::uint32_t pe : go.congested_pes) congested_[pe] = 1;
    for (const std::uint32_t pe : loopback_.congested_pes) congested_[pe] = 1;
    loopback_.congested_pes.clear();

    // Modeled crash windows (the `crash` clause acted out by this
    // substrate, distinct from real prockills), before the deliveries: a
    // crash loses what it holds and everything addressed to it from here
    // on, and a restart admits this quantum's deliveries into empty queues.
    if (injector_ != nullptr) handle_crash_transitions(vnow);

    // Inbound cross-node deliveries in src_node order, each with the span
    // riding it, if any: the relayed ones from nodes below this worker's,
    // then its loopback, then the relayed rest. Fault draws for a delivery
    // happen here, on the worker hosting the target — the per-PE draw
    // sequence is partition-invariant.
    const std::size_t below = static_cast<std::size_t>(
        std::ranges::find_if(go.deliveries,
                             [this](const wire::SdoDelivery& d) {
                               return d.src_node >= node_begin_;
                             }) -
        go.deliveries.begin());
    std::size_t next_span = 0;
    apply_deliveries(go, 0, below, next_span, vnow);
    std::size_t next_loopback_span = 0;
    apply_deliveries(loopback_, 0, loopback_.deliveries.size(),
                     next_loopback_span, vnow);
    apply_deliveries(go, below, go.deliveries.size(), next_span, vnow);
    loopback_.deliveries.clear();
    loopback_.spans.clear();
    if (lockstep_) {
      for (const PeId id : hosted_pes_) drain_inbound(pes_[id.value()]);
    }

    // Control tick on the dt grid (quantum starts, skipping t = 0 — the
    // first tick fires once one full interval of history exists).
    if (k > 0 && k % cfg_.substeps == 0) {
      for (std::size_t i = 0; i < controllers_.size(); ++i) {
        if (!was_down_[i]) node_tick(i, vnow);
      }
    }

    // Lock-Step remote backpressure: a PE with a congested cross-node
    // downstream stops processing this quantum (bounded overshoot: at most
    // the one quantum already in flight).
    if (lockstep_) {
      for (const PeId id : hosted_pes_) {
        PeState& pe = pes_[id.value()];
        pe.blocked_remote = false;
        for (PeId down : graph_.downstream(id)) {
          if (graph_.pe(down).node != graph_.pe(id).node &&
              congested_[down.value()] != 0) {
            pe.blocked_remote = true;
            break;
          }
        }
      }
    }

    generate_arrivals(vnow, vend);
    process_quantum(k, vnow, vend);
  }

  void apply_advert(const wire::Advert& a) {
    visible_advert_[a.pe] = a.rmax;
    visible_advert_time_[a.pe] = a.time;
  }

  /// Applies deliveries [begin, end) of `frame` (a StepGo, or the loopback
  /// outbox) at `vnow`, each with the span that names it. `next_span` is
  /// the first of the frame's handoffs, which are in increasing delivery
  /// order, not yet passed.
  template <class Frame>
  void apply_deliveries(const Frame& frame, std::size_t begin,
                        std::size_t end, std::size_t& next_span,
                        Seconds vnow) {
    for (std::size_t i = begin; i < end; ++i) {
      while (next_span < frame.spans.size() &&
             frame.spans[next_span].delivery < i) {
        ++next_span;  // out of order: belongs to no delivery
      }
      const bool has_span = next_span < frame.spans.size() &&
                            frame.spans[next_span].delivery == i;
      apply_delivery(frame.deliveries[i],
                     has_span ? &frame.spans[next_span].span : nullptr, vnow);
    }
  }

  /// Applies one inbound delivery at `vnow`; `prefix` is the in-flight span
  /// that rode it, or null.
  void apply_delivery(const wire::SdoDelivery& d, const obs::SdoSpan* prefix,
                      Seconds vnow) {
    if (d.dest_pe >= pes_.size()) return;  // corrupt frame: ignore
    std::int32_t span = -1;
    if (tracer_ != nullptr && prefix != nullptr) {
      span = tracer_->adopt(*prefix);
      tracer_->append_wire_hop(span, PeId(d.dest_pe), obs::HopKind::kWireRecv,
                               vnow);
    }
    const auto& desc = graph_.pe(PeId(d.dest_pe));
    if (!owns_node(desc.node.value())) {
      if (tracer_ != nullptr) tracer_->drop(span, vnow);
      return;
    }
    PeState& pe = pes_[d.dest_pe];
    const Sdo sdo{d.birth, vnow, span};
    if (pe::delivery_lost(injector_.get(), graph_, PeId(d.dest_pe), vnow)) {
      drop(pe, sdo, vnow);
    } else if (lockstep_) {
      // Never dropped: held receiver-side until the queue has room. The
      // enqueue hop lands now — `inbound` is part of the PE's buffer (the
      // controller counts it), so the wait clock starts here.
      if (tracer_ != nullptr) tracer_->on_enqueue(span, PeId(d.dest_pe), vnow);
      pe.inbound.push_back(sdo);
    } else if (pe.full()) {
      drop(pe, sdo, vnow);
    } else {
      admit(pe, PeId(d.dest_pe), sdo, vnow);
    }
  }

  void drain_inbound(PeState& pe) {
    while (!pe.inbound.empty() && !pe.full()) {
      pe.queue.push_back(pe.inbound.front());
      pe.inbound.pop_front();
      pe.note_admitted();
      ++counts_.arrived;
    }
  }

  /// Accepts `sdo` into `pe`'s queue at `now`.
  void admit(PeState& pe, PeId id, Sdo sdo, Seconds now) {
    sdo.enqueue = now;
    if (tracer_ != nullptr) tracer_->on_enqueue(sdo.span, id, now);
    pe.queue.push_back(sdo);
    pe.note_admitted();
    ++counts_.arrived;
  }

  /// Loses `sdo` on its way into `pe` at `now`.
  void drop(PeState& pe, const Sdo& sdo, Seconds now) {
    ++counts_.dropped;
    pe.note_dropped(sdo, now, collector_, tracer_.get());
  }

  /// Same-node offer for the kernel's Lock-Step hold, for the copies
  /// `pe_id` sends at `now`: admits a copy into its consumer's queue, or
  /// returns false when that queue is full. A copy an injected fault loses
  /// is dropped and counts as taken: a dead consumer must not deadlock its
  /// producers.
  auto offer_from(PeId pe_id, Seconds now) {
    return [this, pe_id, now](std::size_t slot, const Sdo& sdo) {
      const PeId target = graph_.downstream(pe_id)[slot];
      PeState& t = pes_[target.value()];
      if (pe::delivery_lost(injector_.get(), graph_, target, now)) {
        drop(t, sdo, now);
        return true;
      }
      if (t.full()) return false;
      admit(t, target, sdo, now);
      return true;
    };
  }

  void handle_crash_transitions(Seconds vnow) {
    for (std::size_t i = 0; i < controllers_.size(); ++i) {
      const NodeId node = controllers_[i].node();
      const bool is_down = injector_->node_down(node, vnow);
      if (is_down && !was_down_[i]) crash_local_pes(node, vnow);
      if (!is_down && was_down_[i]) {
        // The queues are empty: the crash discarded everything, and every
        // delivery or arrival since was lost to the down node.
        controllers_[i].reset_state();
        for (PeId id : graph_.pes_on_node(node)) pes_[id.value()].arrived = 0.0;
        injector_->note_node_restart();
      }
      was_down_[i] = is_down;
    }
  }

  void crash_local_pes(NodeId node, Seconds vnow) {
    // Post-mortem first: capture the doomed SDOs while their spans are
    // still in flight, then end them as dropped. The dump ships to the
    // coordinator at this quantum's end (append_telemetry).
    if (tracer_ != nullptr) {
      pending_dump_ = tracer_->fault_dump("fault.node_crash", vnow);
    }
    std::uint64_t lost = 0;
    for (PeId id : graph_.pes_on_node(node)) {
      PeState& pe = pes_[id.value()];
      const std::uint64_t pe_lost =
          pe.discard(vnow, collector_, tracer_.get(), [&pe](auto lose) {
            for (const Sdo& sdo : pe.inbound) lose(sdo);
            for (std::size_t i = 0; i < pe.queue.size(); ++i) {
              lose(pe.queue.at(i));
            }
            pe.inbound.clear();
            pe.queue.clear();
          });
      pe.blocked_remote = false;
      counts_.dropped += pe_lost;
      lost += pe_lost;
    }
    injector_->note_node_crash(lost);
  }

  void node_tick(std::size_t controller_index, Seconds vnow) {
    control::NodeController& controller = controllers_[controller_index];
    const auto& local = controller.local_pes();
    const Seconds staleness = controller_config_.advert_staleness_timeout;
    std::vector<control::PeTickInput>& inputs = tick_inputs_;
    inputs.resize(local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
      const PeState& pe = pes_[local[i].value()];
      const auto& downs = graph_.downstream(local[i]);
      inputs[i] = pe.tick_input(
          vnow, pe.queue.size() + pe.inbound.size(),
          pe.blocked || pe.blocked_remote,
          downs.size(), staleness, [&](std::size_t slot) {
            const std::size_t down = downs[slot].value();
            return pe::Advert{visible_advert_[down], visible_advert_time_[down]};
          });
    }
    const std::vector<control::PeTickOutput>& outputs =
        pe::tick(controller, cfg_.dt, inputs, tick_timer_);
    ++events_executed_;
    for (std::size_t i = 0; i < local.size(); ++i) {
      PeState& pe = pes_[local[i].value()];
      if (cfg_.record_trace != 0) {
        // The shard tag is stamped coordinator-side from the frame's rank.
        trace_buffer_.push_back(pe::tick_record(
            controller, i, vnow, staleness, inputs[i], outputs[i],
            outputs[i].cpu_share, pe.lifetime_dropped, injector_.get()));
      }
      pe.close_interval(vnow, pe.queue.size() + pe.inbound.size(),
                        pe.queue.capacity(), collector_);
      pe.share = outputs[i].cpu_share;
      // Injected advertisement loss: the refresh is never published, so
      // every reader, this worker included, keeps the stale value.
      if (injector_ != nullptr && injector_->advert_lost(local[i], vnow))
        continue;
      const wire::Advert advert{local[i].value(),
                                outputs[i].advertised_rmax, vnow};
      publish(advert.pe, advert, &wire::StepDone::adverts);
    }
  }

  void generate_arrivals(Seconds vnow, Seconds vend) {
    for (pe::Source& src : sources_) {
      PeState& pe = pes_[src.pe.value()];
      while (src.next_arrival < vend) {
        const Seconds at = src.next_arrival;
        src.next_arrival += src.process->next_interarrival();
        const Sdo sdo{at, at, pe::sample_arrival(tracer_.get(), src.pe, at)};
        if (pe::delivery_lost(injector_.get(), graph_, src.pe, vnow) ||
            pe.full()) {
          ++counts_.dropped;
          pe.note_arrival_dropped(sdo, collector_, tracer_.get());
        } else {
          admit(pe, src.pe, sdo, at);
        }
      }
    }
  }

  void process_quantum(std::uint64_t k, Seconds vnow, Seconds vend) {
    const Seconds elapsed_in_tick =
        static_cast<double>(k % cfg_.substeps + 1) * q_;
    for (std::size_t n = node_begin_; n < node_end_; ++n) {
      const NodeId node(static_cast<NodeId::value_type>(n));
      if (injector_ != nullptr && injector_->node_down(node, vnow)) continue;
      const auto& local = graph_.pes_on_node(node);
      for (const PeId id : local) {
        PeState& pe = pes_[id.value()];
        if (injector_ != nullptr) {
          const bool stalled = injector_->pe_stalled(id, vnow);
          if (stalled && !was_stalled_[id.value()]) {
            injector_->note_pe_stall();
            if (tracer_ != nullptr) {
              pending_dump_ = tracer_->fault_dump("fault.pe_stall", vnow);
            }
          }
          was_stalled_[id.value()] = stalled;
          if (stalled) continue;
        }
        if (pe.blocked) pe.flush(offer_from(id, vnow));
        if (pe.blocked || pe.blocked_remote) continue;
        if (pe.share <= 0.0) continue;
        double allowed = pe.share * elapsed_in_tick - pe.cpu_used;
        while (allowed > 0.0 && !pe.blocked) {
          if (!pe.busy) {
            if (pe.queue.empty()) break;
            const Sdo sdo = pe.queue.front();
            pe.queue.pop_front();
            // max() because a same-quantum enqueue may postdate the
            // quantum-start stamp; both operands sit on the quantum grid,
            // so the stamp stays partition-invariant.
            pe.begin_service(sdo, vnow, tracer_.get(),
                             std::max(vnow, sdo.enqueue));
          }
          allowed -= pe.spend(allowed);
          if (pe.finished()) complete(pe, id, vend);
        }
      }
    }
  }

  /// Finishes the SDO `pe` just paid for at `vcomplete`, sending its
  /// copies downstream.
  void complete(PeState& pe, PeId pe_id, Seconds vcomplete) {
    ++events_executed_;
    ++counts_.processed;
    counts_.emitted += pe.complete(graph_.pe(pe_id),
                                   graph_.downstream(pe_id).size(), vcomplete,
                                   collector_, tracer_.get(),
                                   [&](std::size_t slot, const Sdo& sdo) {
                                     send(pe, pe_id, slot, sdo, vcomplete);
                                   });
  }

  void send(PeState& pe, PeId pe_id, std::size_t slot, Sdo sdo, Seconds vnow) {
    const PeId target_id = graph_.downstream(pe_id)[slot];
    const std::size_t target = target_id.value();
    const NodeId target_node = graph_.pe(target_id).node;
    if (target_node != graph_.pe(pe_id).node) {
      // One quantum of transit, whether or not the destination shares this
      // worker: the StepDone's deliveries are relayed at the next barrier,
      // the loopback's applied here at the next quantum.
      ++counts_.cross_node;
      wire::StepDone& box =
          owns_node(target_node.value()) ? loopback_ : done_;
      wire::SdoDelivery d;
      d.dest_pe = static_cast<std::uint32_t>(target);
      d.src_node = graph_.pe(pe_id).node.value();
      d.birth = sdo.birth;
      if (tracer_ != nullptr && sdo.span >= 0) {
        // The span crosses with its SDO, relayed or looped back alike:
        // stamp the serialization hop, then detach the prefix to ride
        // beside the delivery it names. The kWireSend hop is stamped at the
        // quantum's end, kWireRecv at adoption.
        tracer_->append_wire_hop(sdo.span, pe_id, obs::HopKind::kWireSerialize,
                                 vnow);
        wire::SpanHandoff h;
        h.delivery = static_cast<std::uint32_t>(box.deliveries.size());
        if (tracer_->detach(sdo.span, &h.span)) {
          box.spans.push_back(h);
        }
      }
      box.deliveries.push_back(d);
      return;
    }
    const auto offer = offer_from(pe_id, vnow);
    if (lockstep_) {
      // Producer-side hold: the span's enqueue hop waits for the flush.
      pe.send_or_hold(slot, sdo, offer);
    } else if (!offer(slot, sdo)) {
      drop(pes_[target], sdo, vnow);
    }
  }

  // ---- frames back to the coordinator --------------------------------

  /// Queues `item`, published by hosted PE `pe`, in the `list` of the
  /// StepDone when another rank reads it and of the loopback when this
  /// worker does.
  template <class T>
  void publish(std::uint32_t pe, const T& item,
               std::vector<T> wire::StepDone::*list) {
    if ((readers_[pe] & kReadElsewhere) != 0) (done_.*list).push_back(item);
    if ((readers_[pe] & kReadHere) != 0) (loopback_.*list).push_back(item);
  }

  /// Closes quantum `quantum`'s outboxes and encodes its StepDone: the
  /// deliveries, spans, adverts and congested PEs that other ranks read,
  /// the adverts and congested PEs in PE order. The loopback keeps the
  /// rest for the next quantum.
  std::vector<std::uint8_t> encode_step_done(std::uint64_t quantum) {
    // The send hop: the spans leave with the StepDone at quantum end, the
    // loopback's as if they did. The hop repeats the last-stamped PE (the
    // serialization site).
    const Seconds ship_time = static_cast<double>(quantum + 1) * q_;
    for (auto* spans : {&done_.spans, &loopback_.spans}) {
      for (wire::SpanHandoff& h : *spans) {
        obs::SdoSpan& s = h.span;
        if (s.hop_count < obs::SdoSpan::kMaxHops) {
          const std::uint32_t pe =
              s.hop_count > 0 ? s.hops[s.hop_count - 1].pe : s.source_pe;
          s.hops[s.hop_count++] = obs::SpanHop{
              pe, static_cast<std::uint32_t>(obs::HopKind::kWireSend),
              ship_time, ship_time, ship_time};
        } else {
          s.truncated = true;
        }
      }
    }
    // Each PE advertises at most once a quantum, so the order is total.
    std::ranges::sort(done_.adverts, {}, &wire::Advert::pe);
    if (lockstep_) {
      for (const PeId id : hosted_pes_) {  // ascending
        const PeState& pe = pes_[id.value()];
        if (pe.full() || !pe.inbound.empty()) {
          publish(id.value(), id.value(), &wire::StepDone::congested_pes);
        }
      }
    }
    done_.quantum = quantum;
    std::vector<std::uint8_t> bytes = wire::encode(done_);
    // Cleared, not moved from: the outboxes keep their capacity.
    done_.deliveries.clear();
    done_.spans.clear();
    done_.adverts.clear();
    done_.congested_pes.clear();
    return bytes;
  }

  /// Adds this quantum's data-path counts to the registry's counters.
  void flush_counts() {
    ctr_arrived_.inc(counts_.arrived);
    ctr_processed_.inc(counts_.processed);
    ctr_emitted_.inc(counts_.emitted);
    ctr_dropped_.inc(counts_.dropped);
    ctr_cross_node_.inc(counts_.cross_node);
    counts_ = Counts{};
  }

  wire::Report make_report() {
    wire::Report out;
    // Utilization is computed against the *global* capacity so the merged
    // sum over workers equals the whole system's utilization.
    out.report = collector_.finalize(cfg_.duration, total_capacity_);
    out.report.per_pe.assign(graph_.pe_count(), metrics::PeAccounting{});
    for (const PeId id : hosted_pes_) {
      out.report.per_pe[id.value()] = pes_[id.value()].accounting();
    }
    out.report.events_executed = events_executed_;
    out.report.reoptimizations = 0;  // the coordinator owns this count
    return out;
  }

  /// Appends the encoded `frame` to the send `out`.
  static void append(std::vector<std::uint8_t>& out,
                     std::vector<std::uint8_t> frame) {
    if (out.empty()) {
      out = std::move(frame);
    } else {
      out.insert(out.end(), frame.begin(), frame.end());
    }
  }

  /// Appends to `out` the telemetry frames that precede the StepDone (or
  /// final Report) closing quantum `quantum`: the MetricsReport, with the
  /// spans finalized since the last one, when `epoch` (an epoch's last
  /// quantum, or the final one), and the fault dump taken this quantum, if
  /// any.
  void append_telemetry(std::vector<std::uint8_t>& out, std::uint64_t quantum,
                        bool epoch) {
    if (epoch) append(out, wire::encode(make_metrics_report(quantum)));
    if (pending_dump_.has_value()) {
      // A fault fired this quantum: ship the newest post-mortem the tracer
      // captured at a fault site, in-flight spans included.
      append(out, wire::encode(*pending_dump_));
      pending_dump_.reset();
    }
  }

  wire::MetricsReport make_metrics_report(std::uint64_t quantum) {
    wire::MetricsReport mr;
    mr.quantum = quantum;
    const obs::MetricsSnapshot snap = counters_.snapshot();
    for (const auto& [name, value] : snap.counters) {
      // Deltas, not absolutes: the coordinator's sum stays exact across
      // worker restarts (a respawned shard starts at zero).
      std::uint64_t& sent = last_sent_counters_[name];
      if (value > sent) {
        mr.counters.push_back({name, value - sent});
        sent = value;
      }
    }
    for (const auto& [name, value] : snap.gauges) {
      mr.gauges.push_back({name, value});
    }
    for (const obs::TimerSample& t : snap.timers) {
      mr.perf.push_back({t.name, t.calls, t.ns});
    }
    mr.trace = std::move(trace_buffer_);
    trace_buffer_.clear();
    // Each finalized span travels once, here; the coordinator rebuilds this
    // shard's latency histograms and flight ring from them.
    if (tracer_ != nullptr) mr.spans = tracer_->take_completed();
    return mr;
  }

  wire::Config cfg_;
  transport::Endpoint& ep_;
  graph::ProcessingGraph graph_;
  metrics::Collector collector_;
  control::ControllerConfig controller_config_;
  bool lockstep_ = false;
  double q_ = 0.0;
  double total_capacity_ = 0.0;
  std::size_t node_begin_ = 0;
  std::size_t node_end_ = 0;
  std::vector<PeState> pes_;
  std::vector<control::NodeController> controllers_;
  std::vector<pe::Source> sources_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::vector<double> visible_advert_;
  std::vector<Seconds> visible_advert_time_;
  std::vector<std::uint8_t> congested_;
  std::vector<bool> was_down_;      // aligned with controllers_
  std::vector<bool> was_stalled_;   // indexed by PeId
  /// This worker's PEs, ascending.
  std::vector<PeId> hosted_pes_;
  /// Per hosted PE, kReadHere | kReadElsewhere: who reads its adverts and
  /// congestion.
  std::vector<std::uint8_t> readers_;
  /// The quantum's StepDone, filled as it runs: what other ranks read.
  wire::StepDone done_;
  /// What this worker reads itself of what it published in the last
  /// quantum: cross-node deliveries between its own nodes (with their
  /// spans, indexed into them) and the adverts and congested PEs of its own
  /// PEs. Applied at the next quantum as if relayed; its quantum is unused.
  wire::StepDone loopback_;
  /// node_tick's inputs, reused by every tick.
  std::vector<control::PeTickInput> tick_inputs_;
  Counts counts_;
  std::uint64_t events_executed_ = 0;

  // ---- telemetry (tentpole: the distributed observability plane) -----
  obs::Registry counters_;
  obs::Counter ctr_arrived_;
  obs::Counter ctr_processed_;
  obs::Counter ctr_emitted_;
  obs::Counter ctr_dropped_;
  obs::Counter ctr_cross_node_;
  obs::Gauge gauge_quantum_;
  obs::Timer tick_timer_;
  std::unique_ptr<obs::SpanTracer> tracer_;
  /// Control-tick records since the last MetricsReport (record_trace only).
  std::vector<obs::TickRecord> trace_buffer_;
  /// Counter values as of the last MetricsReport, for delta encoding.
  std::map<std::string, std::uint64_t> last_sent_counters_;
  /// The newest fault dump taken this quantum, awaiting shipping.
  std::optional<obs::FlightDump> pending_dump_;
};

}  // namespace

int worker_entry(transport::Endpoint& endpoint, std::uint32_t rank) {
  if (!endpoint.send(wire::encode(wire::Hello{rank}))) return 1;
  wire::Frame frame;
  if (endpoint.recv(&frame, kCoordinatorTimeoutMs) !=
          transport::RecvStatus::kOk ||
      frame.type != wire::FrameType::kConfig) {
    return 1;
  }
  const auto cfg = wire::decode_config(frame.payload);
  if (!cfg.has_value()) return 1;
  // The in-process transport runs workers as coordinator threads, so a
  // CheckFailure (or any other exception) must not escape and terminate the
  // whole coordinator — turn it into a dead endpoint the coordinator
  // detects like any other worker death.
  try {
    WorkerEngine engine(*cfg, endpoint);
    return engine.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist-worker rank %u: %s\n", rank, e.what());
    endpoint.close();
    return 1;
  }
}

int maybe_worker(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "dist-worker") != 0) return -1;
  std::uint32_t rank = 0;
  std::string uds_path;
  int tcp_port = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--rank=", 0) == 0) {
      rank = static_cast<std::uint32_t>(std::stoul(arg.substr(7)));
    } else if (arg.rfind("--uds=", 0) == 0) {
      uds_path = arg.substr(6);
    } else if (arg.rfind("--tcp-port=", 0) == 0) {
      tcp_port = std::stoi(arg.substr(11));
    }
  }
  std::string error;
  std::unique_ptr<transport::Endpoint> ep;
  if (!uds_path.empty()) {
    ep = transport::connect_uds(uds_path, 10000, &error);
  } else if (tcp_port > 0) {
    ep = transport::connect_tcp(static_cast<std::uint16_t>(tcp_port), 10000,
                                &error);
  }
  if (ep == nullptr) return 1;
  return worker_entry(*ep, rank);
}

}  // namespace aces::runtime::dist
