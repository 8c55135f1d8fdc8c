#include "runtime/runtime_engine.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/atomic_shim.h"
#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/rng.h"
#include "control/node_controller.h"
#include "fault/fault_injector.h"
#include "metrics/collector.h"
#include "obs/registry.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "pe/pe_core.h"
#include "runtime/message_bus.h"
#include "runtime/sdo_channel.h"
#include "runtime/thread_pin.h"

namespace aces::runtime {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Sdo = pe::Sdo;

/// Thread-safe metrics front end (the node and source threads all report),
/// with metrics::Collector's method names so the PE kernel's templates
/// accept either.
class SharedCollector {
 public:
  SharedCollector(Seconds measure_from, std::size_t egress_count)
      : collector_(measure_from, egress_count) {}

  void on_egress_output(Seconds now, std::size_t index, double weight,
                        Seconds latency) ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    collector_.on_egress_output(now, index, weight, latency);
  }
  void on_internal_drop(Seconds now) ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    collector_.on_internal_drop(now);
  }
  void on_ingress_drop(Seconds now) ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    collector_.on_ingress_drop(now);
  }
  void on_processed(Seconds now, std::uint64_t count = 1)
      ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    collector_.on_processed(now, count);
  }
  void on_cpu_used(Seconds now, double cpu_seconds) ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    collector_.on_cpu_used(now, cpu_seconds);
  }
  void on_buffer_sample(Seconds now, double fill) ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    collector_.on_buffer_sample(now, fill);
  }
  metrics::RunReport finalize(Seconds end, double capacity)
      ACES_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return collector_.finalize(end, capacity);
  }

 private:
  Mutex mutex_;
  metrics::Collector collector_ ACES_GUARDED_BY(mutex_);
};

/// Everything the worker threads share about one PE. The kernel core is
/// owned by the hosting node thread, except that its `arrived` and
/// `lifetime_dropped` stay unused: producer threads count arrivals and
/// drops in the atomics below instead.
struct PeRt : pe::PeCore<Sdo> {
  PeRt(std::size_t capacity, bool single_producer,
       workload::ServiceModel service, std::size_t batch)
      : PeCore(std::move(service)),
        input(capacity, single_producer),
        fetched(batch) {}

  /// SPSC ring when the graph proves one producer thread, mutex channel
  /// otherwise (the hosting node thread is always the sole consumer).
  SdoChannel<Sdo> input;
  /// Total accepted pushes; the node thread diffs this per tick to report
  /// arrivals to the controller.
  Atomic<std::uint64_t> pushed{0};
  /// This PE's latest advertised r_max (its input, SDO/s). Written by its
  /// node's tick; read by upstream nodes — the control-plane mailbox.
  Atomic<double> advert{kInf};
  /// Virtual time the mailbox was last refreshed (run start counts as
  /// fresh); drives the advertisement-staleness degradation rule.
  Atomic<Seconds> advert_time{0.0};

  // ---- state owned exclusively by the hosting node thread ----
  std::uint64_t pushed_at_last_tick = 0;
  /// Burst-drain staging: SDOs already popped from `input` but not yet in
  /// service. fetched[fetched_head, fetched_count) are live. Counted into
  /// buffer occupancy, drained as lost on crash — logically these are
  /// still "queued", they just live on the consumer's side of the ring.
  std::vector<Sdo> fetched;
  std::size_t fetched_head = 0;
  std::size_t fetched_count = 0;
  [[nodiscard]] std::size_t staged() const { return fetched_count - fetched_head; }

  /// Lifetime drops, touched by node, bus, and source threads.
  Atomic<std::uint64_t> dropped{0};
};

class Engine {
 public:
  Engine(const graph::ProcessingGraph& g, const opt::AllocationPlan& plan,
         const RuntimeOptions& options)
      : graph_(g),
        options_(options),
        policy_(options.controller.policy),
        collector_(options.warmup, pe::egress_count(g)) {
    ACES_CHECK_MSG(options.duration > options.warmup,
                   "duration must exceed warmup");
    ACES_CHECK_MSG(options.dt > 0.0, "dt must be positive");
    ACES_CHECK_MSG(options.time_scale > 0.0, "time scale must be positive");
    ACES_CHECK_MSG(options.network_latency >= 0.0,
                   "negative network latency");
    ACES_CHECK_MSG(options.batch > 0, "batch must be positive");
    g.validate();
    Rng master(options.seed);

    total_capacity_ = 0.0;
    for (NodeId n : g.all_nodes()) total_capacity_ += g.node(n).cpu_capacity;

    // The bus dispatcher is a producer thread iff it will be started in
    // run(); known at construction from the same predicate.
    const bool bus_active = options.network_latency > 0.0 &&
                            policy_ != control::FlowPolicy::kLockStep;

    pes_.reserve(g.pe_count());
    pe::build_cores(g, plan, master,
                    [&](PeId id, workload::ServiceModel service)
                        -> pe::PeCore<Sdo>& {
                      const auto& d = g.pe(id);
                      const std::size_t capacity =
                          options.channel_capacity > 0
                              ? options.channel_capacity
                              : static_cast<std::size_t>(d.buffer_capacity);
                      return *pes_.emplace_back(std::make_unique<PeRt>(
                          capacity,
                          channel_producer_count(g, id, bus_active) <= 1,
                          std::move(service), options.batch));
                    });

    controllers_.reserve(g.node_count());
    for (NodeId n : g.all_nodes())
      controllers_.emplace_back(g, n, plan, options.controller);

    sources_ = pe::make_sources(g, master, options.arrival_factory);

    // Data-plane event counters and the tick timer; disabled (null)
    // handles when no registry is attached, costing one predictable branch
    // per event.
    channel_send_ = obs::make_counter(options.counters, "runtime.channel.send");
    channel_drop_ = obs::make_counter(options.counters, "runtime.channel.drop");
    channel_block_ =
        obs::make_counter(options.counters, "runtime.channel.block");
    bus_post_ = obs::make_counter(options.counters, "runtime.bus.post");
    bus_deliver_ = obs::make_counter(options.counters, "runtime.bus.deliver");
    source_inject_ =
        obs::make_counter(options.counters, "runtime.source.inject");
    source_drop_ = obs::make_counter(options.counters, "runtime.source.drop");
    tick_timer_ = obs::make_timer(options.counters, "controller_tick");

    if (!options.faults.empty()) {
      fault::validate(options.faults, g);
      injector_ = std::make_unique<fault::FaultInjector>(
          options.faults, options.seed, g.pe_count(), options.counters);
    }
  }

  metrics::RunReport run() {
    start_ = std::chrono::steady_clock::now();
    if (options_.network_latency > 0.0 &&
        policy_ != control::FlowPolicy::kLockStep) {
      bus_ = std::make_unique<MessageBus>([this] { return virtual_now(); },
                                          options_.time_scale);
      bus_->start();
    }
    std::vector<std::thread> threads;
    threads.reserve(controllers_.size() + 1);
    for (std::size_t n = 0; n < controllers_.size(); ++n) {
      threads.emplace_back([this, n] { node_main(n); });
    }
    threads.emplace_back([this] { source_main(); });
    // Wait out the experiment in wall time.
    const auto wall = std::chrono::duration<double>(
        options_.duration / options_.time_scale);
    std::this_thread::sleep_for(wall);
    stop_.store(true);
    for (auto& pe : pes_) pe->input.close();
    // A node thread past its stop_ check may still send a cross-node SDO,
    // so the bus stops only once no thread is left to post to it.
    for (auto& t : threads) t.join();
    if (bus_ != nullptr) bus_->stop();
    metrics::RunReport report =
        collector_.finalize(options_.duration, total_capacity_);
    report.per_pe.reserve(pes_.size());
    for (const auto& pe : pes_) {
      // Arrivals and drops were counted by the producer threads.
      metrics::PeAccounting acc = pe->accounting();
      acc.arrived = pe->pushed.load(std::memory_order_relaxed);
      acc.dropped_input = pe->dropped.load(std::memory_order_relaxed);
      report.per_pe.push_back(acc);
    }
    return report;
  }

 private:
  /// Distinct threads that ever push into PE `id`'s input channel:
  /// the hosting node thread of each upstream PE — except that when the
  /// bus is active, a cross-node upstream's push happens on the bus
  /// dispatcher instead — plus the source thread for ingress PEs. This is
  /// the proof obligation for selecting the lock-free SPSC backend: the
  /// count errs high only (the engine has no other pushers), never low.
  static std::size_t channel_producer_count(const graph::ProcessingGraph& g,
                                            PeId id, bool bus_active) {
    // Producer tokens: a node's id for its worker thread, plus sentinels
    // for the bus dispatcher and the source thread.
    constexpr std::uint64_t kBusToken = ~std::uint64_t{0};
    constexpr std::uint64_t kSourceToken = ~std::uint64_t{0} - 1;
    std::vector<std::uint64_t> producers;
    for (PeId up : g.upstream(id)) {
      const bool cross_node = g.pe(up).node != g.pe(id).node;
      const std::uint64_t token = bus_active && cross_node
                                      ? kBusToken
                                      : std::uint64_t{g.pe(up).node.value()};
      if (std::find(producers.begin(), producers.end(), token) ==
          producers.end()) {
        producers.push_back(token);
      }
    }
    if (g.pe(id).kind == graph::PeKind::kIngress)
      producers.push_back(kSourceToken);
    return producers.size();
  }

  [[nodiscard]] Seconds virtual_now() const {
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start_;
    return elapsed.count() * options_.time_scale;
  }

  void sleep_virtual(Seconds virtual_seconds) const {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::clamp(virtual_seconds / options_.time_scale, 0.0, 0.01)));
  }

  /// Records the enqueue hop, then pushes `sdo` into PE `target`'s
  /// channel; false when the channel is full. The hop goes first: once the
  /// SDO is in the channel the consuming thread owns its span.
  bool push(std::size_t target, Sdo sdo, Seconds when) {
    PeRt& t = *pes_[target];
    if (options_.spans != nullptr) {
      options_.spans->on_enqueue(
          sdo.span, PeId(static_cast<PeId::value_type>(target)), when);
    }
    if (!t.input.try_push(sdo)) return false;
    t.pushed.fetch_add(1, std::memory_order_relaxed);
    channel_send_.inc();
    return true;
  }

  /// A delivery into PE `target` lost at `when`, counted by whichever
  /// thread saw it.
  void drop_delivery(std::size_t target, const Sdo& sdo, Seconds when) {
    pes_[target]->dropped.fetch_add(1, std::memory_order_relaxed);
    channel_drop_.inc();
    collector_.on_internal_drop(when);
    if (options_.spans != nullptr) options_.spans->drop(sdo.span, when);
  }

  /// Hands `sdo` to PE `target` at `when`; false when its channel is full.
  /// A copy an injected fault loses is dropped and counts as taken: a dead
  /// consumer must not deadlock its Lock-Step producers.
  bool offer(PeId target, Sdo sdo, Seconds when) {
    if (pe::delivery_lost(injector_.get(), graph_, target, when)) {
      drop_delivery(target.value(), sdo, when);
      return true;
    }
    return push(target.value(), sdo, when);
  }

  /// The kernel's Lock-Step offer for copies `pe_id` sends at `when`.
  auto offer_from(PeId pe_id, Seconds when) {
    return [this, pe_id, when](std::size_t slot, const Sdo& sdo) {
      return offer(graph_.downstream(pe_id)[slot], sdo, when);
    };
  }

  /// Delivery leg shared by direct and bus-delayed sends: push or drop.
  void deliver(PeId target, Sdo sdo, Seconds when) {
    if (!offer(target, sdo, when)) drop_delivery(target.value(), sdo, when);
  }

  /// Emits one SDO on `slot`; Lock-Step holds it in the kernel and blocks
  /// the PE when the downstream buffer is full.
  void send(PeRt& pe, PeId pe_id, std::size_t slot, Sdo sdo, Seconds vnow) {
    if (policy_ == control::FlowPolicy::kLockStep) {
      // A held copy keeps its enqueue hop on the span; the flush re-stamps it.
      if (pe.send_or_hold(slot, sdo, offer_from(pe_id, vnow))) {
        channel_block_.inc();
      }
      return;
    }
    // Drop policies: cross-node SDOs optionally travel through the message
    // bus with injected latency.
    const PeId target = graph_.downstream(pe_id)[slot];
    const bool cross_node = graph_.pe(pe_id).node != graph_.pe(target).node;
    if (bus_ != nullptr && cross_node) {
      bus_post_.inc();
      bus_->post(vnow + options_.network_latency, [this, target, sdo] {
        bus_deliver_.inc();
        deliver(target, sdo, virtual_now());
      });
      return;
    }
    deliver(target, sdo, vnow);
  }

  /// One control tick of node `node_index` at `vnow`. `inputs` is the
  /// node thread's own scratch, reused by every tick.
  void node_tick(std::size_t node_index, Seconds vnow,
                 std::vector<control::PeTickInput>& inputs) {
    control::NodeController& controller = controllers_[node_index];
    const auto& local = controller.local_pes();
    const Seconds staleness = options_.controller.advert_staleness_timeout;
    inputs.resize(local.size());
    for (std::size_t i = 0; i < local.size(); ++i) {
      PeRt& pe = *pes_[local[i].value()];
      const std::uint64_t pushed = pe.pushed.load(std::memory_order_relaxed);
      pe.arrived = static_cast<double>(pushed - pe.pushed_at_last_tick);
      pe.pushed_at_last_tick = pushed;
      const auto& downs = graph_.downstream(local[i]);
      // Staged SDOs are still queued from the model's point of view; they
      // just sit on the consumer side of the ring (this thread's staging
      // buffer, so the read is race-free).
      inputs[i] = pe.tick_input(
          vnow, pe.input.size() + pe.staged(), pe.blocked, downs.size(),
          staleness, [&](std::size_t slot) {
            const PeRt& d = *pes_[downs[slot].value()];
            return pe::Advert{d.advert.load(std::memory_order_relaxed),
                              d.advert_time.load(std::memory_order_relaxed)};
          });
    }
    const std::vector<control::PeTickOutput>& outputs =
        pe::tick(controller, options_.dt, inputs, tick_timer_);
    for (std::size_t i = 0; i < local.size(); ++i) {
      PeRt& pe = *pes_[local[i].value()];
      if (options_.trace != nullptr) {
        options_.trace->record(pe::tick_record(
            controller, i, vnow, staleness, inputs[i], outputs[i],
            outputs[i].cpu_share, pe.dropped.load(std::memory_order_relaxed),
            injector_.get()));
      }
      // Fill is against the effective channel capacity (the graph bound
      // unless --channel-capacity overrides it).
      pe.close_interval(vnow, pe.input.size() + pe.staged(),
                        pe.input.capacity(), collector_);
      pe.share = outputs[i].cpu_share;
      // Injected advertisement loss: skip the mailbox refresh entirely, so
      // the stale value (and its timestamp) is what upstream peers see.
      if (injector_ != nullptr && injector_->advert_lost(local[i], vnow))
        continue;
      pe.advert.store(outputs[i].advertised_rmax, std::memory_order_relaxed);
      pe.advert_time.store(vnow, std::memory_order_relaxed);
    }
  }

  /// The hosting node crashed: everything buffered, in service, or held on
  /// its PEs is lost. Runs on the node thread at the down transition.
  void crash_local_pes(const std::vector<PeId>& local, Seconds vnow) {
    // Post-mortem first: capture the doomed SDOs while their spans still
    // read as in-flight.
    if (options_.spans != nullptr) {
      options_.spans->fault_dump("fault.node_crash", vnow);
    }
    std::uint64_t lost = 0;
    for (PeId id : local) {
      PeRt& pe = *pes_[id.value()];
      const std::uint64_t pe_lost =
          pe.discard(vnow, collector_, options_.spans,
                     [&pe](auto lose) { drain_input(pe, lose); });
      pe.dropped.fetch_add(pe_lost, std::memory_order_relaxed);
      lost += pe_lost;
    }
    injector_->note_node_crash(lost);
  }

  /// Hands every SDO staged or still queued in `pe`'s input to `lose`,
  /// emptying both.
  template <class Lose>
  static void drain_input(PeRt& pe, Lose& lose) {
    for (std::size_t f = pe.fetched_head; f < pe.fetched_count; ++f)
      lose(pe.fetched[f]);
    pe.fetched_head = 0;
    pe.fetched_count = 0;
    while (auto sdo = pe.input.try_pop()) lose(*sdo);
  }

  void node_main(std::size_t node_index) {
    if (options_.pin_threads) pin_this_thread(node_index);
    control::NodeController& controller = controllers_[node_index];
    const auto& local = controller.local_pes();
    Rng phase_rng(options_.seed * 977 + node_index);
    Seconds tick_start = phase_rng.uniform(0.0, options_.dt);
    while (virtual_now() < tick_start && !stop_.load()) {
      sleep_virtual(tick_start - virtual_now());
    }

    bool was_down = false;
    std::vector<bool> was_stalled(local.size(), false);
    std::vector<control::PeTickInput> tick_inputs;
    while (!stop_.load()) {
      Seconds vnow = virtual_now();

      if (injector_ != nullptr) {
        const bool is_down = injector_->node_down(controller.node(), vnow);
        if (is_down && !was_down) crash_local_pes(local, vnow);
        if (!is_down && was_down) {
          // Recovery: factory-fresh controller state, drained channels
          // (deliveries while down were dropped at the sender side; a
          // straggler pushed across the crash is lost like the rest), and
          // a re-homed tick grid.
          controller.reset_state();
          for (PeId id : local) {
            PeRt& pe = *pes_[id.value()];
            pe.dropped.fetch_add(
                pe.discard(vnow, collector_, options_.spans,
                           [&pe](auto lose) { drain_input(pe, lose); }),
                std::memory_order_relaxed);
            pe.pushed_at_last_tick =
                pe.pushed.load(std::memory_order_relaxed);
          }
          tick_start = vnow;
          injector_->note_node_restart();
        }
        was_down = is_down;
        if (is_down) {
          sleep_virtual(options_.dt);
          continue;
        }
        for (std::size_t i = 0; i < local.size(); ++i) {
          const bool stalled = injector_->pe_stalled(local[i], vnow);
          if (stalled && !was_stalled[i]) {
            injector_->note_pe_stall();
            if (options_.spans != nullptr) {
              options_.spans->fault_dump("fault.pe_stall", vnow);
            }
          }
          was_stalled[i] = stalled;
        }
      }

      if (vnow >= tick_start + options_.dt) {
        node_tick(node_index, vnow, tick_inputs);
        tick_start += options_.dt;
        // If the thread was starved across several intervals, re-home the
        // tick grid instead of firing a burst of stale ticks.
        if (vnow >= tick_start + options_.dt) tick_start = vnow;
        vnow = virtual_now();
      }

      // Processing phase: each PE may spend share × (elapsed-in-tick)
      // virtual CPU seconds, paced by the wall clock.
      bool any_progress = false;
      for (std::size_t i = 0; i < local.size(); ++i) {
        PeRt& pe = *pes_[local[i].value()];
        if (was_stalled[i]) continue;  // wedged operator: burns no CPU
        if (pe.blocked && !pe.flush(offer_from(local[i], virtual_now()))) {
          continue;
        }
        if (pe.share <= 0.0) continue;
        const Seconds horizon = std::min(vnow, tick_start + options_.dt);
        double allowed = pe.share * (horizon - tick_start) - pe.cpu_used;
        while (allowed > 0.0 && !pe.blocked) {
          if (!pe.busy) {
            // Refill the staging buffer in one burst (one index publish
            // for up to `batch` SDOs), then serve from it.
            if (pe.fetched_head == pe.fetched_count) {
              pe.fetched_head = 0;
              pe.fetched_count =
                  pe.input.pop_burst(pe.fetched.data(), options_.batch);
              if (pe.fetched_count == 0) break;
            }
            pe.begin_service(pe.fetched[pe.fetched_head++], vnow,
                             options_.spans, vnow);
          }
          allowed -= pe.spend(allowed);
          if (pe.finished()) {
            const PeId id = local[i];
            pe.complete(graph_.pe(id), graph_.downstream(id).size(), vnow,
                        collector_, options_.spans,
                        [&](std::size_t slot, Sdo sdo) {
                          send(pe, id, slot, sdo, vnow);
                        });
            any_progress = true;
          }
        }
      }
      if (!any_progress) sleep_virtual(options_.dt / 20.0);
    }
  }

  void source_main() {
    if (options_.pin_threads) pin_this_thread(controllers_.size());
    for (auto& source : sources_) {
      source.next_arrival = source.process->next_interarrival();
    }
    // Gather buffer for batched injection; its bound is the batch knob.
    std::vector<Sdo> gathered(options_.batch);
    while (!stop_.load()) {
      // Earliest pending arrival.
      pe::Source* next = nullptr;
      for (auto& source : sources_) {
        if (next == nullptr || source.next_arrival < next->next_arrival)
          next = &source;
      }
      if (next == nullptr) return;  // no sources at all
      const Seconds vnow = virtual_now();
      if (next->next_arrival > vnow) {
        sleep_virtual(next->next_arrival - vnow);
        continue;
      }
      const PeId pe_id = next->pe;
      PeRt& pe = *pes_[pe_id.value()];
      // Gather every already-due arrival of this stream (up to the batch
      // bound) and publish them with one index store. Per-SDO semantics
      // are preserved exactly: each arrival keeps its own birth time,
      // fault draw, and span — only the channel synchronization is
      // amortized. The accepted count is the same prefix a per-SDO
      // try_push loop would have admitted.
      std::size_t gathered_count = 0;
      while (gathered_count < options_.batch && next->next_arrival <= vnow) {
        const Seconds at = next->next_arrival;
        next->next_arrival += next->process->next_interarrival();
        const Sdo sdo{at, pe::sample_arrival(options_.spans, pe_id, at)};
        if (pe::delivery_lost(injector_.get(), graph_, pe_id, vnow)) {
          drop_arrival(pe, sdo);
          continue;
        }
        if (options_.spans != nullptr) {
          options_.spans->on_enqueue(sdo.span, pe_id, at);
        }
        gathered[gathered_count++] = sdo;
      }
      if (gathered_count == 0) continue;  // every due arrival fault-dropped
      const std::size_t accepted =
          pe.input.try_push_n(gathered.data(), gathered_count);
      if (accepted > 0) {
        pe.pushed.fetch_add(accepted, std::memory_order_relaxed);
        source_inject_.inc(accepted);
      }
      // The rejected tail is an ingress drop per SDO, same as a failed
      // try_push in the per-SDO path.
      for (std::size_t r = accepted; r < gathered_count; ++r) {
        drop_arrival(pe, gathered[r]);
      }
    }
  }

  /// An arrival its ingress PE could not take, counted on the source
  /// thread: an ingress drop at the SDO's birth.
  void drop_arrival(PeRt& pe, const Sdo& sdo) {
    pe.dropped.fetch_add(1, std::memory_order_relaxed);
    source_drop_.inc();
    collector_.on_ingress_drop(sdo.birth);
    if (options_.spans != nullptr) options_.spans->drop(sdo.span, sdo.birth);
  }

  const graph::ProcessingGraph& graph_;
  RuntimeOptions options_;
  control::FlowPolicy policy_;
  SharedCollector collector_;
  std::vector<std::unique_ptr<PeRt>> pes_;
  std::vector<control::NodeController> controllers_;
  std::vector<pe::Source> sources_;
  double total_capacity_ = 0.0;
  std::chrono::steady_clock::time_point start_;
  Atomic<bool> stop_{false};
  std::unique_ptr<MessageBus> bus_;
  // Run telemetry (disabled handles unless options.counters is set).
  obs::Counter channel_send_;
  obs::Counter channel_drop_;
  obs::Counter channel_block_;
  obs::Counter bus_post_;
  obs::Counter bus_deliver_;
  obs::Counter source_inject_;
  obs::Counter source_drop_;
  obs::Timer tick_timer_;
  /// Non-null iff RuntimeOptions::faults is non-empty.
  std::unique_ptr<fault::FaultInjector> injector_;
};

}  // namespace

metrics::RunReport run_runtime(const graph::ProcessingGraph& graph,
                               const opt::AllocationPlan& plan,
                               const RuntimeOptions& options) {
  Engine engine(graph, plan, options);
  return engine.run();
}

}  // namespace aces::runtime
