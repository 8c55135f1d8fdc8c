// The PE data-path kernel: the per-PE state that the discrete-event
// simulator, the threaded runtime and the distributed worker share, and
// every transition on it.
//
// Each substrate keeps only what really differs between them: its clock,
// its queue type (BoundedQueue, SdoChannel), its transport
// (simulator events, channels and the message bus, barrier outboxes) and its
// own counters. Everything else a PE does is written here once:
//  * construction: the service-model and arrival-stream forks by PE id,
//    egress numbering, tier-1 shares, the size of the Lock-Step hold;
//  * service: take an SDO into service, spend CPU on it, complete it —
//    selectivity credit, egress accounting, fan-out slot by slot with the
//    span continuing into the first copy only;
//  * Lock-Step (the paper's min-flow baseline): a copy a full consumer
//    refuses is held and the PE blocks until the hold flushes. The
//    substrate writes only `offer(slot, sdo)`, which hands one copy
//    downstream and returns false when the consumer is full;
//  * the ledger: admissions, drops, the per-PE PeAccounting;
//  * control: the controller's PeTickInput (Eq. 8 with per-slot
//    staleness), the tick itself, the TickRecord, the interval close;
//  * faults: whether a delivery is lost (delivery_lost), and a crash's
//    discard of every SDO the PE holds;
//  * tracing: the span-sampling draw on the arrival path.
//
// The per-SDO transitions are header templates over the substrate's metrics
// collector and callbacks, so they inline into each engine with no
// std::function or virtual call per SDO. The collectors (metrics::Collector
// and the threaded runtime's locked front end) share the on_* method names.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/bounded_queue.h"
#include "common/rng.h"
#include "common/types.h"
#include "control/node_controller.h"
#include "graph/processing_graph.h"
#include "metrics/run_report.h"
#include "obs/registry.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "opt/global_optimizer.h"
#include "workload/arrivals.h"
#include "workload/markov_modulator.h"

namespace aces::fault {
class FaultInjector;
}  // namespace aces::fault

namespace aces::pe {

/// Work left below this on the SDO in service is numeric residue: done.
inline constexpr double kWorkEps = 1e-12;

/// egress_index of a PE that is not an egress PE.
inline constexpr std::size_t kNotEgress = static_cast<std::size_t>(-1);

/// An SDO as the simulator and the threaded runtime queue it.
struct Sdo {
  Seconds birth = 0.0;  ///< time of system entry
  /// Span handle when this SDO is traced; -1 otherwise.
  std::int32_t span = -1;
};

/// One downstream slot's latest advertisement, as a PE's tick reads it.
struct Advert {
  double rmax = 0.0;
  /// When it was last refreshed (run start counts as fresh).
  Seconds time = 0.0;
};

/// The state every substrate keeps per PE. `SdoT` is the substrate's SDO
/// type; it needs `birth` and `span` members.
template <class SdoT>
struct PeCore {
  explicit PeCore(workload::ServiceModel model) : service(std::move(model)) {}

  // The fields every service step reads come first, sharing a cache line.
  bool busy = false;   ///< `current` is in service
  bool blocked = false;  ///< Lock-Step: asleep while `held` is non-empty
  double share = 0.0;  ///< CPU fraction granted at the last tick
  double work_remaining = 0.0;  ///< CPU-seconds left on `current`
  SdoT current{};
  double selectivity_credit = 0.0;
  std::size_t egress_index = kNotEgress;  ///< position among egress PEs
  // Interval counters, reset by close_interval() at every tick.
  double processed = 0.0;
  double cpu_used = 0.0;
  double arrived = 0.0;
  // Lifetime ledger (never reset).
  std::uint64_t lifetime_arrived = 0;
  std::uint64_t lifetime_processed = 0;
  std::uint64_t lifetime_emitted = 0;
  std::uint64_t lifetime_dropped = 0;
  double lifetime_cpu = 0.0;
  workload::ServiceModel service;
  /// Lock-Step hold: the copies a full consumer refused, oldest first, each
  /// with its downstream slot. Sized by build_cores.
  BoundedQueue<std::pair<std::size_t, SdoT>> held;

  /// Takes `sdo` into service at `now`, drawing its CPU cost from the
  /// service model. `dequeued_at` stamps the span's dequeue hop: `now`,
  /// except where a barrier quantum lets the enqueue postdate `now`.
  void begin_service(const SdoT& sdo, Seconds now, obs::SpanTracer* spans,
                     Seconds dequeued_at) {
    current = sdo;
    busy = true;
    work_remaining = service.cost_at(now);
    if (spans != nullptr) spans->on_dequeue(sdo.span, dequeued_at);
  }

  /// Spends up to `budget` CPU-seconds on the SDO in service; returns the
  /// amount spent.
  double spend(double budget) {
    const double spent = std::min(budget, work_remaining);
    work_remaining -= spent;
    cpu_used += spent;
    lifetime_cpu += spent;
    return spent;
  }

  [[nodiscard]] bool finished() const { return work_remaining <= kWorkEps; }

  /// Finishes the SDO in service at `now`. `d` is this PE's descriptor and
  /// `fanout` its downstream count. The fractional selectivity is realised
  /// with a conserved credit. An egress PE counts its outputs, each with
  /// latency now − birth; any other PE hands every copy to
  /// `emit(slot, sdo)`, slot by slot. The span continues into the first
  /// copy only, so a trace stays one root-to-sink path; it completes here
  /// at egress, or when selectivity absorbs the SDO. Returns the number of
  /// outputs (egress) or copies emitted.
  template <class Collector, class Emit>
  std::uint64_t complete(const graph::PeDescriptor& d, std::size_t fanout,
                         Seconds now, Collector& collector,
                         obs::SpanTracer* spans, Emit&& emit) {
    busy = false;
    processed += 1.0;
    ++lifetime_processed;
    collector.on_processed(now);
    selectivity_credit += d.selectivity;
    const int outputs = static_cast<int>(std::floor(selectivity_credit));
    selectivity_credit -= outputs;
    if (spans != nullptr) spans->on_emit(current.span, now);
    if (d.kind == graph::PeKind::kEgress) {
      lifetime_emitted += static_cast<std::uint64_t>(outputs);
      for (int k = 0; k < outputs; ++k) {
        collector.on_egress_output(now, egress_index, d.weight,
                                   now - current.birth);
      }
      if (spans != nullptr) spans->complete(current.span, now);
      return static_cast<std::uint64_t>(outputs);
    }
    if (outputs == 0) {
      if (spans != nullptr) spans->complete(current.span, now);
      return 0;
    }
    SdoT copy = current;
    for (std::size_t slot = 0; slot < fanout; ++slot) {
      for (int k = 0; k < outputs; ++k) {
        ++lifetime_emitted;
        emit(slot, copy);
        copy.span = -1;
      }
    }
    return static_cast<std::uint64_t>(outputs) * fanout;
  }

  /// Lock-Step send of one copy on downstream `slot`. `offer(slot, sdo)`
  /// hands the copy to the consumer and returns false when it is full; a
  /// refused copy is held and blocks the PE (min-flow). Each copy is offered
  /// on its own, so a copy on another slot may be taken while an earlier one
  /// is held. Returns true when the copy was held.
  template <class Offer>
  bool send_or_hold(std::size_t slot, const SdoT& sdo, Offer&& offer) {
    if (offer(slot, sdo)) return false;
    held.push_back({slot, sdo});
    blocked = true;
    return true;
  }

  /// Offers the held copies oldest first and stops at the first refusal.
  /// Returns true, with the PE unblocked, once the hold is empty.
  template <class Offer>
  bool flush(Offer&& offer) {
    while (!held.empty()) {
      const auto& [slot, sdo] = held.front();
      if (!offer(slot, sdo)) return false;
      held.pop_front();
    }
    blocked = false;
    return true;
  }

  /// Ledger of one SDO accepted into this PE's input.
  void note_admitted() {
    arrived += 1.0;
    ++lifetime_arrived;
  }

  /// Ledger of one SDO lost on its way into this PE at `now` — full buffer,
  /// injected fault, or crash: an internal drop that ends its span.
  template <class Collector>
  void note_dropped(const SdoT& sdo, Seconds now, Collector& collector,
                    obs::SpanTracer* spans) {
    ++lifetime_dropped;
    collector.on_internal_drop(now);
    if (spans != nullptr) spans->drop(sdo.span, now);
  }

  /// Ledger of one source arrival this ingress PE could not accept: an
  /// ingress drop at the SDO's birth.
  template <class Collector>
  void note_arrival_dropped(const SdoT& sdo, Collector& collector,
                            obs::SpanTracer* spans) {
    ++lifetime_dropped;
    collector.on_ingress_drop(sdo.birth);
    if (spans != nullptr) spans->drop(sdo.span, sdo.birth);
  }

  /// The controller's view of this PE for a tick at `now`: the interval
  /// counters, plus `occupancy` and `blocked` as the substrate sees them,
  /// plus the Eq. 8 max over the `fanout` downstream advertisements
  /// `advert(slot)`. A slot silent for longer than `staleness` (when > 0)
  /// reads as r_max = 0, so one live consumer still governs. An egress PE
  /// reads +inf with age 0.
  template <class AdvertOf>
  [[nodiscard]] control::PeTickInput tick_input(Seconds now,
                                                std::size_t occupancy,
                                                bool blocked,
                                                std::size_t fanout,
                                                Seconds staleness,
                                                AdvertOf&& advert) const {
    control::PeTickInput in;
    in.buffer_occupancy = static_cast<double>(occupancy);
    in.processed_sdos = processed;
    in.cpu_seconds_used = cpu_used;
    in.arrived_sdos = arrived;
    in.output_blocked = blocked;
    if (fanout == 0) return in;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    in.downstream_rmax = -kInf;
    Seconds freshest = -kInf;
    for (std::size_t slot = 0; slot < fanout; ++slot) {
      const Advert a = advert(slot);
      const bool stale = staleness > 0.0 && now - a.time > staleness;
      in.downstream_rmax = std::max(in.downstream_rmax, stale ? 0.0 : a.rmax);
      freshest = std::max(freshest, a.time);
    }
    in.downstream_advert_age = now - freshest;
    return in;
  }

  /// Closes a control interval at `now`: samples the CPU used and the
  /// buffer fill (`occupancy` over `capacity`, clamped at 1 because SDOs
  /// staged on the consumer side can push the count past the bound), then
  /// resets the interval counters.
  template <class Collector>
  void close_interval(Seconds now, std::size_t occupancy,
                      std::size_t capacity, Collector& collector) {
    collector.on_cpu_used(now, cpu_used);
    collector.on_buffer_sample(
        now, std::min(1.0, static_cast<double>(occupancy) /
                               static_cast<double>(capacity)));
    processed = 0.0;
    cpu_used = 0.0;
    arrived = 0.0;
  }

  /// A modelled crash at `now`: every SDO this PE holds is lost — the one
  /// in service, then the Lock-Step hold, then the substrate's own queues,
  /// which `drain(lose)` must pass to `lose` and empty. Every lost SDO is an
  /// internal drop that ends its span. Leaves the PE idle and unblocked with
  /// share 0; returns the number of SDOs lost.
  template <class Collector, class Drain>
  std::uint64_t discard(Seconds now, Collector& collector,
                        obs::SpanTracer* spans, Drain&& drain) {
    const std::uint64_t before = lifetime_dropped;
    const auto lose = [&](const SdoT& sdo) {
      note_dropped(sdo, now, collector, spans);
    };
    if (busy) lose(current);
    for (std::size_t k = 0; k < held.size(); ++k) lose(held.at(k).second);
    held.clear();
    drain(lose);
    busy = false;
    blocked = false;
    work_remaining = 0.0;
    share = 0.0;
    return lifetime_dropped - before;
  }

  [[nodiscard]] metrics::PeAccounting accounting() const {
    metrics::PeAccounting acc;
    acc.arrived = lifetime_arrived;
    acc.processed = lifetime_processed;
    acc.emitted = lifetime_emitted;
    acc.dropped_input = lifetime_dropped;
    acc.cpu_seconds = lifetime_cpu;
    return acc;
  }
};

/// Calls `make(id, service)` for every PE in id order, with its service
/// model forked from `master`; `make` builds the substrate's PE record and
/// returns its PeCore, which then gets its egress index, tier-1 share and
/// Lock-Step hold.
template <class Make>
void build_cores(const graph::ProcessingGraph& g,
                 const opt::AllocationPlan& plan, Rng& master, Make&& make) {
  std::size_t egress = 0;
  for (PeId id : g.all_pes()) {
    const graph::PeDescriptor& d = g.pe(id);
    auto& core = make(id, workload::ServiceModel(
                              d.service_time[0], d.service_time[1],
                              d.sojourn_mean[0], d.sojourn_mean[1],
                              master.fork(0x5E41 + id.value())));
    core.share = plan.at(id).cpu;
    if (d.kind == graph::PeKind::kEgress) core.egress_index = egress++;
    // A blocked PE completes nothing, so the hold never outgrows one
    // completion: at most ⌊selectivity⌋ + 1 copies per downstream slot (the
    // credit carried in is below 1).
    core.held = decltype(core.held)(
        (static_cast<std::size_t>(std::floor(d.selectivity)) + 1) *
        std::max<std::size_t>(1, g.downstream(id).size()));
  }
}

/// Whether a delivery into `pe` at `t` is lost to an injected fault: its
/// node is down, or a drop burst draws it. False when `injector` is null.
[[nodiscard]] bool delivery_lost(fault::FaultInjector* injector,
                                 const graph::ProcessingGraph& g, PeId pe,
                                 Seconds t);

/// Number of egress PEs: the length of a report's per-egress outputs.
[[nodiscard]] std::size_t egress_count(const graph::ProcessingGraph& g);

/// Optional workload hook: builds a stream's arrival process from the
/// per-stream generator. Null uses workload::make_arrival_process.
using ArrivalFactory = std::function<std::unique_ptr<workload::ArrivalProcess>(
    StreamId, const graph::StreamDescriptor&, Rng)>;

/// One ingress PE's source.
struct Source {
  PeId pe;
  std::unique_ptr<workload::ArrivalProcess> process;
  /// Virtual time of the next arrival, for the substrates that poll.
  Seconds next_arrival = 0.0;
};

/// `factory(stream, desc, rng)`, or the descriptor's own process when the
/// factory is null. Never returns null.
[[nodiscard]] std::unique_ptr<workload::ArrivalProcess> make_process(
    const ArrivalFactory& factory, StreamId stream,
    const graph::StreamDescriptor& desc, Rng rng);

/// Forks every ingress PE's arrival stream from `master` in id order and
/// returns the sources of the PEs whose node `hosted` accepts (all when
/// null). Every stream is forked, hosted or not: fork() advances the
/// parent, so a partitioned substrate sees the same streams as a whole one.
[[nodiscard]] std::vector<Source> make_sources(
    const graph::ProcessingGraph& g, Rng& master,
    const ArrivalFactory& factory,
    const std::function<bool(NodeId)>& hosted = nullptr);

/// The span-sampling draw of the arrival path. Every SDO a source generates
/// draws once, before any fault or capacity check decides its fate, so the
/// sampled set is a pure function of (seed, source PE, arrival index). This
/// is the only rule the threaded runtime can keep: its batched push learns
/// acceptance only after the consumer already owns the SDO.
[[nodiscard]] inline std::int32_t sample_arrival(obs::SpanTracer* spans,
                                                 PeId pe, Seconds at) {
  return spans != nullptr ? spans->begin(pe, at) : -1;
}

/// One control tick of `controller` over `inputs`, timed into `timer`
/// (a disabled handle reads no clock). The result is valid until the
/// controller's next tick.
const std::vector<control::PeTickOutput>& tick(
    control::NodeController& controller, Seconds dt,
    const std::vector<control::PeTickInput>& inputs, obs::Timer timer);

/// The control-trace record of `controller`'s `i`-th local PE at a tick at
/// `now`. `cpu_share` is the share the PE was granted and `dropped_total`
/// its lifetime drops. A stall in `injector` (nullable) and an Eq. 8 view
/// older than `staleness` (when > 0) set the fault flags.
[[nodiscard]] obs::TickRecord tick_record(
    const control::NodeController& controller, std::size_t i, Seconds now,
    Seconds staleness, const control::PeTickInput& in,
    const control::PeTickOutput& out, double cpu_share,
    std::uint64_t dropped_total, const fault::FaultInjector* injector);

}  // namespace aces::pe
