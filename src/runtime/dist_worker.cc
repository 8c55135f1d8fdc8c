// Segment-stepped worker engine. Determinism rules (each one is load-
// bearing for the cross-transport byte-identity guarantee — see
// docs/architecture.md):
//
//  * Virtual time advances in quanta q = dt / substeps. The coordinator
//    releases a segment of quanta at a time (StepGo) and hears back once
//    its last has run (StepDone); nothing is paced by the wall clock except
//    heartbeats.
//  * Every *cross-node* effect takes exactly one quantum, whether or not
//    the two nodes share a worker: SDO emissions, advert refreshes and
//    Lock-Step congestion are buffered and applied at the next quantum.
//    During quantum k the worker sorts what it publishes into one batch per
//    rank, its own included: the deliveries to that rank's nodes and the
//    adverts and congested PEs one of that rank's PEs reads. After k it
//    trades batches with every live peer directly (exchange_in_order, which
//    cannot deadlock), keeps its own as the loopback, and runs k+1 only
//    once every live peer's batch for k is in. Same-node sends are direct,
//    as in the threaded runtime.
//  * Inbound cross-node deliveries are applied in src_node order, whatever
//    the partition: the batches in rank order, the loopback at this
//    worker's own rank. Ranks own ascending node ranges, and every worker
//    steps its nodes in id order, so each batch is already sorted by
//    source node.
//  * A peer with no link (dead, or refused for a malformed batch) still
//    gets a batch each quantum, and the newest one is kept: the next StepGo
//    either rejoins that peer, which then receives it as the batch of the
//    quantum before its first, or drops it. Replaced and dropped batches
//    are counted in the StepDone, exactly as a relay through the
//    coordinator would have dropped them.
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
/// A worker waiting on a peer looks at its coordinator link this often:
/// the coordinator says nothing between a StepGo and its StepDone, so a
/// frame or a close there means this worker was given up.
constexpr int kPeerSliceMs = 20;
/// Budget for connecting to a live rank's peer listener, which exists
/// before its address is handed out.
constexpr int kConnectTimeoutMs = 2000;

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

/// Whether the PEs `pe_of` projects out of `items` strictly increase.
template <class Items, class Proj = std::identity>
bool strictly_ascending(const Items& items, Proj pe_of = {}) {
  return std::ranges::adjacent_find(items, std::greater_equal<>{}, pe_of) ==
         items.end();
}

void clear(wire::PeerBatch& batch) {
  batch.deliveries.clear();
  batch.spans.clear();
  batch.adverts.clear();
  batch.congested_pes.clear();
}

/// Connects to the peer listener of `peer` at `address` and names this
/// worker, `rank`, on the new link; null if it cannot.
std::unique_ptr<transport::Endpoint> open_link(const PeerLinks& links,
                                               std::uint32_t rank,
                                               std::uint32_t peer,
                                               const std::string& address) {
  std::string error;
  std::unique_ptr<transport::Endpoint> link =
      transport::connect(links.kind, address, kConnectTimeoutMs, &error);
  if (link == nullptr) return nullptr;
  if (links.wrap) link = links.wrap(peer, std::move(link));
  if (!link->send(wire::encode(wire::Hello{rank, {}}))) return nullptr;
  return link;
}

class WorkerEngine {
 public:
  /// `links` holds, by rank, the links this worker opened to the live ranks
  /// its Config lists; `listener` accepts the rest.
  WorkerEngine(const wire::Config& cfg, transport::Endpoint& ep,
               std::unique_ptr<transport::Listener> listener,
               std::vector<std::unique_ptr<transport::Endpoint>> links,
               PeerLinks peer_links)
      : cfg_(cfg),
        ep_(ep),
        listener_(std::move(listener)),
        peer_links_(std::move(peer_links)),
        graph_(graph::topology_from_string(cfg.topology)),
        collector_(cfg.warmup, pe::egress_count(graph_)),
        next_quantum_(cfg.start_quantum) {
    graph_.validate();
    ACES_CHECK_MSG(cfg.substeps > 0, "substeps must be positive");
    ACES_CHECK_MSG(cfg.dt > 0.0, "dt must be positive");
    ACES_CHECK_MSG(cfg.rank < cfg.num_workers, "rank outside the shard count");
    ACES_CHECK_MSG(links.size() == cfg.num_workers, "one link slot per rank");
    q_ = cfg.dt / cfg.substeps;

    controller_config_ = cfg.controller;
    lockstep_ = controller_config_.policy == control::FlowPolicy::kLockStep;
    peers_.resize(cfg.num_workers);
    dropped_.resize(cfg.num_workers);
    for (std::uint32_t rank = 0; rank < cfg.num_workers; ++rank) {
      peers_[rank].link = std::move(links[rank]);
      dropped_[rank].rank = rank;
    }

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

    // Which rank hosts each PE, and who reads each hosted PE's adverts and
    // congestion: the ranks hosting one of its upstream PEs, this one
    // included.
    rank_of_pe_.reserve(graph_.pe_count());
    for (const PeId id : graph_.all_pes()) {
      rank_of_pe_.push_back(owner_of_node(graph_.node_count(), cfg.num_workers,
                                          graph_.pe(id).node.value()));
    }
    readers_.resize(graph_.pe_count());
    for (const PeId id : graph_.all_pes()) {
      if (!owns_node(graph_.pe(id).node.value())) continue;
      hosted_pes_.push_back(id);
      std::vector<std::uint32_t>& ranks = readers_[id.value()];
      for (const PeId up : graph_.upstream(id)) {
        ranks.push_back(rank_of_pe_[up.value()]);
      }
      std::ranges::sort(ranks);
      ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
    }

    for (std::size_t n = node_begin_; n < node_end_; ++n) {
      controllers_.emplace_back(graph_, NodeId(static_cast<NodeId::value_type>(n)),
                                plan, controller_config_);
    }
    was_down_.assign(node_end_ - node_begin_, false);
    was_stalled_.assign(graph_.pe_count(), false);

    // Telemetry, only when the coordinator aggregates it: a worker without
    // the Config's telemetry bit ships nothing, so it records nothing
    // either. The counters are counted in counts_ and added to the
    // registry once per quantum, and every name counts a *graph* property
    // — cross_node is decided by node placement, never by the partition —
    // so the coordinator's cross-shard sums match a single-process run
    // exactly. The span tracer is optional and samples by (seed, source
    // PE, arrival index) — the PE kernel's rule in every substrate — so
    // traced runs stay bit-identical.
    telemetry_ = cfg.telemetry != 0;
    record_ticks_ = telemetry_ && cfg.record_trace != 0;
    ctr_arrived_ = counters_.counter("dist.sdo.arrived");
    ctr_processed_ = counters_.counter("dist.sdo.processed");
    ctr_emitted_ = counters_.counter("dist.sdo.emitted");
    ctr_dropped_ = counters_.counter("dist.sdo.dropped");
    ctr_cross_node_ = counters_.counter("dist.sdo.cross_node");
    gauge_quantum_ = counters_.gauge("dist.quantum");
    // Tick timing is opt-in, like `aces simulate --trace`: two clock reads
    // per tick are too dear for an untraced run.
    if (record_ticks_) {
      tick_timer_ = counters_.timer("controller_tick");
    }
    if (telemetry_ && cfg.span_sample > 0.0) {
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

  /// This worker's view of one rank, its own included.
  struct Peer {
    /// The link to the rank; null while there is none (dead, not yet
    /// joined, refused) and always for this worker's own rank.
    std::unique_ptr<transport::Endpoint> link;
    /// What the rank reads of the running quantum, filled as it runs. For
    /// a rank with no link it stays after the exchange as the kept batch.
    wire::PeerBatch out;
    /// The rank's batch for the last quantum, applied at this one. Its own
    /// rank's is the loopback: the last `out`, which never travels.
    wire::PeerBatch in;
  };

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
    // aces-lint: allow(raw-condvar) only condition_variable_any has the stop_token waits
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
          if (!go.has_value() || !go->deliveries.empty() ||
              !go->adverts.empty()) {
            return 1;
          }
          if ((go->flags & wire::kStepGoFinal) != 0) {
            std::vector<std::uint8_t> out;
            append_telemetry(out, go->quantum, /*epoch=*/true);
            append(out, wire::encode(make_report()));
            if (!ep_.send(std::move(out))) return 1;
            break;  // stay in the loop until Shutdown
          }
          if (!run_segment(*go)) return 1;
          break;
        }
        case wire::FrameType::kShutdown:
          return 0;
        default:
          return 1;  // protocol violation
      }
    }
  }

  // ---- one segment of quanta -----------------------------------------

  /// Runs the quanta `go` releases, trading batches with the peers after
  /// each, and answers with a StepDone after the last. Each quantum's
  /// telemetry frames go out at its end, with the StepDone in one send at
  /// the segment's end. False when the coordinator is gone or broke the
  /// protocol.
  bool run_segment(const wire::StepGo& go) {
    if (go.count == 0 || go.quantum != next_quantum_) return false;
    if (!join_peers(go)) return false;
    const std::uint64_t end = go.quantum + go.count;
    for (std::uint64_t k = go.quantum; k < end; ++k) {
      if (k > go.quantum) drop_kept();
      run_quantum(k, k == go.quantum ? &go : nullptr);
      close_batches(k);
      if (!exchange(k)) return false;
      if (telemetry_) flush_counts(k);
      // One send per quantum: the telemetry frames and the segment's
      // StepDone go out together, so the coordinator wakes once.
      std::vector<std::uint8_t> out;
      append_telemetry(out, k, (k + 1) % cfg_.substeps == 0);
      if (k + 1 == end) append(out, encode_step_done(k));
      if (!out.empty() && !ep_.send(std::move(out))) return false;
    }
    next_quantum_ = end;
    return true;
  }

  /// Which ranks host the `nodes` of a StepGo's membership list.
  [[nodiscard]] std::vector<bool> ranks_of(
      const std::vector<std::uint32_t>& nodes) const {
    std::vector<bool> ranks(peers_.size(), false);
    for (const std::uint32_t node : nodes) {
      if (node < graph_.node_count()) {
        ranks[owner_of_node(graph_.node_count(), cfg_.num_workers, node)] =
            true;
      }
    }
    return ranks;
  }

  /// Brings the links up to the membership `go` starts its segment with:
  /// drops the links to dead ranks, accepts the links of the ranks that
  /// join now (every higher rank at start-up, and each rank the StepGo
  /// respawns), hands a respawned rank the batch kept for it, and, in a
  /// respawned worker, receives those batches as the ones to apply first.
  /// Every other kept batch is dropped; the last StepDone reported it, and
  /// the coordinator counted it.
  bool join_peers(const wire::StepGo& go) {
    const std::uint32_t me = cfg_.rank;
    const std::vector<bool> down = ranks_of(go.down_nodes);
    const std::vector<bool> up = ranks_of(go.up_nodes);
    const bool start_up = go.quantum == 0;
    std::vector<bool> joining(peers_.size(), false);
    for (std::uint32_t rank = 0; rank < peers_.size(); ++rank) {
      if (rank == me) continue;
      if (down[rank]) peers_[rank].link.reset();
      joining[rank] = peers_[rank].link == nullptr &&
                      (up[rank] || (start_up && rank > me));
    }
    if (!accept_links(joining)) return false;
    for (std::uint32_t rank = 0; rank < peers_.size(); ++rank) {
      Peer& peer = peers_[rank];
      if (rank == me) continue;
      if (up[rank] && !up[me] && peer.link != nullptr &&
          !peer.link->send(wire::encode(peer.out))) {
        peer.link.reset();
      }
      clear(peer.out);
    }
    if (up[me]) {
      for (std::uint32_t rank = 0; rank < peers_.size(); ++rank) {
        if (rank != me && !up[rank]) receive_batch(rank, go.quantum - 1);
      }
    }
    return !coordinator_gone_;
  }

  /// Accepts a link from every rank `joining` names, each identified by
  /// the Hello it sends first. A rank that never links stays unlinked.
  bool accept_links(std::vector<bool> joining) {
    std::size_t left = std::ranges::count(joining, true);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(kCoordinatorTimeoutMs);
    while (left > 0 && std::chrono::steady_clock::now() < deadline) {
      std::unique_ptr<transport::Endpoint> link =
          listener_->accept(kPeerSliceMs);
      if (link == nullptr) {
        if (!coordinator_silent()) return false;
        continue;
      }
      wire::Frame frame;
      if (recv_from_peer(*link, &frame) != transport::RecvStatus::kOk ||
          frame.type != wire::FrameType::kHello) {
        if (coordinator_gone_) return false;
        continue;
      }
      const auto hello = wire::decode_hello(frame.payload);
      if (!hello.has_value() || hello->rank >= joining.size() ||
          !joining[hello->rank]) {
        continue;
      }
      joining[hello->rank] = false;
      --left;
      if (peer_links_.wrap) {
        link = peer_links_.wrap(hello->rank, std::move(link));
      }
      peers_[hello->rank].link = std::move(link);
    }
    return true;
  }

  /// True while the coordinator link is silent. Between a StepGo and its
  /// StepDone the coordinator sends nothing, so any frame or a close means
  /// it has given this worker up: the worker stops waiting on its peers
  /// and exits.
  bool coordinator_silent() {
    wire::Frame frame;
    if (ep_.recv(&frame, 0) == transport::RecvStatus::kTimeout) return true;
    coordinator_gone_ = true;
    return false;
  }

  /// Receives one frame from a peer `link`, waiting as long as the
  /// coordinator stays silent. A frame still arriving when a wait slice
  /// ends is waited for, not refused.
  transport::RecvStatus recv_from_peer(transport::Endpoint& link,
                                       wire::Frame* frame) {
    for (;;) {
      const transport::RecvStatus status = link.recv(frame, kPeerSliceMs);
      const bool late = status == transport::RecvStatus::kTimeout ||
                        (status == transport::RecvStatus::kError &&
                         link.last_error() == transport::kTimedOutMidFrame);
      if (!late) return status;
      if (!coordinator_silent()) return transport::RecvStatus::kClosed;
    }
  }

  /// Drops the batches kept for unlinked peers since the last quantum, now
  /// that this one replaces them, counting their deliveries and spans.
  void drop_kept() {
    for (std::uint32_t rank = 0; rank < peers_.size(); ++rank) {
      Peer& peer = peers_[rank];
      if (rank == cfg_.rank || peer.link != nullptr) continue;
      dropped_[rank].deliveries += peer.out.deliveries.size();
      dropped_[rank].spans += peer.out.spans.size();
      clear(peer.out);
    }
  }

  /// Trades quantum `k`'s batches: the loopback becomes this worker's own
  /// inbound batch, and every linked peer gets its batch and sends one
  /// back. A peer whose link fails loses the link and keeps its batch.
  bool exchange(std::uint64_t k) {
    Peer& self = peers_[cfg_.rank];
    std::swap(self.in, self.out);  // self.in was cleared when applied
    exchange_in_order(
        cfg_.rank, static_cast<std::uint32_t>(peers_.size()),
        [&](std::uint32_t rank) {
          Peer& peer = peers_[rank];
          if (peer.link == nullptr) return false;
          if (peer.link->send(wire::encode(peer.out))) return true;
          peer.link.reset();
          return false;
        },
        [&](std::uint32_t rank) { return receive_batch(rank, k); });
    for (std::uint32_t rank = 0; rank < peers_.size(); ++rank) {
      if (peers_[rank].link != nullptr) clear(peers_[rank].out);
    }
    return !coordinator_gone_;
  }

  /// Receives the batch of `quantum` from the peer `rank` into its `in`.
  /// One this worker cannot act on — not a PeerBatch of that quantum, or an
  /// index out of range — names the peer in the next StepDone. Any failure
  /// closes the link.
  bool receive_batch(std::uint32_t rank, std::uint64_t quantum) {
    Peer& peer = peers_[rank];
    if (peer.link == nullptr) return false;
    wire::Frame frame;
    if (recv_from_peer(*peer.link, &frame) == transport::RecvStatus::kOk) {
      std::optional<wire::PeerBatch> batch;
      if (frame.type == wire::FrameType::kPeerBatch) {
        batch = wire::decode_peer_batch(frame.payload);
      }
      if (batch.has_value() && batch->quantum == quantum && usable(*batch)) {
        peer.in = std::move(*batch);
        return true;
      }
      rejected_.push_back(rank);
    }
    peer.link.reset();
    return false;
  }

  /// Whether every index in a peer's batch is one this worker may act on:
  /// deliveries to PEs it hosts, span handoffs that name the batch's own
  /// deliveries in increasing order, and adverts and congested PEs of PEs
  /// in the graph, in strictly increasing PE order.
  [[nodiscard]] bool usable(const wire::PeerBatch& batch) const {
    const auto pe_ok = [this](std::uint32_t pe) { return pe < pes_.size(); };
    const auto hosted = [&](const wire::SdoDelivery& d) {
      return pe_ok(d.dest_pe) &&
             owns_node(graph_.pe(PeId(d.dest_pe)).node.value());
    };
    std::uint64_t next = 0;  // least index the next handoff may name
    for (const wire::SpanHandoff& h : batch.spans) {
      if (h.delivery < next || h.delivery >= batch.deliveries.size()) {
        return false;
      }
      next = std::uint64_t{h.delivery} + 1;
    }
    return std::ranges::all_of(batch.deliveries, hosted) &&
           std::ranges::all_of(batch.adverts, pe_ok, &wire::Advert::pe) &&
           std::ranges::all_of(batch.congested_pes, pe_ok) &&
           strictly_ascending(batch.adverts, &wire::Advert::pe) &&
           strictly_ascending(batch.congested_pes);
  }

  // ---- one quantum ---------------------------------------------------

  /// Runs quantum `k`; `go` is the StepGo when `k` starts its segment.
  void run_quantum(std::uint64_t k, const wire::StepGo* go) {
    const Seconds vnow = static_cast<double>(k) * q_;
    const Seconds vend = static_cast<double>(k + 1) * q_;

    // Membership first: a dead node's mailboxes clamp to r_max = 0 and an
    // infinitely stale timestamp, so both the staleness rule and the Eq. 8
    // max stop routing flow at it.
    if (go != nullptr) {
      for (const std::uint32_t node : go->down_nodes) {
        for (PeId id : graph_.pes_on_node(NodeId(node))) {
          visible_advert_[id.value()] = 0.0;
          visible_advert_time_[id.value()] = kDeadAdvertTime;
        }
      }
      for (const std::uint32_t node : go->up_nodes) {
        for (PeId id : graph_.pes_on_node(NodeId(node))) {
          visible_advert_[id.value()] = kInf;
          visible_advert_time_[id.value()] = vnow;
        }
      }
    }
    // Advert refreshes from quantum k-1 (uniformly one quantum stale), for
    // the downstreams of this worker's PEs: the only adverts it reads. Each
    // PE lives on one rank and advertises at most once a quantum, so no
    // two batches name one PE and their order does not matter.
    std::fill(congested_.begin(), congested_.end(), 0);
    for (const Peer& peer : peers_) {
      for (const wire::Advert& a : peer.in.adverts) apply_advert(a);
      for (const std::uint32_t pe : peer.in.congested_pes) congested_[pe] = 1;
    }

    // Modeled crash windows (the `crash` clause acted out by this
    // substrate, distinct from real prockills), before the deliveries: a
    // crash loses what it holds and everything addressed to it from here
    // on, and a restart admits this quantum's deliveries into empty queues.
    if (injector_ != nullptr) handle_crash_transitions(vnow);

    // Inbound cross-node deliveries in src_node order, each with the span
    // riding it, if any: the batches in rank order, the loopback at this
    // worker's rank. Fault draws for a delivery happen here, on the worker
    // hosting the target — the per-PE draw sequence is partition-invariant.
    for (Peer& peer : peers_) {
      apply_deliveries(peer.in, vnow);
      clear(peer.in);
    }
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

  /// Applies the deliveries of `batch` at `vnow`, each with the span that
  /// names it. The handoffs are in increasing delivery order (usable()).
  void apply_deliveries(const wire::PeerBatch& batch, Seconds vnow) {
    std::size_t next_span = 0;
    for (std::size_t i = 0; i < batch.deliveries.size(); ++i) {
      const bool has_span = next_span < batch.spans.size() &&
                            batch.spans[next_span].delivery == i;
      apply_delivery(batch.deliveries[i],
                     has_span ? &batch.spans[next_span++].span : nullptr,
                     vnow);
    }
  }

  /// Applies one inbound delivery, to a PE this worker hosts, at `vnow`;
  /// `prefix` is the in-flight span that rode it, or null.
  void apply_delivery(const wire::SdoDelivery& d, const obs::SdoSpan* prefix,
                      Seconds vnow) {
    std::int32_t span = -1;
    if (tracer_ != nullptr && prefix != nullptr) {
      span = tracer_->adopt(*prefix);
      tracer_->append_wire_hop(span, PeId(d.dest_pe), obs::HopKind::kWireRecv,
                               vnow);
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
      if (record_ticks_) {
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
      publish(advert.pe, advert, &wire::PeerBatch::adverts);
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
      // worker: the batch for the destination's rank, the loopback
      // included, is applied there at the next quantum.
      ++counts_.cross_node;
      wire::PeerBatch& box = peers_[rank_of_pe_[target]].out;
      wire::SdoDelivery d;
      d.dest_pe = static_cast<std::uint32_t>(target);
      d.src_node = graph_.pe(pe_id).node.value();
      d.birth = sdo.birth;
      if (tracer_ != nullptr && sdo.span >= 0) {
        // The span crosses with its SDO, traded or looped back alike:
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

  // ---- batches and frames -------------------------------------------

  /// Queues `item`, published by hosted PE `pe`, in the `list` of the
  /// batch of every rank that reads it.
  template <class T>
  void publish(std::uint32_t pe, const T& item,
               std::vector<T> wire::PeerBatch::*list) {
    for (const std::uint32_t rank : readers_[pe]) {
      (peers_[rank].out.*list).push_back(item);
    }
  }

  /// Closes quantum `quantum`'s batches: the spans leave with them, the
  /// adverts of those that travel go in PE order, and the Lock-Step
  /// congested PEs are added.
  void close_batches(std::uint64_t quantum) {
    // The send hop: the spans leave at quantum end, the loopback's and a
    // kept batch's as if they did. The hop repeats the last-stamped PE (the
    // serialization site).
    const Seconds ship_time = static_cast<double>(quantum + 1) * q_;
    for (std::uint32_t rank = 0; rank < peers_.size(); ++rank) {
      Peer& peer = peers_[rank];
      for (wire::SpanHandoff& h : peer.out.spans) {
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
      // A batch that travels lists its adverts in PE order, which its
      // receiver checks; the loopback is applied by PE index, unchecked.
      // Each PE advertises at most once a quantum, so the order is total.
      if (rank != cfg_.rank) {
        std::ranges::sort(peer.out.adverts, {}, &wire::Advert::pe);
      }
      peer.out.quantum = quantum;
    }
    if (lockstep_) {
      for (const PeId id : hosted_pes_) {  // ascending
        const PeState& pe = pes_[id.value()];
        if (pe.full() || !pe.inbound.empty()) {
          publish(id.value(), id.value(), &wire::PeerBatch::congested_pes);
        }
      }
    }
  }

  /// Encodes the StepDone closing the segment at `quantum`: the batches
  /// dropped for unlinked peers during the segment, the one kept for each,
  /// and the peers whose batch was refused.
  std::vector<std::uint8_t> encode_step_done(std::uint64_t quantum) {
    wire::StepDone done;
    done.quantum = quantum;
    for (std::uint32_t rank = 0; rank < peers_.size(); ++rank) {
      wire::Undelivered& dropped = dropped_[rank];
      if (dropped.deliveries > 0) done.dropped.push_back(dropped);
      dropped.deliveries = dropped.spans = 0;
      const Peer& peer = peers_[rank];
      if (rank != cfg_.rank && peer.link == nullptr &&
          !peer.out.deliveries.empty()) {
        done.kept.push_back(
            {rank, peer.out.deliveries.size(), peer.out.spans.size()});
      }
    }
    done.rejected = std::move(rejected_);
    rejected_.clear();
    return wire::encode(done);
  }

  /// Adds quantum `k`'s data-path counts to the registry's counters.
  void flush_counts(std::uint64_t k) {
    gauge_quantum_.set(static_cast<double>(k));
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
  /// any. None without the telemetry bit.
  void append_telemetry(std::vector<std::uint8_t>& out, std::uint64_t quantum,
                        bool epoch) {
    if (!telemetry_) return;
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
  /// The coordinator link.
  transport::Endpoint& ep_;
  /// Where the ranks that join after this worker link to it.
  std::unique_ptr<transport::Listener> listener_;
  PeerLinks peer_links_;
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
  /// By PeId, the rank hosting the PE.
  std::vector<std::uint32_t> rank_of_pe_;
  /// Per hosted PE, ascending: the ranks that read its adverts and
  /// congestion, this one included.
  std::vector<std::vector<std::uint32_t>> readers_;
  /// By rank: the links, batches and loopback (Peer).
  std::vector<Peer> peers_;
  /// The first quantum of the next segment.
  std::uint64_t next_quantum_ = 0;
  /// By rank, the deliveries and spans of the batches for an unlinked
  /// peer that a newer one replaced this segment.
  std::vector<wire::Undelivered> dropped_;
  /// The peers whose batch was refused this segment.
  std::vector<std::uint32_t> rejected_;
  /// Set when the coordinator link spoke or closed while this worker waited
  /// on a peer: the worker exits.
  bool coordinator_gone_ = false;
  /// node_tick's inputs, reused by every tick.
  std::vector<control::PeTickInput> tick_inputs_;
  Counts counts_;
  std::uint64_t events_executed_ = 0;

  // ---- telemetry (the distributed observability plane) ---------------
  /// The Config's telemetry bit: the coordinator aggregates what this
  /// worker ships. Without it nothing below is filled.
  bool telemetry_ = false;
  /// Buffer and time control ticks for the MetricsReport: telemetry and
  /// the Config's record_trace.
  bool record_ticks_ = false;
  obs::Registry counters_;
  obs::Counter ctr_arrived_;
  obs::Counter ctr_processed_;
  obs::Counter ctr_emitted_;
  obs::Counter ctr_dropped_;
  obs::Counter ctr_cross_node_;
  obs::Gauge gauge_quantum_;
  obs::Timer tick_timer_;
  std::unique_ptr<obs::SpanTracer> tracer_;
  /// Control-tick records since the last MetricsReport (record_ticks_
  /// only).
  std::vector<obs::TickRecord> trace_buffer_;
  /// Counter values as of the last MetricsReport, for delta encoding.
  std::map<std::string, std::uint64_t> last_sent_counters_;
  /// The newest fault dump taken this quantum, awaiting shipping.
  std::optional<obs::FlightDump> pending_dump_;
};

}  // namespace

int worker_entry(transport::Endpoint& endpoint, std::uint32_t rank,
                 const PeerLinks& peers) {
  std::string error;
  std::unique_ptr<transport::Listener> listener = transport::listen(
      peers.kind,
      peers.kind == transport::TransportKind::kUds
          ? peer_listener_path(peers.coordinator_path, rank)
          : std::string(),
      &error);
  if (listener == nullptr) {
    std::fprintf(stderr, "dist-worker rank %u: %s\n", rank, error.c_str());
    return 1;
  }
  if (!endpoint.send(wire::encode(wire::Hello{rank, listener->address()}))) {
    return 1;
  }
  wire::Frame frame;
  if (endpoint.recv(&frame, kCoordinatorTimeoutMs) !=
          transport::RecvStatus::kOk ||
      frame.type != wire::FrameType::kConfig) {
    return 1;
  }
  const auto cfg = wire::decode_config(frame.payload);
  if (!cfg.has_value() || cfg->peers.size() != cfg->num_workers) return 1;
  // Link to every live rank before the second Hello tells the coordinator
  // so: a kill that lands after it leaves the link to be found closed,
  // never a peer waiting on a rank that will not connect.
  std::vector<std::unique_ptr<transport::Endpoint>> links(cfg->num_workers);
  for (std::uint32_t peer = 0; peer < cfg->num_workers; ++peer) {
    if (peer != rank && !cfg->peers[peer].empty()) {
      links[peer] = open_link(peers, rank, peer, cfg->peers[peer]);
    }
  }
  if (!endpoint.send(wire::encode(wire::Hello{rank, {}}))) return 1;
  // The in-process transport runs workers as coordinator threads, so a
  // CheckFailure (or any other exception) must not escape and terminate the
  // whole coordinator — turn it into a dead endpoint the coordinator
  // detects like any other worker death.
  try {
    WorkerEngine engine(*cfg, endpoint, std::move(listener), std::move(links),
                        peers);
    return engine.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dist-worker rank %u: %s\n", rank, e.what());
    endpoint.close();
    return 1;
  }
}

int maybe_worker(int argc, char** argv, PeerWrap wrap) {
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
  PeerLinks peers;
  peers.wrap = std::move(wrap);
  if (!uds_path.empty()) {
    ep = transport::connect_uds(uds_path, 10000, &error);
    peers.kind = transport::TransportKind::kUds;
    peers.coordinator_path = uds_path;
  } else if (tcp_port > 0) {
    ep = transport::connect_tcp(static_cast<std::uint16_t>(tcp_port), 10000,
                                &error);
    peers.kind = transport::TransportKind::kTcp;
  }
  if (ep == nullptr) return 1;
  return worker_entry(*ep, rank, peers);
}

}  // namespace aces::runtime::dist
