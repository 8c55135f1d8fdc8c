#include "runtime/dist_coordinator.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/atomic_shim.h"
#include "common/check.h"
#include "fault/fault_injector.h"
#include "fault/fault_spec.h"
#include "graph/serialization.h"
#include "metrics/report_merge.h"
#include "obs/cluster_aggregate.h"
#include "runtime/dist_worker.h"
#include "runtime/transport/inproc.h"
#include "runtime/transport/uds.h"
#include "runtime/wire.h"

namespace aces::runtime::dist {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Coordinator-side recv slice while waiting on a barrier: short enough to
/// round-robin several endpoints, long enough not to spin.
constexpr int kRecvSliceMs = 20;
/// Setup handshake budget (spawn → connect → Hello).
constexpr int kHandshakeTimeoutMs = 10000;
/// Wall-clock grace for a worker process to exit after Shutdown before it
/// is declared an orphan and SIGKILLed.
constexpr double kShutdownGraceSeconds = 5.0;

double seconds_since(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

/// One worker shard as the coordinator sees it.
struct WorkerSlot {
  std::unique_ptr<transport::Endpoint> ep;
  std::thread thread;  ///< in-process transport only
  pid_t pid = -1;      ///< socket transports only
  bool alive = false;
  /// Respawned at the current barrier: the next StepGo carries its nodes
  /// in up_nodes.
  bool rejoined = false;
  SteadyClock::time_point last_heard{};
  /// Wall time of the SIGKILL this coordinator issued, for the
  /// detection-latency accounting; empty for workers that died uninvited.
  std::optional<SteadyClock::time_point> killed_at;
};

/// A prockill clause resolved to barrier indices and a worker rank.
struct ScheduledKill {
  std::uint64_t quantum = 0;
  std::uint64_t restart_quantum = 0;
  bool restarts = false;
  std::uint32_t rank = 0;
};

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  ACES_CHECK_MSG(n > 0, "readlink(/proc/self/exe) failed");
  return std::string(buf, static_cast<std::size_t>(n));
}

class Coordinator {
 public:
  Coordinator(const graph::ProcessingGraph& g, const opt::AllocationPlan& plan,
              const DistOptions& options, DistStats* stats)
      : g_(g),
        options_(options),
        stats_(stats),
        crash_windows_(options.faults, options.seed, g.pe_count()) {
    ACES_CHECK_MSG(options.dt > 0.0, "dt must be positive");
    ACES_CHECK_MSG(options.substeps > 0, "substeps must be positive");
    ACES_CHECK_MSG(options.duration > 0.0, "duration must be positive");
    ACES_CHECK_MSG(options.heartbeat_timeout > options.heartbeat_interval,
                   "heartbeat_timeout must exceed heartbeat_interval");
    q_ = options.dt / options.substeps;
    total_quanta_ = static_cast<std::uint64_t>(
                        std::llround(options.duration / options.dt)) *
                    options.substeps;
    workers_n_ = std::max<std::uint32_t>(
        1, std::min<std::uint32_t>(
               options.processes,
               static_cast<std::uint32_t>(g.node_count())));
    workers_.resize(workers_n_);
    go_sent_.resize(workers_n_);

    cpu_.assign(g.pe_count(), 0.0);
    for (std::size_t i = 0; i < plan.pe.size() && i < cpu_.size(); ++i) {
      cpu_[i] = plan.pe[i].cpu;
    }

    base_config_.num_workers = workers_n_;
    base_config_.substeps = options.substeps;
    base_config_.seed = options.seed;
    base_config_.duration = options.duration;
    base_config_.warmup = options.warmup;
    base_config_.dt = options.dt;
    base_config_.policy = static_cast<std::uint8_t>(options.controller.policy);
    base_config_.staleness = options.controller.advert_staleness_timeout;
    base_config_.channel_capacity =
        static_cast<std::uint32_t>(options.channel_capacity);
    base_config_.heartbeat_interval = options.heartbeat_interval;
    base_config_.span_sample = options.span_sample;
    base_config_.record_trace = options.record_trace ? 1 : 0;
    base_config_.topology = graph::to_string(g);
    base_config_.faults =
        options.faults.empty() ? std::string() : fault::to_string(options.faults);

    for (const fault::ProcKill& pk : options.faults.proc_kills) {
      ScheduledKill sk;
      sk.rank = owner_of_node(g.node_count(), workers_n_, pk.node.value());
      sk.quantum = quantum_of(pk.at);
      if (pk.restart_at >= 0.0) {
        sk.restarts = true;
        sk.restart_quantum =
            std::max(quantum_of(pk.restart_at), sk.quantum + 1);
      }
      kills_.push_back(sk);
    }
  }

  ~Coordinator() {
    // Last-resort cleanup on an exception path: never leave orphans.
    for (WorkerSlot& w : workers_) {
      if (w.ep != nullptr) w.ep->close();
      if (w.pid > 0) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, nullptr, 0);
        w.pid = -1;
      }
      if (w.thread.joinable()) w.thread.join();
    }
  }

  metrics::RunReport run() {
    if (uses_sockets()) open_listener();
    for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
      spawn_worker(rank, 0);
    }
    for (std::uint64_t k = 0; k < total_quanta_; ++k) {
      handle_restarts(k);
      execute_kills(k);
      broadcast_step_go(k, false);
      collect_step_dones(k);
    }
    broadcast_step_go(total_quanta_, true);
    std::vector<metrics::RunReport> partials = collect_reports();
    shutdown_all();
    metrics::RunReport merged = metrics::merge_reports(partials);
    merged.reoptimizations = reoptimizations_;
    if (stats_ != nullptr) stats_->reoptimizations = reoptimizations_;
    return merged;
  }

 private:
  [[nodiscard]] bool uses_sockets() const {
    return options_.transport != transport::TransportKind::kInProc;
  }

  [[nodiscard]] obs::ClusterAggregator* agg() const {
    return options_.aggregator;
  }

  /// Sends one complete frame (8-byte header + payload) to `rank`, counted
  /// in the shard's frames and bytes out. A send into a dead endpoint may
  /// fail; the death is detected while receiving, not here.
  bool send(std::uint32_t rank, const std::vector<std::uint8_t>& bytes) {
    if (agg() != nullptr) agg()->record_frame_sent(rank, bytes.size());
    return workers_[rank].ep->send(bytes);
  }

  /// Waits up to `timeout_ms` for the next frame from `rank` that the
  /// protocol acts on. Every frame is counted in the shard's frames and
  /// bytes in and refreshes its liveness; heartbeats and telemetry are
  /// absorbed here and never returned. A telemetry frame that fails to
  /// decode is a decode reject, returned as kError like any other protocol
  /// violation.
  transport::RecvStatus receive(std::uint32_t rank, int timeout_ms,
                                wire::Frame* frame) {
    WorkerSlot& w = workers_[rank];
    const SteadyClock::time_point deadline =
        SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
    do {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - SteadyClock::now());
      const transport::RecvStatus status =
          w.ep->recv(frame, std::max(0, static_cast<int>(left.count())));
      if (status != transport::RecvStatus::kOk) return status;
      w.last_heard = SteadyClock::now();
      if (agg() != nullptr) {
        agg()->record_frame_received(rank, 8 + frame->payload.size());
      }
      switch (frame->type) {
        case wire::FrameType::kHeartbeat:
          if (stats_ != nullptr) ++stats_->heartbeats_received;
          if (agg() != nullptr) agg()->record_heartbeat(rank);
          break;
        case wire::FrameType::kMetricsReport:
        case wire::FrameType::kFlightDump:
          if (!absorb_telemetry(rank, *frame)) {
            if (agg() != nullptr) agg()->record_decode_reject(rank);
            return transport::RecvStatus::kError;
          }
          break;
        default:
          return transport::RecvStatus::kOk;
      }
    } while (SteadyClock::now() < deadline);
    return transport::RecvStatus::kTimeout;
  }

  /// Decodes a MetricsReport or FlightDump frame and feeds it to the
  /// aggregator, if there is one (the frame is consumed either way;
  /// tolerance is the contract). False when the frame does not decode.
  bool absorb_telemetry(std::uint32_t rank, const wire::Frame& frame) {
    if (frame.type == wire::FrameType::kFlightDump) {
      auto dump = wire::decode_flight_dump(frame.payload);
      if (!dump.has_value()) return false;
      if (agg() != nullptr) agg()->absorb_flight_dump(rank, std::move(*dump));
      return true;
    }
    auto mr = wire::decode_metrics_report(frame.payload);
    if (!mr.has_value()) return false;
    if (agg() == nullptr) return true;
    agg()->note_quantum(rank, mr->quantum);
    std::vector<std::pair<std::string, std::uint64_t>> deltas;
    deltas.reserve(mr->counters.size());
    for (wire::MetricsCounter& c : mr->counters) {
      deltas.emplace_back(std::move(c.name), c.delta);
    }
    agg()->absorb_counters(rank, deltas);
    for (const wire::MetricsGauge& gz : mr->gauges) {
      agg()->absorb_gauge(rank, gz.name, gz.value);
    }
    for (const wire::PerfCell& p : mr->perf) {
      agg()->absorb_perf(rank, p.name, p.calls, p.ns);
    }
    for (obs::TickRecord& t : mr->trace) agg()->absorb_trace(rank, t);
    agg()->absorb_spans(rank, mr->spans);
    return true;
  }

  /// First barrier whose quantum covers virtual time `t`.
  [[nodiscard]] std::uint64_t quantum_of(double t) const {
    return static_cast<std::uint64_t>(
        std::llround(std::floor(t / q_ + 1e-9)));
  }

  void open_listener() {
    std::string error;
    if (options_.transport == transport::TransportKind::kUds) {
      std::string dir = options_.uds_dir;
      if (dir.empty()) {
        const char* tmp = std::getenv("TMPDIR");
        dir = tmp != nullptr && tmp[0] != '\0' ? tmp : "/tmp";
      }
      static Atomic<std::uint64_t> seq{0};
      const std::string path =
          dir + "/aces-dist-" + std::to_string(::getpid()) + "-" +
          std::to_string(seq.fetch_add(1)) + ".sock";
      listener_ = transport::SocketListener::listen_uds(path, &error);
    } else {
      listener_ = transport::SocketListener::listen_tcp(&error);
    }
    ACES_CHECK_MSG(listener_ != nullptr, "listen failed: " << error);
  }

  /// Spawns (or respawns) the worker for `rank`, joining at barrier
  /// `start_quantum`, and completes the Hello → Config handshake. Workers
  /// are spawned strictly one at a time, so the accepted connection always
  /// belongs to the rank just forked.
  void spawn_worker(std::uint32_t rank, std::uint64_t start_quantum) {
    WorkerSlot& w = workers_[rank];
    if (w.thread.joinable()) w.thread.join();
    if (w.pid > 0) {
      ::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
    }
    if (!uses_sockets()) {
      auto [mine, theirs] = transport::make_inproc_pair();
      w.ep = std::move(mine);
      std::shared_ptr<transport::Endpoint> worker_end = std::move(theirs);
      w.thread = std::thread(
          [worker_end, rank] { worker_entry(*worker_end, rank); });
    } else {
      const std::string exe = self_exe_path();
      std::vector<std::string> args = {exe, "dist-worker",
                                       "--rank=" + std::to_string(rank)};
      if (options_.transport == transport::TransportKind::kUds) {
        args.push_back("--uds=" + listener_->path());
      } else {
        args.push_back("--tcp-port=" + std::to_string(listener_->port()));
      }
      const pid_t pid = ::fork();
      ACES_CHECK_MSG(pid >= 0, "fork failed");
      if (pid == 0) {
        std::vector<char*> argv;
        argv.reserve(args.size() + 1);
        for (std::string& a : args) argv.push_back(a.data());
        argv.push_back(nullptr);
        ::execv(exe.c_str(), argv.data());
        ::_exit(127);  // exec failed; the accept() below will time out
      }
      w.pid = pid;
      w.ep = listener_->accept(kHandshakeTimeoutMs);
      ACES_CHECK_MSG(w.ep != nullptr,
                     "worker " << rank << " never connected (exe: " << exe
                               << ")");
    }

    wire::Frame frame;
    const auto status = receive(rank, kHandshakeTimeoutMs, &frame);
    ACES_CHECK_MSG(status == transport::RecvStatus::kOk &&
                       frame.type == wire::FrameType::kHello,
                   "worker " << rank << " did not say Hello");
    const auto hello = wire::decode_hello(frame.payload);
    ACES_CHECK_MSG(hello.has_value() && hello->rank == rank,
                   "worker Hello rank mismatch");

    wire::Config cfg = base_config_;
    cfg.rank = rank;
    cfg.start_quantum = start_quantum;
    cfg.plan_cpu = cpu_;
    ACES_CHECK_MSG(send(rank, wire::encode(cfg)),
                   "worker " << rank << " rejected Config");
    w.alive = true;
    w.last_heard = SteadyClock::now();
    w.killed_at.reset();
    if (agg() != nullptr) agg()->note_shard(rank);
  }

  void execute_kills(std::uint64_t k) {
    for (const ScheduledKill& sk : kills_) {
      if (sk.quantum != k || !workers_[sk.rank].alive) continue;
      WorkerSlot& w = workers_[sk.rank];
      w.killed_at = SteadyClock::now();
      if (stats_ != nullptr) ++stats_->workers_killed;
      if (w.pid > 0) {
        ::kill(w.pid, SIGKILL);
      } else {
        // In-process "SIGKILL": abruptly close the pipe; the worker thread
        // sees kClosed and dies, and this side's recv reports kClosed too.
        w.ep->close();
      }
      // Deliberately NOT marked dead here: death is detected for real
      // (connection reset / heartbeat silence) while collecting this
      // barrier, which is what the detection-latency stat measures.
    }
  }

  /// Respawns the ranks whose restart falls on barrier `k`. The crash
  /// windows are those of the last barrier's evaluation, k-1: barrier k's
  /// own are evaluated once its StepDones are in.
  void handle_restarts(std::uint64_t k) {
    for (const ScheduledKill& sk : kills_) {
      if (!sk.restarts || sk.restart_quantum != k) continue;
      if (workers_[sk.rank].alive) continue;  // kill never landed
      spawn_worker(sk.rank, k);
      workers_[sk.rank].rejoined = true;
      if (stats_ != nullptr) ++stats_->workers_restarted;
      update_membership(k - 1);
    }
  }

  void broadcast_step_go(std::uint64_t k, bool final_quantum) {
    // Route the relayed deliveries to their destination shards in absorb
    // order, each with the span riding it, re-indexed to the delivery's
    // position in the destination's StepGo. No sort is needed for a
    // partition-invariant receive order: StepDones are absorbed in rank
    // order, ranks own ascending node ranges, and each worker's outbox is
    // already in src_node order, so every destination receives its
    // deliveries in src_node order, a node's in generation order.
    std::vector<wire::StepGo> gos(workers_n_);
    std::size_t next_span = 0;
    for (std::size_t i = 0; i < pending_deliveries_.size(); ++i) {
      const wire::SdoDelivery& d = pending_deliveries_[i];
      const bool has_span = next_span < pending_spans_.size() &&
                            pending_spans_[next_span].delivery == i;
      const std::uint32_t dest_node = g_.pe(PeId(d.dest_pe)).node.value();
      const std::uint32_t rank =
          owner_of_node(g_.node_count(), workers_n_, dest_node);
      if (!workers_[rank].alive) {
        // The delivery dies with its shard; its span is counted too.
        if (stats_ != nullptr) ++stats_->relay_dropped;
        if (has_span && agg() != nullptr) agg()->record_relay_dropped(rank, 1);
      } else {
        wire::StepGo& go = gos[rank];
        if (has_span) {
          go.spans.push_back(
              {static_cast<std::uint32_t>(go.deliveries.size()),
               pending_spans_[next_span].span});
        }
        go.deliveries.push_back(d);
      }
      if (has_span) ++next_span;
    }
    std::stable_sort(pending_adverts_.begin(), pending_adverts_.end(),
                     [](const wire::Advert& a, const wire::Advert& b) {
                       return a.pe < b.pe;
                     });
    std::sort(pending_congested_.begin(), pending_congested_.end());
    pending_congested_.erase(
        std::unique(pending_congested_.begin(), pending_congested_.end()),
        pending_congested_.end());
    // Membership, in node order: every node of a dead rank (the full set,
    // an idempotent clamp) and the nodes of ranks respawned this barrier.
    std::vector<std::uint32_t> down_nodes;
    std::vector<std::uint32_t> up_nodes;
    for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
      WorkerSlot& w = workers_[rank];
      if (w.alive && !w.rejoined) continue;
      std::vector<std::uint32_t>& nodes = w.alive ? up_nodes : down_nodes;
      const auto [begin, end] = shard_range(rank, workers_n_, g_.node_count());
      for (std::size_t n = begin; n < end; ++n) {
        nodes.push_back(static_cast<std::uint32_t>(n));
      }
      w.rejoined = false;
    }

    for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
      if (!workers_[rank].alive) continue;
      wire::StepGo& go = gos[rank];
      go.quantum = k;
      go.flags = final_quantum ? wire::kStepGoFinal : 0;
      go.adverts = pending_adverts_;
      go.congested_pes = pending_congested_;
      go.down_nodes = down_nodes;
      go.up_nodes = up_nodes;
      go_sent_[rank] = SteadyClock::now();
      send(rank, wire::encode(go));
    }
    pending_deliveries_.clear();
    pending_spans_.clear();
    pending_adverts_.clear();
    pending_congested_.clear();
  }

  void collect_step_dones(std::uint64_t k) {
    std::vector<std::optional<wire::StepDone>> dones(workers_n_);
    std::vector<SteadyClock::time_point> done_at(workers_n_);
    std::size_t pending = 0;
    for (const WorkerSlot& w : workers_) pending += w.alive ? 1 : 0;

    while (pending > 0) {
      for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
        WorkerSlot& w = workers_[rank];
        if (!w.alive || dones[rank].has_value()) continue;
        wire::Frame frame;
        switch (receive(rank, kRecvSliceMs, &frame)) {
          case transport::RecvStatus::kOk: {
            if (frame.type != wire::FrameType::kStepDone) {
              declare_dead(rank, &pending);
              break;
            }
            auto done = wire::decode_step_done(frame.payload);
            // An index this coordinator would act on out of range is a
            // malformed frame, rejected like one that failed to decode.
            const bool usable = done.has_value() && in_range(*done);
            if (!usable || done->quantum != k) {
              if (agg() != nullptr && !usable) {
                agg()->record_decode_reject(rank);
              }
              declare_dead(rank, &pending);
              break;
            }
            dones[rank] = std::move(*done);
            done_at[rank] = SteadyClock::now();
            --pending;
            if (agg() != nullptr) {
              agg()->note_quantum(rank, k);
              agg()->record_rtt(
                  rank, std::chrono::duration<double>(done_at[rank] -
                                                      go_sent_[rank])
                            .count());
            }
            break;
          }
          case transport::RecvStatus::kTimeout: {
            int wstatus = 0;
            const bool exited =
                w.pid > 0 &&
                ::waitpid(w.pid, &wstatus, WNOHANG) == w.pid;
            if (exited) w.pid = -1;
            if (exited ||
                seconds_since(w.last_heard) > options_.heartbeat_timeout) {
              declare_dead(rank, &pending);
            }
            break;
          }
          case transport::RecvStatus::kClosed:
          case transport::RecvStatus::kError:
            declare_dead(rank, &pending);
            break;
        }
      }
    }

    // Barrier-step skew: spread between the first and last StepDone of
    // this quantum. Meaningful (and nonzero) only with two or more shards.
    if (agg() != nullptr) {
      SteadyClock::time_point first{}, last{};
      std::size_t got = 0;
      for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
        if (!dones[rank].has_value()) continue;
        if (got == 0 || done_at[rank] < first) first = done_at[rank];
        if (got == 0 || done_at[rank] > last) last = done_at[rank];
        ++got;
      }
      if (got >= 2) {
        agg()->record_step_skew(
            std::chrono::duration<double>(last - first).count());
      }
    }

    // Absorb in rank order — the relay order next barrier must not depend
    // on which worker finished first.
    for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
      if (!dones[rank].has_value()) continue;
      wire::StepDone& done = *dones[rank];
      const auto offset =
          static_cast<std::uint32_t>(pending_deliveries_.size());
      pending_deliveries_.insert(pending_deliveries_.end(),
                                 done.deliveries.begin(),
                                 done.deliveries.end());
      for (wire::SpanHandoff& h : done.spans) {
        h.delivery += offset;
        pending_spans_.push_back(h);
      }
      pending_adverts_.insert(pending_adverts_.end(), done.adverts.begin(),
                              done.adverts.end());
      pending_congested_.insert(pending_congested_.end(),
                                done.congested_pes.begin(),
                                done.congested_pes.end());
    }

    update_membership(k);
  }

  /// Whether every index in a worker's StepDone is one this coordinator
  /// may act on: PE ids inside the graph, and span handoffs that name the
  /// frame's own deliveries in increasing order.
  [[nodiscard]] bool in_range(const wire::StepDone& done) const {
    const auto pe_ok = [this](std::uint32_t pe) { return pe < g_.pe_count(); };
    std::uint64_t next = 0;  // least index the next handoff may name
    for (const wire::SpanHandoff& h : done.spans) {
      if (h.delivery < next || h.delivery >= done.deliveries.size()) {
        return false;
      }
      next = std::uint64_t{h.delivery} + 1;
    }
    return std::ranges::all_of(done.deliveries, pe_ok,
                               &wire::SdoDelivery::dest_pe) &&
           std::ranges::all_of(done.adverts, pe_ok, &wire::Advert::pe) &&
           std::ranges::all_of(done.congested_pes, pe_ok);
  }

  /// Marks a worker dead, which puts its shard's nodes in the broadcast
  /// down set and in tier 1's excluded set; reaps the process (if any) and
  /// records the detection latency when this coordinator caused the death.
  void declare_dead(std::uint32_t rank, std::size_t* pending) {
    WorkerSlot& w = workers_[rank];
    if (!w.alive) return;
    w.alive = false;
    --*pending;
    if (agg() != nullptr) agg()->note_shard_dead(rank);
    if (w.killed_at.has_value() && stats_ != nullptr &&
        stats_->kill_detect_wall_seconds < 0.0) {
      stats_->kill_detect_wall_seconds = seconds_since(*w.killed_at);
    }
    w.ep->close();
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);  // no-op if already dead; frees a hung worker
      ::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
    }
    if (w.thread.joinable()) w.thread.join();
  }

  /// Re-solves tier 1 when the set of nodes it must exclude as of barrier
  /// `k` differs from the set the current targets were solved around, and
  /// pushes the new targets to every live worker. Excluded are the nodes
  /// of dead ranks and the nodes a crash window holds down at t = k·q, by
  /// the same FaultInjector::node_down the workers act on.
  void update_membership(std::uint64_t k) {
    const Seconds t = static_cast<double>(k) * q_;
    std::vector<NodeId> excluded;
    for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
      if (workers_[rank].alive) continue;
      const auto [begin, end] = shard_range(rank, workers_n_, g_.node_count());
      for (std::size_t n = begin; n < end; ++n) {
        excluded.emplace_back(static_cast<NodeId::value_type>(n));
      }
    }
    for (const fault::NodeCrash& c : options_.faults.crashes) {
      if (crash_windows_.node_down(c.node, t)) excluded.push_back(c.node);
    }
    std::sort(excluded.begin(), excluded.end());
    excluded.erase(std::unique(excluded.begin(), excluded.end()),
                   excluded.end());
    if (excluded == excluded_) return;
    excluded_ = std::move(excluded);

    const opt::AllocationPlan plan =
        opt::optimize_excluding(g_, excluded_);
    for (std::size_t i = 0; i < plan.pe.size() && i < cpu_.size(); ++i) {
      cpu_[i] = plan.pe[i].cpu;
    }
    ++reoptimizations_;
    wire::Targets targets;
    targets.cpu = cpu_;
    const std::vector<std::uint8_t> bytes = wire::encode(targets);
    for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
      if (workers_[rank].alive) send(rank, bytes);
    }
  }

  std::vector<metrics::RunReport> collect_reports() {
    const auto deadline_ms = static_cast<int>(
        1000.0 * std::max(5.0, 2.0 * options_.heartbeat_timeout));
    std::vector<metrics::RunReport> partials;
    for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
      if (!workers_[rank].alive) continue;
      // The worker ships its final telemetry (the last MetricsReport with
      // its spans, a fault dump) just before the Report; receive absorbs
      // it. Anything else skips this shard's report.
      wire::Frame frame;
      if (receive(rank, deadline_ms, &frame) != transport::RecvStatus::kOk ||
          frame.type != wire::FrameType::kReport) {
        continue;
      }
      auto report = wire::decode_report(frame.payload);
      if (report.has_value()) partials.push_back(std::move(report->report));
    }
    return partials;
  }

  void shutdown_all() {
    const std::vector<std::uint8_t> bye = wire::encode_shutdown();
    for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
      if (workers_[rank].alive) send(rank, bye);
    }
    for (WorkerSlot& w : workers_) {
      if (w.ep != nullptr) w.ep->close();
      if (w.thread.joinable()) w.thread.join();
      if (w.pid > 0) {
        const SteadyClock::time_point start = SteadyClock::now();
        bool reaped = false;
        while (seconds_since(start) < kShutdownGraceSeconds) {
          if (::waitpid(w.pid, nullptr, WNOHANG) == w.pid) {
            reaped = true;
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (!reaped) {
          // A worker that survives Shutdown + closed pipe is an orphan.
          ::kill(w.pid, SIGKILL);
          ::waitpid(w.pid, nullptr, 0);
          if (stats_ != nullptr) ++stats_->orphans_reaped;
        }
        w.pid = -1;
      }
      w.alive = false;
    }
  }

  const graph::ProcessingGraph& g_;
  const DistOptions& options_;
  DistStats* stats_ = nullptr;
  double q_ = 0.0;
  std::uint64_t total_quanta_ = 0;
  std::uint32_t workers_n_ = 1;
  std::vector<WorkerSlot> workers_;
  std::unique_ptr<transport::SocketListener> listener_;
  wire::Config base_config_;
  std::vector<double> cpu_;  // current tier-1 cpu targets
  std::vector<ScheduledKill> kills_;
  /// The schedule's crash windows, asked what the workers ask.
  fault::FaultInjector crash_windows_;
  /// The nodes cpu_ was solved around, ascending.
  std::vector<NodeId> excluded_;
  std::vector<wire::SdoDelivery> pending_deliveries_;
  /// Spans riding pending_deliveries_, indexed into it, increasing.
  std::vector<wire::SpanHandoff> pending_spans_;
  std::vector<wire::Advert> pending_adverts_;
  std::vector<std::uint32_t> pending_congested_;
  /// Per-rank wall time of the last StepGo send, for the RTT gauge.
  std::vector<SteadyClock::time_point> go_sent_;
  std::uint64_t reoptimizations_ = 0;
};

}  // namespace

metrics::RunReport run_distributed(const graph::ProcessingGraph& g,
                                   const opt::AllocationPlan& plan,
                                   const DistOptions& options,
                                   DistStats* stats) {
  Coordinator coordinator(g, plan, options, stats);
  return coordinator.run();
}

}  // namespace aces::runtime::dist
