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
#include <set>
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
  /// Its peer listener's address, from its Hello.
  std::string peer_address;
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
    base_config_.controller = options.controller;
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
    barriers_ = barrier_quanta();
  }

  ~Coordinator() {
    // Last-resort cleanup on an exception path: never leave orphans.
    for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
      WorkerSlot& w = workers_[rank];
      if (w.ep != nullptr) w.ep->close();
      if (w.pid > 0) {
        ::kill(w.pid, SIGKILL);
        ::waitpid(w.pid, nullptr, 0);
        w.pid = -1;
        unlink_peer_path(rank);
      }
      if (w.thread.joinable()) w.thread.join();
    }
  }

  metrics::RunReport run() {
    if (uses_sockets()) open_listener();
    for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
      spawn_worker(rank, 0);
    }
    for (std::size_t i = 0; i + 1 < barriers_.size(); ++i) {
      const std::uint64_t k = barriers_[i];
      handle_restarts(k);
      execute_kills(k);
      broadcast_step_go(k, barriers_[i + 1] - k);
      collect_step_dones(barriers_[i + 1] - 1);
    }
    broadcast_step_go(total_quanta_, 0);
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

  /// The quanta before which the coordinator joins, ascending, the last
  /// being the end of the run. Between two of them the workers run a
  /// segment on their own. The coordinator must be there for everything it
  /// does at a quantum: the control-interval boundaries (telemetry epochs),
  /// a kill and the quantum after it (where the death is detected), a
  /// restart, and the quantum after each one at which the crash windows
  /// change the excluded set (where tier 1 is re-solved). So Targets,
  /// kills, respawns and membership land where a barrier every quantum
  /// would put them.
  [[nodiscard]] std::vector<std::uint64_t> barrier_quanta() const {
    std::set<std::uint64_t> at;
    for (std::uint64_t k = 0; k < total_quanta_; k += options_.substeps) {
      at.insert(k);
    }
    for (const ScheduledKill& sk : kills_) {
      at.insert(sk.quantum);
      at.insert(sk.quantum + 1);
      if (sk.restarts) at.insert(sk.restart_quantum);
    }
    if (!options_.faults.crashes.empty()) {
      std::vector<bool> was_down(options_.faults.crashes.size(), false);
      for (std::uint64_t k = 0; k < total_quanta_; ++k) {
        const Seconds t = static_cast<double>(k) * q_;
        for (std::size_t c = 0; c < was_down.size(); ++c) {
          const bool down =
              crash_windows_.node_down(options_.faults.crashes[c].node, t);
          if (down != was_down[c]) at.insert(k + 1);
          was_down[c] = down;
        }
      }
    }
    std::vector<std::uint64_t> out(at.begin(), at.lower_bound(total_quanta_));
    out.push_back(total_quanta_);
    return out;
  }

  /// Sends one complete frame (8-byte header + payload) to `rank`, counted
  /// in the shard's frames and bytes out. A send into a dead endpoint may
  /// fail; the death is detected while receiving, not here.
  bool send(std::uint32_t rank, std::vector<std::uint8_t> bytes) {
    if (agg() != nullptr) agg()->record_frame_sent(rank, bytes.size());
    return workers_[rank].ep->send(std::move(bytes));
  }

  /// Waits up to `timeout_ms` for the next frame from `rank` that the
  /// protocol acts on. Every frame is counted in the shard's frames and
  /// bytes in and refreshes its liveness; heartbeats and telemetry are
  /// absorbed here and never returned. A telemetry frame that fails to
  /// decode is a decode reject, returned as kError like any other protocol
  /// violation. A wait that ends mid-frame is kTimeout.
  transport::RecvStatus receive(std::uint32_t rank, int timeout_ms,
                                wire::Frame* frame) {
    WorkerSlot& w = workers_[rank];
    const SteadyClock::time_point deadline =
        SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
    do {
      // Rounded up: a wait rounded down ends before the deadline, down to a
      // last call with timeout 0.
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - SteadyClock::now());
      const transport::RecvStatus status =
          w.ep->recv(frame, std::max(0, static_cast<int>(left.count())));
      if (status == transport::RecvStatus::kError &&
          w.ep->last_error() == transport::kTimedOutMidFrame) {
        // A frame still arriving when the wait ends is late, not corrupt:
        // its bytes stay buffered for the next receive, and only the
        // liveness rule (heartbeat timeout, process exit) declares death.
        return transport::RecvStatus::kTimeout;
      }
      if (status != transport::RecvStatus::kOk) return status;
      w.last_heard = SteadyClock::now();
      if (agg() != nullptr) {
        agg()->record_frame_received(
            rank, wire::kHeaderBytes + frame->payload.size());
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

  /// The peer listener a UDS worker of `rank` binds. Empty on the other
  /// transports, whose listeners leave no file.
  [[nodiscard]] std::string peer_path(std::uint32_t rank) const {
    return options_.transport == transport::TransportKind::kUds
               ? peer_listener_path(listener_->path(), rank)
               : std::string();
  }

  /// Removes the socket file of a UDS worker that exited without removing
  /// it (killed, reaped).
  void unlink_peer_path(std::uint32_t rank) const {
    const std::string path = peer_path(rank);
    if (!path.empty()) ::unlink(path.c_str());
  }

  /// Spawns (or respawns) the worker for `rank`, joining at barrier
  /// `start_quantum`, and completes the Hello → Config → Hello handshake.
  /// Workers are spawned strictly one at a time, so the accepted connection
  /// always belongs to the rank just forked. The Config lists where the
  /// live ranks listen, and the worker links to each of them before its
  /// second Hello.
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
      w.thread = std::thread([worker_end, rank] {
        worker_entry(*worker_end, rank, PeerLinks{});
      });
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
    // A UDS worker listens where this coordinator will clean up after it.
    ACES_CHECK_MSG(peer_path(rank).empty() ||
                       hello->peer_address == peer_path(rank),
                   "worker " << rank << " listens at an unexpected path");
    w.peer_address = hello->peer_address;

    wire::Config cfg = base_config_;
    cfg.rank = rank;
    cfg.start_quantum = start_quantum;
    cfg.plan_cpu = cpu_;
    cfg.peers.resize(workers_n_);
    for (std::uint32_t peer = 0; peer < workers_n_; ++peer) {
      if (peer != rank && workers_[peer].alive) {
        cfg.peers[peer] = workers_[peer].peer_address;
      }
    }
    ACES_CHECK_MSG(send(rank, wire::encode(cfg)),
                   "worker " << rank << " rejected Config");
    // The second Hello: the worker has linked to every live rank, so a kill
    // from here on cannot leave a peer waiting for a link.
    const auto linked = receive(rank, kHandshakeTimeoutMs, &frame);
    const auto again = linked == transport::RecvStatus::kOk &&
                               frame.type == wire::FrameType::kHello
                           ? wire::decode_hello(frame.payload)
                           : std::nullopt;
    ACES_CHECK_MSG(again.has_value() && again->rank == rank,
                   "worker " << rank << " did not link to its peers");
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
      // segment, which is what the detection-latency stat measures.
    }
  }

  /// Respawns the ranks whose restart falls on barrier `k`. The crash
  /// windows are those of the last barrier's evaluation, k-1: barrier k's
  /// own are evaluated once its segment's StepDones are in.
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

  /// Counts deliveries a worker could not hand to rank `u.rank`, and the
  /// spans riding them, as dropped.
  void count_dropped(const wire::Undelivered& u) {
    if (stats_ != nullptr) stats_->relay_dropped += u.deliveries;
    if (u.spans > 0 && agg() != nullptr) {
      agg()->record_relay_dropped(u.rank, u.spans);
    }
  }

  /// Releases the `count` quanta from `k` on, or with `count` 0 asks for
  /// the final Reports. The batches the workers kept for a dead peer are
  /// dropped here unless this StepGo rejoins that peer, in which case they
  /// are handed to it.
  void broadcast_step_go(std::uint64_t k, std::uint32_t count) {
    for (const wire::Undelivered& u : kept_) {
      if (!workers_[u.rank].rejoined) count_dropped(u);
    }
    kept_.clear();
    wire::StepGo go;
    go.quantum = k;
    go.count = count;
    go.flags = count == 0 ? wire::kStepGoFinal : 0;
    // Membership, in node order: every node of a dead rank (the full set,
    // an idempotent clamp) and the nodes of ranks respawned this barrier.
    for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
      WorkerSlot& w = workers_[rank];
      if (w.alive && !w.rejoined) continue;
      std::vector<std::uint32_t>& nodes = w.alive ? go.up_nodes : go.down_nodes;
      const auto [begin, end] = shard_range(rank, workers_n_, g_.node_count());
      for (std::size_t n = begin; n < end; ++n) {
        nodes.push_back(static_cast<std::uint32_t>(n));
      }
      w.rejoined = false;
    }
    const std::vector<std::uint8_t> bytes = wire::encode(go);
    for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
      if (!workers_[rank].alive) continue;
      go_sent_[rank] = SteadyClock::now();
      send(rank, bytes);
    }
  }

  /// Collects the StepDone of the segment whose last quantum is `k` from
  /// every live worker, then acts on what they report: the deliveries they
  /// dropped or kept for dead peers, and the peers that sent them a
  /// malformed batch, each of which is a decode reject and a death.
  void collect_step_dones(std::uint64_t k) {
    std::vector<std::optional<wire::StepDone>> dones(workers_n_);
    std::vector<SteadyClock::time_point> done_at(workers_n_);
    const auto waiting = [&] {
      for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
        if (workers_[rank].alive && !dones[rank].has_value()) return true;
      }
      return false;
    };

    while (waiting()) {
      for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
        WorkerSlot& w = workers_[rank];
        if (!w.alive || dones[rank].has_value()) continue;
        wire::Frame frame;
        switch (receive(rank, kRecvSliceMs, &frame)) {
          case transport::RecvStatus::kOk: {
            if (frame.type != wire::FrameType::kStepDone) {
              declare_dead(rank);
              break;
            }
            auto done = wire::decode_step_done(frame.payload);
            // An index this coordinator would act on out of range is a
            // malformed frame, rejected like one that failed to decode.
            const bool usable = done.has_value() && in_range(*done, rank);
            if (!usable || done->quantum != k) {
              if (agg() != nullptr && !usable) {
                agg()->record_decode_reject(rank);
              }
              declare_dead(rank);
              break;
            }
            dones[rank] = std::move(*done);
            done_at[rank] = SteadyClock::now();
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
              declare_dead(rank);
            }
            break;
          }
          case transport::RecvStatus::kClosed:
          case transport::RecvStatus::kError:
            declare_dead(rank);
            break;
        }
      }
    }

    // Barrier-step skew: spread between the first and last StepDone of
    // this segment. Meaningful (and nonzero) only with two or more shards.
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

    for (const std::optional<wire::StepDone>& done : dones) {
      if (!done.has_value()) continue;
      for (const wire::Undelivered& u : done->dropped) count_dropped(u);
      kept_.insert(kept_.end(), done->kept.begin(), done->kept.end());
    }
    for (const std::optional<wire::StepDone>& done : dones) {
      if (!done.has_value()) continue;
      for (const std::uint32_t sender : done->rejected) {
        if (!workers_[sender].alive) continue;
        if (agg() != nullptr) agg()->record_decode_reject(sender);
        declare_dead(sender);
      }
    }

    update_membership(k);
  }

  /// Whether every rank a StepDone from `sender` names is one this
  /// coordinator may act on, and it relays no traffic.
  [[nodiscard]] bool in_range(const wire::StepDone& done,
                              std::uint32_t sender) const {
    const auto rank_ok = [this](std::uint32_t rank) {
      return rank < workers_n_;
    };
    return done.deliveries.empty() && done.adverts.empty() &&
           std::ranges::all_of(done.dropped, rank_ok,
                               &wire::Undelivered::rank) &&
           std::ranges::all_of(done.kept, rank_ok, &wire::Undelivered::rank) &&
           std::ranges::all_of(done.rejected, [&](std::uint32_t rank) {
             return rank_ok(rank) && rank != sender;
           });
  }

  /// Marks a worker dead, which puts its shard's nodes in the broadcast
  /// down set and in tier 1's excluded set; reaps the process (if any),
  /// removes its peer socket, and records the detection latency when this
  /// coordinator caused the death.
  void declare_dead(std::uint32_t rank) {
    WorkerSlot& w = workers_[rank];
    if (!w.alive) return;
    w.alive = false;
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
    unlink_peer_path(rank);
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
    for (std::uint32_t rank = 0; rank < workers_n_; ++rank) {
      WorkerSlot& w = workers_[rank];
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
          unlink_peer_path(rank);
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
  /// barrier_quanta(): where each segment starts, then the end of the run.
  std::vector<std::uint64_t> barriers_;
  /// The schedule's crash windows, asked what the workers ask.
  fault::FaultInjector crash_windows_;
  /// The nodes cpu_ was solved around, ascending.
  std::vector<NodeId> excluded_;
  /// The batches the workers still keep for dead peers, from the last
  /// segment's StepDones: delivered if the next StepGo rejoins the peer,
  /// dropped otherwise.
  std::vector<wire::Undelivered> kept_;
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
