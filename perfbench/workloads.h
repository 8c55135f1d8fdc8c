// The benchmark's workloads: what each one builds, how one run call drives
// the program, and which outputs it checks. Every call into the program goes
// through a module's public API (graph, opt, sim, runtime::dist).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "control/config.h"
#include "graph/processing_graph.h"
#include "metrics/run_report.h"
#include "obs/cluster_aggregate.h"
#include "obs/trace.h"
#include "opt/global_optimizer.h"
#include "runtime/dist_options.h"
#include "runtime/transport/transport.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);
/// Median of `values`; 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// The seed whose work fingerprints and counts are pinned in workloads.cc.
inline constexpr std::uint64_t kPinnedSeed = 1;
/// Each run call draws a fresh realization of the workload: realization i
/// runs the program with model seed model_seed(i), a function of --seed. One
/// realization's throughput, tail latency and peak memory swing widely from
/// seed to seed; a median over many calls, and model metrics pooled over
/// the first kModelRealizations, swing much less.
inline constexpr std::uint32_t kModelRealizations = 24;

/// Run calls attempted and failed in one benchmark invocation, with the
/// reason for each failure.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& why);
};

struct WorkloadSpec {
  const char* name;
  /// The 400-PE/40-node topology (`aces generate --seed=2 --nodes=40
  /// --ingress=40 --intermediate=320 --egress=40`); otherwise the paper's
  /// default 60-PE/10-node one (`aces generate --seed=1`).
  bool wide;
  /// false: the simulator runs ACES, UDP, Lock-Step and Threshold in turn,
  /// as `aces compare` does. true: one ACES run on the distributed runtime.
  bool distributed;
  aces::runtime::transport::TransportKind transport;
  std::uint32_t processes;
  std::uint32_t substeps;
  /// The observability plane: a ClusterAggregator attached and 1% of spans
  /// sampled, as `aces cluster-report` runs it.
  bool telemetry;
  /// Virtual seconds each program call simulates (10 of them warm-up).
  double duration;
};

/// The workload named `name`, or null.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);
/// Names of every workload, comma-separated (for usage text).
[[nodiscard]] std::string workload_names();

/// What a traced run attaches on top of the untraced run call.
struct Probe {
  /// Simulator: wrap every stream's ArrivalProcess to count and time the
  /// workload layer's calls.
  bool time_arrivals = false;
  /// Record every controller tick (TickRecord) for the control replay, and
  /// sample the simulator's busy PEs once per control interval.
  bool record_ticks = false;
  /// Distributed runtime: attach a ClusterAggregator (RTT, skew, frames,
  /// bytes, heartbeats) even when the workload runs telemetry off.
  bool aggregate = false;
  /// Distributed runtime: override the workload's observability plane
  /// (used for the telemetry-off comparison run).
  bool telemetry_off = false;
};

/// One run call and what it produced.
struct RunResult {
  /// Wall seconds of each program call (one per policy for the simulator).
  std::vector<double> call_seconds;
  std::vector<aces::control::FlowPolicy> call_policies;
  std::vector<std::uint64_t> call_events;
  /// Σ per-PE lifetime `processed` over every call.
  std::uint64_t sdos = 0;
  std::uint64_t events = 0;
  /// Barrier quanta (distributed runtime only).
  std::uint64_t quanta = 0;
  /// Exact work fingerprints of every call, concatenated.
  std::string fingerprint;
  /// The ACES call's report: the model_* metrics come from it.
  aces::metrics::RunReport aces;

  // Probe outputs.
  std::uint64_t arrivals = 0;
  double arrival_seconds = 0.0;
  /// Control ticks per call, with the policy that produced them.
  std::vector<std::vector<aces::obs::TickRecord>> ticks;
  /// Mean busy PEs over the ACES call's control intervals (record_ticks).
  double mean_busy_pes = 0.0;
  std::unique_ptr<aces::obs::ClusterAggregator> aggregator;
  aces::runtime::dist::DistStats stats;

  [[nodiscard]] double wall_seconds() const;
};

/// The work of a set of run calls: FNV-1a digest of their concatenated work
/// fingerprints, and their summed events, SDOs and quanta.
struct WorkTotals {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t sdos = 0;
  std::uint64_t quanta = 0;
};

[[nodiscard]] WorkTotals work_totals(const std::vector<RunResult>& calls);

/// Wall seconds of the parts of one set-up.
struct SetupTimes {
  /// Negative when the set-up failed.
  double total = -1.0;
  double generate = 0.0;
  double solve = 0.0;
  /// Simulator construction, or the one-interval run_distributed call.
  double construct = 0.0;
  /// CPU seconds (this process and its reaped workers) of that
  /// run_distributed call; 0 for the simulator.
  double construct_cpu = 0.0;
};

/// Model-level outputs of the ACES calls of realizations
/// 0..kModelRealizations-1, pooled; deterministic for a seed.
struct ModelMetrics {
  double norm_throughput = 0.0;
  double latency_ms_p50 = 0.0;
  double latency_ms_p99 = 0.0;
  std::uint64_t latency_samples = 0;
  double drop_share = 0.0;
};

class Workload {
 public:
  Workload(const WorkloadSpec& spec, std::uint64_t seed);

  /// One timed set-up: topology generation, tier-1 solve and substrate
  /// construction; the distributed workloads add a run_distributed call of
  /// one control interval (spawn, handshake, shutdown and reap). Keeps the
  /// graph and plan for the run calls.
  SetupTimes setup(Tally& tally);

  /// One run call of realization `realization` under `probe`. Counts the attempt; records a failure in `tally` (and returns
  /// false) when the program throws, loses a worker, reaps an orphan, or
  /// leaves an ingress stream unaccounted for.
  bool run(const Probe& probe, std::uint32_t realization, Tally& tally,
           RunResult* out) const;

  /// Checks invariances the repository guarantees, on a short prefix of
  /// realization 0: simulator reports are identical with span tracing on and off;
  /// distributed work fingerprints are identical at 1 and N workers, across
  /// the in-process and UDS transports, and with telemetry on and off.
  void check_invariances(Tally& tally) const;

  /// For the pinned seed, checks the work fingerprints and counts of
  /// realizations 0..kModelRealizations-1 (`calls[k]` ran realization k).
  void check_pins(const std::vector<RunResult>& calls, Tally& tally) const;

  /// Pools the ACES calls of `calls`.
  [[nodiscard]] ModelMetrics model_metrics(
      const std::vector<RunResult>& calls) const;

  [[nodiscard]] const WorkloadSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const aces::graph::ProcessingGraph& graph() const {
    return graph_;
  }
  [[nodiscard]] const aces::opt::AllocationPlan& plan() const { return plan_; }

 private:
  [[nodiscard]] aces::graph::ProcessingGraph generate() const;
  [[nodiscard]] std::uint64_t model_seed(std::uint32_t realization) const;
  [[nodiscard]] aces::runtime::dist::DistOptions dist_options(
      double duration, double warmup, std::uint64_t seed) const;
  bool run_sim(const Probe& probe, std::uint64_t seed, RunResult* out) const;
  bool run_dist(const Probe& probe, std::uint64_t seed, Tally& tally,
                RunResult* out) const;

  WorkloadSpec spec_;
  std::uint64_t seed_;
  aces::graph::ProcessingGraph graph_;
  aces::opt::AllocationPlan plan_;
};

}  // namespace perfbench
