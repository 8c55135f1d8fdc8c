#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>
#include <stdexcept>

#include "common/histogram.h"
#include "graph/topology_generator.h"
#include "metrics/report_fingerprint.h"
#include "obs/spans.h"
#include "runtime/dist_coordinator.h"
#include "sim/stream_simulation.h"
#include "workload/arrivals.h"

namespace perfbench {
namespace {

namespace dist = aces::runtime::dist;
using aces::control::FlowPolicy;
using aces::runtime::transport::TransportKind;

/// Virtual seconds excluded from every run's measurement window, as in
/// `aces compare` and `aces cluster-report`.
constexpr double kWarmup = 10.0;
/// Control interval of every substrate (the SimOptions/DistOptions default).
constexpr double kDt = 0.1;
/// Short prefix on which the invariance checks run.
constexpr double kPrefixDuration = 2.0;
constexpr double kPrefixWarmup = 0.5;

constexpr FlowPolicy kComparePolicies[] = {FlowPolicy::kAces, FlowPolicy::kUdp,
                                          FlowPolicy::kLockStep,
                                          FlowPolicy::kThreshold};

constexpr WorkloadSpec kWorkloads[] = {
    {"sim_compare", true, false, TransportKind::kInProc, 0, 0, false, 30.0},
    {"dist_uds_barrier", false, true, TransportKind::kUds, 2, 16, false,
     150.0},
    {"dist_inproc_wide", true, true, TransportKind::kInProc, 2, 4, false,
     150.0},
    {"dist_telemetry", false, true, TransportKind::kUds, 2, 4, true, 100.0},
};

/// At kPinnedSeed, the FNV-1a digest of realizations 0..kModelRealizations-1
/// work fingerprints (concatenated) and their summed events, SDOs and
/// quanta. A perf-only change leaves all four unchanged; a change to any of
/// them is a behaviour change.
struct Pin {
  const char* workload;
  std::uint64_t fingerprint;
  std::uint64_t events;
  std::uint64_t sdos;
  std::uint64_t quanta;
};

constexpr Pin kPins[] = {
    {"sim_compare", 0x92b76a750bde6611ULL, 37176650, 12352218, 0},
    {"dist_uds_barrier", 0x33324c7b72f3ad76ULL, 4935688, 4575928, 576000},
    {"dist_inproc_wide", 0xe278165e73fdfca6ULL, 17451207, 16012167, 144000},
    {"dist_telemetry", 0x3d799f4ade30155dULL, 3278564, 3038804, 96000},
};

/// Workload-layer probe: forwards to the stream's own ArrivalProcess and
/// accumulates the count and wall time of its calls.
class TimedArrivals final : public aces::workload::ArrivalProcess {
 public:
  TimedArrivals(std::unique_ptr<aces::workload::ArrivalProcess> inner,
                std::uint64_t* calls, std::uint64_t* nanos)
      : inner_(std::move(inner)), calls_(calls), nanos_(nanos) {}

  aces::Seconds next_interarrival() override {
    const Clock::time_point start = Clock::now();
    const aces::Seconds gap = inner_->next_interarrival();
    *nanos_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    ++*calls_;
    return gap;
  }
  [[nodiscard]] double mean_rate() const override {
    return inner_->mean_rate();
  }

 private:
  std::unique_ptr<aces::workload::ArrivalProcess> inner_;
  std::uint64_t* calls_;
  std::uint64_t* nanos_;
};

std::uint64_t lifetime_processed(const aces::metrics::RunReport& report) {
  std::uint64_t total = 0;
  for (const aces::metrics::PeAccounting& acc : report.per_pe) {
    total += acc.processed;
  }
  return total;
}

/// True when the merged report accounts for every ingress stream. A lost
/// worker's shard never reports, so its ingress PEs read all zero.
bool every_stream_accounted(const aces::graph::ProcessingGraph& g,
                            const aces::metrics::RunReport& report) {
  for (aces::PeId id : g.all_pes()) {
    if (g.pe(id).kind != aces::graph::PeKind::kIngress) continue;
    if (id.value() >= report.per_pe.size()) return false;
    const aces::metrics::PeAccounting& acc = report.per_pe[id.value()];
    if (acc.arrived + acc.dropped_input == 0) return false;
  }
  return true;
}

/// The q-quantile of `h`, interpolated log-linearly inside the bucket that
/// holds it. LogHistogram::quantile reports the bucket's geometric midpoint,
/// a 12% step at 20 buckets per decade, which would turn small differences
/// between seeds into whole-bucket jumps.
double interpolated_quantile(const aces::LogHistogram& h, double q) {
  if (h.count() == 0) return 0.0;
  const double rank = q * static_cast<double>(h.count());
  double seen = static_cast<double>(h.underflow());
  if (rank <= seen) return h.min();
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    const double n = static_cast<double>(h.bucket_value(i));
    if (n > 0.0 && seen + n >= rank) {
      const double lo = h.bucket_lower(i);
      const double hi = h.bucket_lower(i + 1);
      const double at = lo * std::pow(hi / lo, (rank - seen) / n);
      return std::clamp(at, h.min(), h.max());
    }
    seen += n;
  }
  return h.max();
}

/// CPU seconds (user + system) of this process plus its reaped children.
double cpu_seconds() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    ::getrusage(who, &usage);
    total += static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                        usage.ru_stime.tv_usec);
  }
  return total;
}

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << "0x" << std::hex << value;
  return os.str();
}

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Tally::fail(const std::string& why) {
  ++failed;
  failures.push_back(why);
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string workload_names() {
  std::string names;
  for (const WorkloadSpec& spec : kWorkloads) {
    if (!names.empty()) names += ", ";
    names += spec.name;
  }
  return names;
}

double RunResult::wall_seconds() const {
  double total = 0.0;
  for (const double s : call_seconds) total += s;
  return total;
}

WorkTotals work_totals(const std::vector<RunResult>& calls) {
  WorkTotals totals;
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const RunResult& call : calls) {
    for (const unsigned char c : call.fingerprint) {
      digest ^= c;
      digest *= 0x100000001b3ULL;
    }
    totals.events += call.events;
    totals.sdos += call.sdos;
    totals.quanta += call.quanta;
  }
  totals.digest = digest;
  return totals;
}

Workload::Workload(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {}

aces::graph::ProcessingGraph Workload::generate() const {
  aces::graph::TopologyParams params;
  std::uint64_t topology_seed = 1;
  if (spec_.wide) {
    params.num_nodes = 40;
    params.num_ingress = 40;
    params.num_intermediate = 320;
    params.num_egress = 40;
    topology_seed = 2;
  }
  return aces::graph::generate_topology(params, topology_seed);
}

std::uint64_t Workload::model_seed(std::uint32_t realization) const {
  return (seed_ << 16) + realization;
}

dist::DistOptions Workload::dist_options(double duration, double warmup,
                                         std::uint64_t seed) const {
  dist::DistOptions options;
  options.duration = duration;
  options.warmup = warmup;
  options.dt = kDt;
  options.substeps = spec_.substeps;
  options.seed = seed;
  options.processes = spec_.processes;
  options.transport = spec_.transport;
  options.controller.policy = FlowPolicy::kAces;
  // Relative to the working directory run.py gives the benchmark (its build
  // directory): short enough for sun_path, and inside the checkout.
  options.uds_dir = ".";
  options.span_sample = spec_.telemetry ? 0.01 : 0.0;
  return options;
}

SetupTimes Workload::setup(Tally& tally) {
  ++tally.attempted;
  SetupTimes times;
  try {
    const Clock::time_point start = Clock::now();
    graph_ = generate();
    times.generate = seconds_since(start);
    const Clock::time_point solve_start = Clock::now();
    plan_ = aces::opt::optimize(graph_);
    times.solve = seconds_since(solve_start);
    const Clock::time_point construct_start = Clock::now();
    if (!spec_.distributed) {
      aces::sim::SimOptions options;
      options.duration = spec_.duration;
      options.warmup = kWarmup;
      options.seed = model_seed(0);
      const aces::sim::StreamSimulation constructed(graph_, plan_, options);
    } else {
      dist::DistOptions options = dist_options(kDt, 0.0, model_seed(0));
      aces::obs::ClusterAggregator aggregator;
      if (spec_.telemetry) options.aggregator = &aggregator;
      dist::DistStats stats;
      const double cpu_start = cpu_seconds();
      dist::run_distributed(graph_, plan_, options, &stats);
      times.construct_cpu = cpu_seconds() - cpu_start;
      if (stats.orphans_reaped > 0) {
        tally.fail(std::string(spec_.name) + " set-up reaped " +
                   std::to_string(stats.orphans_reaped) + " orphan(s)");
      }
    }
    times.construct = seconds_since(construct_start);
    times.total = seconds_since(start);
  } catch (const std::exception& e) {
    tally.fail(std::string(spec_.name) + " set-up threw: " + e.what());
  }
  return times;
}

bool Workload::run(const Probe& probe, std::uint32_t realization,
                   Tally& tally, RunResult* out) const {
  ++tally.attempted;
  const std::uint64_t seed = model_seed(realization);
  try {
    return spec_.distributed ? run_dist(probe, seed, tally, out)
                             : run_sim(probe, seed, out);
  } catch (const std::exception& e) {
    tally.fail(std::string(spec_.name) + " run threw: " + e.what());
    return false;
  }
}

bool Workload::run_sim(const Probe& probe, std::uint64_t seed,
                       RunResult* out) const {
  for (const FlowPolicy policy : kComparePolicies) {
    aces::sim::SimOptions options;
    options.duration = spec_.duration;
    options.warmup = kWarmup;
    options.seed = seed;
    options.controller.policy = policy;
    std::uint64_t arrivals = 0;
    std::uint64_t arrival_ns = 0;
    if (probe.time_arrivals) {
      options.arrival_factory = [&arrivals, &arrival_ns](
                                    aces::StreamId,
                                    const aces::graph::StreamDescriptor& stream,
                                    aces::Rng rng) {
        return std::unique_ptr<aces::workload::ArrivalProcess>(
            std::make_unique<TimedArrivals>(
                aces::workload::make_arrival_process(stream, std::move(rng)),
                &arrivals, &arrival_ns));
      };
    }
    aces::obs::ControlTraceRecorder recorder;
    if (probe.record_ticks) options.trace = &recorder;

    aces::metrics::RunReport report;
    const Clock::time_point start = Clock::now();
    if (probe.record_ticks) {
      // Stepped one control interval at a time to sample the busy PEs (each
      // holds one pending completion event); stepping executes the same
      // events in the same order as one run().
      aces::sim::StreamSimulation simulation(graph_, plan_, options);
      double busy_sum = 0.0;
      std::uint64_t samples = 0;
      const auto steps = static_cast<std::uint64_t>(
          std::llround(spec_.duration / kDt));
      for (std::uint64_t k = 1; k <= steps; ++k) {
        simulation.run_until(std::min(spec_.duration,
                                      static_cast<double>(k) * kDt));
        for (aces::PeId id : graph_.all_pes()) {
          busy_sum += simulation.pe_stats(id).busy ? 1.0 : 0.0;
        }
        ++samples;
      }
      simulation.run_until(spec_.duration);
      report = simulation.report();
      if (policy == FlowPolicy::kAces && samples > 0) {
        out->mean_busy_pes = busy_sum / static_cast<double>(samples);
      }
    } else {
      report = aces::sim::simulate(graph_, plan_, options);
    }
    out->call_seconds.push_back(seconds_since(start));
    out->call_policies.push_back(policy);
    out->call_events.push_back(report.events_executed);
    out->events += report.events_executed;
    out->sdos += lifetime_processed(report);
    out->fingerprint += aces::metrics::report_fingerprint(report);
    out->arrivals += arrivals;
    out->arrival_seconds += 1e-9 * static_cast<double>(arrival_ns);
    if (probe.record_ticks) out->ticks.push_back(recorder.snapshot());
    if (policy == FlowPolicy::kAces) out->aces = std::move(report);
  }
  return true;
}

bool Workload::run_dist(const Probe& probe, std::uint64_t seed, Tally& tally,
                        RunResult* out) const {
  dist::DistOptions options = dist_options(spec_.duration, kWarmup, seed);
  const bool telemetry = spec_.telemetry && !probe.telemetry_off;
  if (!telemetry) options.span_sample = 0.0;
  if (telemetry || probe.aggregate || probe.record_ticks) {
    out->aggregator = std::make_unique<aces::obs::ClusterAggregator>();
    options.aggregator = out->aggregator.get();
  }
  options.record_trace = probe.record_ticks;

  const Clock::time_point start = Clock::now();
  aces::metrics::RunReport report =
      dist::run_distributed(graph_, plan_, options, &out->stats);
  out->call_seconds.push_back(seconds_since(start));
  out->call_policies.push_back(FlowPolicy::kAces);
  out->call_events.push_back(report.events_executed);
  out->events = report.events_executed;
  out->sdos = lifetime_processed(report);
  out->quanta = static_cast<std::uint64_t>(
                    std::llround(options.duration / options.dt)) *
                options.substeps;
  out->fingerprint = aces::metrics::work_fingerprint(report);
  if (probe.record_ticks) out->ticks.push_back(out->aggregator->trace_records());

  bool healthy = true;
  if (out->stats.orphans_reaped > 0) {
    tally.fail(std::string(spec_.name) + " reaped " +
               std::to_string(out->stats.orphans_reaped) + " orphan(s)");
    healthy = false;
  } else if (!every_stream_accounted(graph_, report) ||
             (out->aggregator != nullptr &&
              out->aggregator->shards_alive() !=
                  out->aggregator->shard_count())) {
    tally.fail(std::string(spec_.name) + " lost a worker");
    healthy = false;
  }
  out->aces = std::move(report);
  return healthy;
}

void Workload::check_invariances(Tally& tally) const {
  auto attempt = [&](const char* what, auto&& call) -> std::string {
    ++tally.attempted;
    try {
      return call();
    } catch (const std::exception& e) {
      tally.fail(std::string(spec_.name) + " " + what + " threw: " + e.what());
      return {};
    }
  };
  auto expect_equal = [&](const std::string& base, const std::string& other,
                          const char* what) {
    if (base.empty() || other.empty()) return;  // already counted as thrown
    if (base != other) {
      tally.fail(std::string(spec_.name) + ": work fingerprint differs " +
                 what);
    }
  };

  if (!spec_.distributed) {
    auto prefix = [&](bool traced) {
      aces::sim::SimOptions options;
      options.duration = kPrefixDuration;
      options.warmup = kPrefixWarmup;
      options.seed = model_seed(0);
      aces::obs::SpanTracerOptions span_options;
      span_options.sample_rate = 0.01;
      span_options.seed = options.seed;
      aces::obs::SpanTracer tracer(span_options);
      if (traced) options.spans = &tracer;
      return aces::metrics::report_fingerprint(
          aces::sim::simulate(graph_, plan_, options));
    };
    const std::string base = attempt("prefix", [&] { return prefix(false); });
    expect_equal(base, attempt("traced prefix", [&] { return prefix(true); }),
                 "with span tracing on");
    return;
  }

  auto prefix = [&](std::uint32_t processes, TransportKind transport,
                    bool telemetry) {
    dist::DistOptions options =
        dist_options(kPrefixDuration, kPrefixWarmup, model_seed(0));
    options.processes = processes;
    options.transport = transport;
    aces::obs::ClusterAggregator aggregator;
    options.span_sample = telemetry ? 0.01 : 0.0;
    options.aggregator = telemetry ? &aggregator : nullptr;
    dist::DistStats stats;
    const aces::metrics::RunReport report =
        dist::run_distributed(graph_, plan_, options, &stats);
    // A prefix is too short for every stream to have arrivals, so a lost
    // worker shows here as a fingerprint that differs from the other runs'.
    if (stats.orphans_reaped > 0) {
      throw std::runtime_error("reaped an orphan worker");
    }
    return aces::metrics::work_fingerprint(report);
  };
  const TransportKind other = spec_.transport == TransportKind::kUds
                                  ? TransportKind::kInProc
                                  : TransportKind::kUds;
  const std::string base = attempt("prefix", [&] {
    return prefix(spec_.processes, spec_.transport, spec_.telemetry);
  });
  expect_equal(base, attempt("1-worker prefix", [&] {
                 return prefix(1, spec_.transport, spec_.telemetry);
               }),
               "at 1 worker");
  expect_equal(base, attempt("cross-transport prefix", [&] {
                 return prefix(spec_.processes, other, spec_.telemetry);
               }),
               "across transports");
  expect_equal(base, attempt("telemetry-toggled prefix", [&] {
                 return prefix(spec_.processes, spec_.transport,
                               !spec_.telemetry);
               }),
               "with telemetry toggled");
}

void Workload::check_pins(const std::vector<RunResult>& calls,
                          Tally& tally) const {
  if (seed_ != kPinnedSeed) return;
  const WorkTotals got = work_totals(calls);
  for (const Pin& pin : kPins) {
    if (std::string(pin.workload) != spec_.name) continue;
    if (got.digest != pin.fingerprint || got.events != pin.events ||
        got.sdos != pin.sdos || got.quanta != pin.quanta) {
      tally.fail(std::string(spec_.name) + " seed " + std::to_string(seed_) +
                 ": got fingerprint " + hex(got.digest) + " events " +
                 std::to_string(got.events) + " sdos " +
                 std::to_string(got.sdos) + " quanta " +
                 std::to_string(got.quanta) + ", pinned " +
                 hex(pin.fingerprint) + " / " + std::to_string(pin.events) +
                 " / " + std::to_string(pin.sdos) + " / " +
                 std::to_string(pin.quanta));
    }
  }
}

ModelMetrics Workload::model_metrics(const std::vector<RunResult>& calls) const {
  ModelMetrics m;
  aces::LogHistogram latency;
  std::uint64_t dropped = 0;
  std::uint64_t offered = 0;
  for (const RunResult& call : calls) {
    const aces::metrics::RunReport& r = call.aces;
    if (plan_.weighted_throughput > 0.0) {
      m.norm_throughput += r.weighted_throughput / plan_.weighted_throughput /
                           static_cast<double>(calls.size());
    }
    latency.merge(r.latency_histogram);
    for (const aces::metrics::PeAccounting& acc : r.per_pe) {
      dropped += acc.dropped_input;
      offered += acc.arrived + acc.dropped_input;
    }
  }
  m.latency_ms_p50 = 1e3 * interpolated_quantile(latency, 0.5);
  m.latency_ms_p99 = 1e3 * interpolated_quantile(latency, 0.99);
  m.latency_samples = latency.count();
  if (offered > 0) {
    m.drop_share = static_cast<double>(dropped) / static_cast<double>(offered);
  }
  return m;
}

}  // namespace perfbench
