// aces — command-line front end to the library.
//
//   aces generate --seed=1 --nodes=10 --ingress=10 --intermediate=40
//                 --egress=10 --out=topo.txt [--dot=topo.dot]
//   aces optimize --topology=topo.txt [--solver=primal|dual]
//   aces simulate --topology=topo.txt --policy=aces [--duration=60]
//                 [--warmup=10] [--seed=1] [--csv] [--timeseries=ts.csv]
//                 [--trace=out.jsonl] [--faults="crash node=1 at=20 until=35"]
//                 [--staleness=1] [--reoptimize=5]
//   aces compare  --topology=topo.txt [--duration=60] [--seed=1] [--csv]
//                 [--trace=out.jsonl] [--faults=@faults.txt]
//                 [--staleness=1] [--reoptimize=5]
//                 [--transport=thread [--timescale=5] [--batch=8] [--pin]]
//                 [--transport=inproc|uds|tcp [--processes=2]
//                  [--substeps=4] [--fingerprint]]
//   aces cluster-report --topology=topo.txt [--transport=uds --processes=3]
//                 [--sample=0.01] [--status-port=0] [--prom=prom.txt]
//   aces trace-summary --in=out.jsonl [--tail=0.25] [--tolerance=0.1]
//   aces sweep    --grid=@grid.txt [--jobs=4] [--out=BENCH_sweep.json]
//                 [--no-timing] [--quiet]
//   aces bench-diff --old=BENCH_a.json --new=BENCH_b.json
//                 [--threshold=0.25] [--hard-only]
//
// The CLI is a thin shell over the public API: generate_topology /
// write_topology, opt::optimize / optimize_dual, and harness::run on the
// substrate that --transport selects. Everything it does is reachable
// programmatically; it exists so a downstream user can reproduce an
// experiment without writing C++.
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <variant>

#include "fault/fault_spec.h"
#include "graph/dot_export.h"
#include "graph/serialization.h"
#include "graph/topology_generator.h"
#include "harness/bench_diff.h"
#include "harness/experiment.h"
#include "harness/run.h"
#include "harness/sweep_runner.h"
#include "harness/table.h"
#include "metrics/report_fingerprint.h"
#include "obs/cluster_aggregate.h"
#include "obs/export.h"
#include "obs/latency.h"
#include "obs/registry.h"
#include "obs/spans.h"
#include "obs/trace.h"
#include "obs/trace_summary.h"
#include "opt/dual_optimizer.h"
#include "runtime/dist_options.h"
#include "runtime/dist_worker.h"
#include "runtime/runtime_engine.h"
#include "runtime/transport/transport.h"
#include "sim/stream_simulation.h"

namespace {

using namespace aces;

/// Minimal --key=value parser; positional tokens are rejected.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        throw std::runtime_error("unexpected argument: " + arg);
      }
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double get(const std::string& key, double fallback) {
    const std::string raw = get(key, std::string());
    if (raw.empty()) return fallback;
    try {
      std::size_t pos = 0;
      const double value = std::stod(raw, &pos);
      if (pos != raw.size()) throw std::invalid_argument("trailing garbage");
      return value;
    } catch (const std::exception&) {
      throw std::runtime_error("invalid value for --" + key + ": '" + raw +
                               "' (expected a number)");
    }
  }
  [[nodiscard]] int get(const std::string& key, int fallback) {
    const std::string raw = get(key, std::string());
    if (raw.empty()) return fallback;
    try {
      std::size_t pos = 0;
      const int value = std::stoi(raw, &pos);
      if (pos != raw.size()) throw std::invalid_argument("trailing garbage");
      return value;
    } catch (const std::exception&) {
      throw std::runtime_error("invalid value for --" + key + ": '" + raw +
                               "' (expected an integer)");
    }
  }
  [[nodiscard]] bool has(const std::string& key) {
    consumed_.insert(key);
    return values_.contains(key);
  }

  /// Throws if any flag was provided that no command consumed (typo guard).
  void check_all_consumed() const {
    for (const auto& [key, value] : values_) {
      if (!consumed_.contains(key)) {
        throw std::runtime_error("unknown flag: --" + key);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
};

graph::ProcessingGraph load_topology(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open topology file: " + path);
  return graph::read_topology(file);
}

/// Writes control-tick records to `path` (CSV when the extension is .csv,
/// JSONL otherwise) and says so on stderr, naming them `what`.
void write_trace_file(const std::string& path,
                      const std::vector<obs::TickRecord>& records,
                      const char* what = "trace records") {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open trace file: " + path);
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    obs::write_trace_csv(file, records);
  } else {
    obs::write_trace_jsonl(file, records);
  }
  std::cerr << "wrote " << records.size() << ' ' << what << " to " << path
            << '\n';
}

/// File tag for one policy's trace in a compare run ("aces", "udp", ...).
const char* policy_tag(control::FlowPolicy policy) {
  switch (policy) {
    case control::FlowPolicy::kAces: return "aces";
    case control::FlowPolicy::kUdp: return "udp";
    case control::FlowPolicy::kLockStep: return "lockstep";
    case control::FlowPolicy::kThreshold: return "threshold";
  }
  return "unknown";
}

/// out.jsonl + "aces" -> out.aces.jsonl; extensionless paths get ".aces".
std::string policy_trace_path(const std::string& base, const char* tag) {
  const auto dot = base.find_last_of('.');
  const auto slash = base.find_last_of('/');
  const bool has_extension =
      dot != std::string::npos &&
      (slash == std::string::npos || dot > slash);
  if (!has_extension) return base + "." + tag;
  return base.substr(0, dot) + "." + tag + base.substr(dot);
}

/// --faults accepts the spec grammar inline, or @FILE to read it from a
/// file (multi-line specs with comments).
fault::FaultSchedule load_faults(const std::string& spec) {
  if (spec.empty()) return {};
  if (spec.front() == '@') {
    std::ifstream file(spec.substr(1));
    if (!file) {
      throw std::runtime_error("cannot open fault spec file: " +
                               spec.substr(1));
    }
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    return fault::parse_fault_spec(text);
  }
  return fault::parse_fault_spec(spec);
}

/// Post-run fault accounting on stderr (crash/stall/drop event counts).
void print_fault_counters(const obs::MetricsSnapshot& snap) {
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("fault.", 0) == 0 && value > 0) {
      std::cerr << name << ": " << value << '\n';
    }
  }
}

control::FlowPolicy parse_policy(const std::string& name) {
  if (name == "aces") return control::FlowPolicy::kAces;
  if (name == "udp") return control::FlowPolicy::kUdp;
  if (name == "lockstep") return control::FlowPolicy::kLockStep;
  if (name == "threshold") return control::FlowPolicy::kThreshold;
  throw std::runtime_error("unknown policy: " + name +
                           " (aces|udp|lockstep|threshold)");
}

/// --duration, --warmup, --seed, --faults and --staleness, plus --policy
/// when the command runs a single policy: the run description every
/// substrate reads.
RunSpec read_run_spec(Flags& flags, bool policy) {
  RunSpec spec;
  if (policy) {
    spec.controller.policy =
        parse_policy(flags.get("policy", std::string("aces")));
  }
  spec.duration = flags.get("duration", spec.duration);
  spec.warmup = flags.get("warmup", spec.warmup);
  spec.seed = static_cast<std::uint64_t>(flags.get("seed", 1));
  spec.faults = load_faults(flags.get("faults", std::string()));
  // With faults in play the staleness rule defaults on (1 s); healthy
  // runs keep the pre-fault behaviour unless asked.
  Seconds& staleness = spec.controller.advert_staleness_timeout;
  staleness = flags.get("staleness", spec.faults.empty() ? 0.0 : 1.0);
  if (staleness < 0.0)
    throw std::runtime_error("--staleness must be non-negative");
  return spec;
}

/// --reoptimize=SEC: the simulator's periodic tier-1 re-solve.
Seconds read_reoptimize(Flags& flags) {
  const Seconds interval = flags.get("reoptimize", 0.0);
  if (interval < 0.0)
    throw std::runtime_error("--reoptimize must be non-negative");
  return interval;
}

/// Hands a --reoptimize interval to the simulator. Called once the flags
/// are checked, so a refused invocation prints no warning.
void apply_reoptimize(harness::Substrate& substrate, Seconds interval) {
  if (auto* const options = std::get_if<sim::SimOptions>(&substrate)) {
    options->reoptimize_interval = interval;
    return;
  }
  // --reoptimize=SEC requests a *periodic* tier-1 re-solve, which only the
  // simulator implements. The distributed runtime re-solves event-driven —
  // on worker-process death/respawn and modeled crash/restore — whether or
  // not the flag is given; the threaded runtime never re-solves mid-run
  // and rides out faults on tier-2 defenses alone.
  if (interval > 0.0) {
    std::cerr << "warning: the periodic --reoptimize=SEC interval is "
                 "simulator-only; the distributed runtime re-solves "
                 "event-driven on kill/crash/restart regardless, and the "
                 "threaded runtime never re-solves mid-run\n";
  }
}

/// --sample: the fraction of source SDOs whose spans are traced. A command
/// that always traces passes `zero_ok = false` and refuses 0.
double read_sample(Flags& flags, double fallback, bool zero_ok = true) {
  const double sample = flags.get("sample", fallback);
  if (sample < 0.0 || sample > 1.0 || (!zero_ok && sample == 0.0)) {
    throw std::runtime_error(zero_ok ? "--sample must be in [0,1]"
                                     : "--sample must be in (0,1]");
  }
  return sample;
}

/// A command's defaults for the substrate flags.
struct SubstrateDefaults {
  /// --transport when the flag is absent. Empty runs the simulator, and
  /// only a command whose default is empty offers the simulator at all.
  std::string transport{};
  /// Whether --transport=thread (the threaded runtime) is on offer.
  bool threaded = false;
  int processes = 2;
};

/// Reads --transport and the chosen substrate's own flags, and nothing
/// else, so check_all_consumed refuses another substrate's flags like
/// unknown ones. --transport selects the substrate: absent, the simulator;
/// `thread`, the wall-paced threaded runtime; inproc|uds|tcp, the
/// deterministic multi-process distributed runtime. The RunSpec part is
/// left at its defaults; the command assigns its own before each run.
harness::Substrate read_substrate(Flags& flags,
                                  const SubstrateDefaults& defaults) {
  const std::string name = flags.get("transport", defaults.transport);
  if (name.empty() && defaults.transport.empty()) return sim::SimOptions{};
  // Data-plane knobs (docs/performance.md): --channel-capacity on both
  // runtimes, --batch and --pin on the threaded one only.
  const int capacity = flags.get("channel-capacity", 0);
  if (capacity < 0) {
    std::cerr << "--channel-capacity must be >= 0\n";
    std::exit(3);
  }
  if (name == "thread" && defaults.threaded) {
    runtime::RuntimeOptions options;
    options.channel_capacity = static_cast<std::size_t>(capacity);
    options.time_scale = flags.get("timescale", options.time_scale);
    const int batch = flags.get("batch", 8);
    if (batch < 1) {
      std::cerr << "--batch must be >= 1\n";
      std::exit(3);
    }
    options.batch = static_cast<std::size_t>(batch);
    options.pin_threads = flags.has("pin");
    return options;
  }
  const std::optional<runtime::transport::TransportKind> kind =
      runtime::transport::parse_transport(name);
  if (!kind.has_value()) {
    throw std::runtime_error(
        "unknown transport: " + name +
        (defaults.threaded ? " (thread|inproc|uds|tcp)" : " (inproc|uds|tcp)"));
  }
  runtime::dist::DistOptions options;
  options.transport = *kind;
  options.channel_capacity = static_cast<std::size_t>(capacity);
  const int processes = flags.get("processes", defaults.processes);
  const int substeps = flags.get("substeps", 4);
  if (processes < 1) throw std::runtime_error("--processes must be >= 1");
  if (substeps < 1) throw std::runtime_error("--substeps must be >= 1");
  options.processes = static_cast<std::uint32_t>(processes);
  options.substeps = static_cast<std::uint32_t>(substeps);
  return options;
}

/// harness::run, with the warning a distributed run owes when it had to
/// reap worker processes.
metrics::RunReport run_substrate(const graph::ProcessingGraph& g,
                                 const opt::AllocationPlan& plan,
                                 const harness::Substrate& substrate,
                                 runtime::dist::DistStats* stats = nullptr) {
  const metrics::RunReport report = harness::run(g, plan, substrate, stats);
  if (stats != nullptr && stats->orphans_reaped > 0) {
    // A worker that outlived Shutdown and the reap grace was SIGKILLed:
    // always worth a warning, fault schedule or not.
    std::cerr << "warning: ["
              << to_string(harness::run_spec(substrate).controller.policy)
              << "] " << stats->orphans_reaped
              << " orphan worker process(es) reaped after shutdown\n";
  }
  return report;
}

/// Span-tracing simulate/latency-report flags. Tracing turns on when any of
/// --sample / --spans / --prom is given; --sample alone enables it with the
/// outputs going nowhere (useful for the overhead check).
struct SpanFlags {
  double sample = 0.0;
  std::string spans_path;
  std::string prom_path;

  static SpanFlags parse(Flags& flags, double default_sample = 0.01) {
    SpanFlags s;
    s.sample = read_sample(flags, 0.0);
    s.spans_path = flags.get("spans", std::string());
    s.prom_path = flags.get("prom", std::string());
    if (s.sample == 0.0 && (!s.spans_path.empty() || !s.prom_path.empty()))
      s.sample = default_sample;
    return s;
  }

  [[nodiscard]] bool enabled() const { return sample > 0.0; }

  [[nodiscard]] std::unique_ptr<obs::SpanTracer> make_tracer(
      std::uint64_t seed) const {
    obs::SpanTracerOptions options;
    options.sample_rate = sample;
    options.seed = seed;
    return std::make_unique<obs::SpanTracer>(options);
  }

  void write_outputs(const obs::SpanTracer& tracer) const {
    if (!spans_path.empty()) {
      std::ofstream file(spans_path);
      if (!file)
        throw std::runtime_error("cannot open spans file: " + spans_path);
      obs::write_spans_jsonl(file, tracer);
      std::cerr << "wrote " << tracer.spans_started() << " spans ("
                << tracer.spans_completed() << " completed, "
                << tracer.spans_dropped() << " dropped) to " << spans_path
                << '\n';
    }
    if (!prom_path.empty()) {
      std::ofstream file(prom_path);
      if (!file)
        throw std::runtime_error("cannot open prom file: " + prom_path);
      obs::write_latency_prometheus(file, tracer);
      std::cerr << "wrote Prometheus latency exposition to " << prom_path
                << '\n';
    }
  }
};

/// The distributed runtime's live status endpoint: --status-port=N serves
/// it on 127.0.0.1 (0 picks a port), --status-linger=SEC keeps it up that
/// long after the runs.
struct StatusFlags {
  std::optional<std::uint16_t> port;
  double linger = 0.0;

  static StatusFlags read(Flags& flags) {
    StatusFlags s;
    if (flags.has("status-port")) {
      const int port = flags.get("status-port", 0);
      if (port < 0 || port > 65535)
        throw std::runtime_error("--status-port must be in [0,65535]");
      s.port = static_cast<std::uint16_t>(port);
    }
    s.linger = flags.get("status-linger", 0.0);
    return s;
  }

  /// Starts the endpoint over `aggregator`; null without --status-port.
  [[nodiscard]] std::unique_ptr<obs::StatusServer> serve(
      obs::ClusterAggregator* aggregator) const {
    if (!port.has_value()) return nullptr;
    auto server = std::make_unique<obs::StatusServer>(aggregator, *port);
    if (server->listening()) {
      std::cerr << "status endpoint on 127.0.0.1:" << server->port() << '\n';
    } else {
      std::cerr << "warning: status endpoint failed: " << server->error()
                << '\n';
    }
    return server;
  }

  /// Keeps `server` serving its last snapshot for --status-linger seconds
  /// (a CI smoke hook).
  void linger_on(const obs::StatusServer* server) const {
    if (server == nullptr || !server->listening() || linger <= 0.0) return;
    std::cerr << "status endpoint lingering " << linger << " s\n";
    std::this_thread::sleep_for(std::chrono::duration<double>(linger));
  }
};

/// Writes the cluster Prometheus exposition of `aggregator` to `path`.
void write_cluster_prometheus(const std::string& path,
                              const obs::ClusterAggregator& aggregator) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open prom file: " + path);
  aggregator.write_prometheus(file);
  std::cerr << "wrote cluster Prometheus exposition to " << path << '\n';
}

/// The prockill accounting of one distributed run on stderr.
void print_kill_summary(const std::string& prefix,
                        const runtime::dist::DistStats& stats) {
  std::cerr << prefix << "workers killed " << stats.workers_killed
            << ", restarted " << stats.workers_restarted << ", detection "
            << harness::cell(stats.kill_detect_wall_seconds * 1e3, 1)
            << " ms, reoptimizations " << stats.reoptimizations
            << ", relay dropped " << stats.relay_dropped << ", orphans "
            << stats.orphans_reaped << '\n';
}

int cmd_generate(Flags& flags) {
  graph::TopologyParams params;
  params.num_nodes = flags.get("nodes", params.num_nodes);
  params.num_ingress = flags.get("ingress", params.num_ingress);
  params.num_intermediate = flags.get("intermediate", params.num_intermediate);
  params.num_egress = flags.get("egress", params.num_egress);
  params.depth = flags.get("depth", params.depth);
  params.buffer_capacity = flags.get("buffer", params.buffer_capacity);
  params.load_factor = flags.get("load", params.load_factor);
  params.source_burstiness = flags.get("burstiness", params.source_burstiness);
  const int seed = flags.get("seed", 1);
  const std::string out = flags.get("out", std::string());
  const std::string dot = flags.get("dot", std::string());
  flags.check_all_consumed();
  if (out.empty()) throw std::runtime_error("--out=FILE is required");

  const graph::ProcessingGraph g =
      generate_topology(params, static_cast<std::uint64_t>(seed));
  {
    std::ofstream file(out);
    graph::write_topology(g, file);
  }
  std::cout << "wrote " << out << ": " << g.pe_count() << " PEs on "
            << g.node_count() << " nodes, " << g.edge_count() << " edges\n";
  if (!dot.empty()) {
    std::ofstream file(dot);
    file << graph::to_dot(g);
    std::cout << "wrote " << dot << '\n';
  }
  return 0;
}

int cmd_optimize(Flags& flags) {
  const graph::ProcessingGraph g =
      load_topology(flags.get("topology", std::string()));
  const std::string solver = flags.get("solver", std::string("primal"));
  const bool csv = flags.has("csv");
  flags.check_all_consumed();

  opt::AllocationPlan plan;
  if (solver == "primal") {
    plan = opt::optimize(g);
  } else if (solver == "dual") {
    plan = opt::optimize_dual(g).plan;
  } else {
    throw std::runtime_error("unknown solver: " + solver + " (primal|dual)");
  }

  harness::Table table({"pe", "kind", "node", "weight", "cpu target",
                        "rin SDO/s", "rout SDO/s"});
  for (PeId id : g.all_pes()) {
    const auto& d = g.pe(id);
    table.add_row({"pe" + std::to_string(id.value()),
                   graph::to_string(d.kind),
                   "pn" + std::to_string(d.node.value()),
                   harness::cell(d.weight, 0),
                   harness::cell(plan.at(id).cpu, 4),
                   harness::cell(plan.at(id).rin_sdo, 2),
                   harness::cell(plan.at(id).rout_sdo, 2)});
  }
  harness::print_table(table, csv, std::cout);
  std::cout << "\naggregate utility: "
            << harness::cell(plan.aggregate_utility, 3)
            << "\nfluid weighted throughput: "
            << harness::cell(plan.weighted_throughput, 2) << '\n';
  return 0;
}

void add_summary_row(harness::Table& table, const char* name,
                     const harness::RunSummary& s) {
  table.add_row({name, harness::cell(s.weighted_throughput, 1),
                 harness::cell(s.normalized_throughput(), 3),
                 harness::cell(s.latency_mean * 1e3, 1),
                 harness::cell(s.latency_std * 1e3, 1),
                 harness::cell(s.ingress_drops_per_sec, 1),
                 harness::cell(s.internal_drops_per_sec, 1),
                 harness::cell(s.cpu_utilization, 3)});
}

harness::Table summary_table() {
  return harness::Table({"policy", "wtput", "wtput/fluid", "lat ms",
                         "lat std ms", "ingress drop/s", "internal drop/s",
                         "cpu util"});
}

int cmd_simulate(Flags& flags) {
  const graph::ProcessingGraph g =
      load_topology(flags.get("topology", std::string()));
  sim::SimOptions options;
  static_cast<RunSpec&>(options) = read_run_spec(flags, /*policy=*/true);
  options.reoptimize_interval = read_reoptimize(flags);
  const std::string timeseries = flags.get("timeseries", std::string());
  const std::string trace_path = flags.get("trace", std::string());
  const SpanFlags span_flags = SpanFlags::parse(flags);
  const bool csv = flags.has("csv");
  const bool detail = flags.has("detail");
  const bool fingerprint = flags.has("fingerprint");
  flags.check_all_consumed();
  fault::validate(options.faults, g);
  if (!options.faults.proc_kills.empty()) {
    std::cerr << "warning: prockill clauses need the distributed runtime "
                 "(aces compare --transport=inproc|uds|tcp); the simulator "
                 "ignores them\n";
  }

  const opt::AllocationPlan plan = opt::optimize(g);

  obs::ControlTraceRecorder recorder;
  obs::Registry counters;
  options.record_timeseries = !timeseries.empty();
  if (!trace_path.empty()) options.trace = &recorder;
  // A traced run also times its control phases into the registry.
  if (!options.faults.empty() || !trace_path.empty()) {
    options.counters = &counters;
  }
  std::unique_ptr<obs::SpanTracer> tracer;
  if (span_flags.enabled()) {
    tracer = span_flags.make_tracer(options.seed);
    options.spans = tracer.get();
  }
  sim::StreamSimulation simulation(g, plan, options);
  simulation.run();
  if (tracer != nullptr) span_flags.write_outputs(*tracer);
  if (!timeseries.empty()) {
    std::ofstream file(timeseries);
    simulation.timeseries().write_csv(file);
  }
  if (!trace_path.empty()) write_trace_file(trace_path, recorder.snapshot());
  const obs::MetricsSnapshot snap = counters.snapshot();
  if (!trace_path.empty()) obs::write_timer_summary(std::cerr, snap);
  if (!options.faults.empty()) print_fault_counters(snap);
  const metrics::RunReport report = simulation.report();
  if (fingerprint) {
    // Bit-exact serialization of every deterministic report field. CI
    // builds the tree twice (ACES_PERF_INSTRUMENT OFF and ON, same
    // compiler) and diffs this line: the probes must not perturb results.
    std::cout << metrics::report_fingerprint(report) << '\n';
    return 0;
  }
  const harness::RunSummary s =
      harness::summarize(report, plan.weighted_throughput);
  harness::Table table = summary_table();
  add_summary_row(table, to_string(options.controller.policy), s);
  harness::print_table(table, csv, std::cout);

  if (detail) {
    std::cout << '\n';
    harness::Table pe_table({"pe", "kind", "arrived", "processed",
                             "emitted", "dropped", "cpu s"});
    for (PeId id : g.all_pes()) {
      const auto& acc = report.per_pe[id.value()];
      pe_table.add_row({"pe" + std::to_string(id.value()),
                        graph::to_string(g.pe(id).kind),
                        harness::cell(acc.arrived),
                        harness::cell(acc.processed),
                        harness::cell(acc.emitted),
                        harness::cell(acc.dropped_input),
                        harness::cell(acc.cpu_seconds, 2)});
    }
    harness::print_table(pe_table, csv, std::cout);
  }
  return 0;
}

int cmd_compare(Flags& flags) {
  const graph::ProcessingGraph g =
      load_topology(flags.get("topology", std::string()));
  RunSpec spec = read_run_spec(flags, /*policy=*/false);
  const bool csv = flags.has("csv");
  const std::string trace_base = flags.get("trace", std::string());
  const Seconds reoptimize = read_reoptimize(flags);
  harness::Substrate substrate = read_substrate(flags, {.threaded = true});
  // The distributed runtime's own outputs: --fingerprint, spans traced
  // cluster-wide (--sample), the live status endpoint, and one cluster
  // exposition per policy (--prom).
  auto* const dist = std::get_if<runtime::dist::DistOptions>(&substrate);
  const bool fingerprint = dist != nullptr && flags.has("fingerprint");
  if (dist != nullptr) dist->span_sample = read_sample(flags, 0.0);
  const StatusFlags status =
      dist != nullptr ? StatusFlags::read(flags) : StatusFlags{};
  const std::string prom_base =
      dist != nullptr ? flags.get("prom", std::string()) : std::string();
  flags.check_all_consumed();
  fault::validate(spec.faults, g);
  apply_reoptimize(substrate, reoptimize);
  if (!spec.faults.proc_kills.empty() && dist == nullptr) {
    std::cerr << "warning: prockill clauses need the distributed runtime "
                 "(--transport=inproc|uds|tcp); ignored on this substrate\n";
  }

  const opt::AllocationPlan plan = opt::optimize(g);
  harness::Table table = summary_table();
  // The aggregator is per policy run (so cross-policy telemetry never
  // merges); the status server rebinds per run and, with --status-linger,
  // keeps serving the last policy's snapshot after the runs finish.
  const bool cluster_on =
      dist != nullptr &&
      (status.port.has_value() || dist->span_sample > 0.0 ||
       !prom_base.empty() || !trace_base.empty() ||
       !spec.faults.proc_kills.empty());
  std::unique_ptr<obs::ClusterAggregator> aggregator;
  std::unique_ptr<obs::StatusServer> status_server;
  for (const control::FlowPolicy policy :
       {control::FlowPolicy::kAces, control::FlowPolicy::kUdp,
        control::FlowPolicy::kLockStep, control::FlowPolicy::kThreshold}) {
    spec.controller.policy = policy;
    harness::run_spec(substrate) = spec;
    // The simulator and the threaded runtime trace and count in process.
    obs::ControlTraceRecorder recorder;
    obs::ControlTraceRecorder* trace =
        trace_base.empty() || dist != nullptr ? nullptr : &recorder;
    obs::Registry counters;
    obs::Registry* counters_ptr =
        spec.faults.empty() || dist != nullptr ? nullptr : &counters;
    const auto observe = [&](auto* options) {
      if (options == nullptr) return;
      options->trace = trace;
      options->counters = counters_ptr;
    };
    observe(std::get_if<sim::SimOptions>(&substrate));
    observe(std::get_if<runtime::RuntimeOptions>(&substrate));
    if (cluster_on) {
      status_server.reset();  // free the port before the aggregator dies
      aggregator = std::make_unique<obs::ClusterAggregator>();
      dist->aggregator = aggregator.get();
      dist->record_trace = !trace_base.empty();
      status_server = status.serve(aggregator.get());
    }
    runtime::dist::DistStats stats;
    const metrics::RunReport report =
        run_substrate(g, plan, substrate, &stats);
    if (!trace_base.empty()) {
      const std::string path =
          policy_trace_path(trace_base, policy_tag(policy));
      if (aggregator != nullptr) {
        write_trace_file(path, aggregator->trace_records(),
                         "cluster trace records");
      } else {
        write_trace_file(path, recorder.snapshot());
      }
    }
    if (aggregator != nullptr) {
      if (!prom_base.empty()) {
        write_cluster_prometheus(
            policy_trace_path(prom_base, policy_tag(policy)), *aggregator);
      }
      aggregator->write_flight_evidence(std::cerr);
    }
    if (dist != nullptr && !spec.faults.proc_kills.empty()) {
      print_kill_summary("[" + std::string(to_string(policy)) + "] ", stats);
    }
    if (fingerprint) {
      // One line per policy: `<policy> <fingerprint>`. CI diffs these
      // across transports and process counts — the distributed runtime's
      // work totals are partition-invariant, so they must be
      // byte-identical. (work_fingerprint, not report_fingerprint: the
      // global float aggregates merge per-worker Welford state, which is
      // exact-in-value but not bit-associative across partitions.)
      std::cout << to_string(policy) << ' '
                << metrics::work_fingerprint(report) << '\n';
    }
    add_summary_row(table, to_string(policy),
                    harness::summarize(report, plan.weighted_throughput));
    if (counters_ptr != nullptr) {
      std::cerr << "[" << to_string(policy) << "]\n";
      print_fault_counters(counters.snapshot());
    }
  }
  status.linger_on(status_server.get());
  if (fingerprint) return 0;  // fingerprints replace the table
  harness::print_table(table, csv, std::cout);
  return 0;
}

/// One distributed run rendered as the full cluster observability report:
/// summary row, then the aggregator's per-shard health / counter / latency
/// tables. This is the human face of the telemetry plane; compare's
/// --status-port / --prom expose the same aggregator to machines.
int cmd_cluster_report(Flags& flags) {
  const graph::ProcessingGraph g =
      load_topology(flags.get("topology", std::string()));
  const RunSpec spec = read_run_spec(flags, /*policy=*/true);
  const Seconds reoptimize = read_reoptimize(flags);
  harness::Substrate substrate =
      read_substrate(flags, {.transport = "uds", .processes = 3});
  auto& options = std::get<runtime::dist::DistOptions>(substrate);
  options.span_sample = read_sample(flags, 0.01);
  const std::string trace_path = flags.get("trace", std::string());
  const std::string prom_path = flags.get("prom", std::string());
  const StatusFlags status = StatusFlags::read(flags);
  const bool csv = flags.has("csv");
  flags.check_all_consumed();
  fault::validate(spec.faults, g);
  apply_reoptimize(substrate, reoptimize);

  const opt::AllocationPlan plan = opt::optimize(g);
  obs::ClusterAggregator aggregator;
  const std::unique_ptr<obs::StatusServer> status_server =
      status.serve(&aggregator);
  harness::run_spec(substrate) = spec;
  options.aggregator = &aggregator;
  options.record_trace = !trace_path.empty();
  runtime::dist::DistStats stats;
  const metrics::RunReport report = run_substrate(g, plan, substrate, &stats);

  harness::Table table = summary_table();
  add_summary_row(table, to_string(spec.controller.policy),
                  harness::summarize(report, plan.weighted_throughput));
  harness::print_table(table, csv, std::cout);
  std::cout << '\n';
  aggregator.write_report(std::cout);

  if (!trace_path.empty()) {
    write_trace_file(trace_path, aggregator.trace_records(),
                     "cluster trace records");
  }
  if (!prom_path.empty()) write_cluster_prometheus(prom_path, aggregator);
  if (!spec.faults.proc_kills.empty()) print_kill_summary("", stats);
  status.linger_on(status_server.get());
  return 0;
}

int cmd_sweep(Flags& flags) {
  const std::string grid_spec = flags.get("grid", std::string());
  const int jobs = flags.get("jobs", 1);
  const std::string out = flags.get("out", std::string("BENCH_sweep.json"));
  const std::string trace_path = flags.get("trace", std::string());
  const bool include_timing = !flags.has("no-timing");
  const bool quiet = flags.has("quiet");
  const bool csv = flags.has("csv");
  flags.check_all_consumed();
  if (grid_spec.empty()) {
    throw std::runtime_error("--grid=@FILE (or an inline grid spec) is "
                             "required");
  }
  if (jobs < 1) throw std::runtime_error("--jobs must be >= 1");

  std::string grid_text = grid_spec;
  if (grid_spec.front() == '@') {
    std::ifstream file(grid_spec.substr(1));
    if (!file) {
      throw std::runtime_error("cannot open grid file: " + grid_spec.substr(1));
    }
    grid_text.assign((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
  }
  harness::SweepGrid grid = harness::parse_sweep_grid(grid_text);
  grid.record_traces = !trace_path.empty();
  harness::SweepRunner runner(std::move(grid));
  if (!quiet) {
    std::cerr << "sweep: " << runner.run_count() << " runs on " << jobs
              << " job(s)\n";
    runner.on_run_done = [](const harness::SweepRunConfig& config,
                            const harness::SweepRunResult& result) {
      std::cerr << "  [" << config.run_index << "] " << config.label << ": "
                << (result.status == harness::SweepRunStatus::kOk
                        ? "ok"
                        : "FAILED " + result.error)
                << " (" << harness::cell(result.wall_ms, 1) << " ms)\n";
    };
  }
  const harness::SweepReport report = runner.run(jobs);

  {
    std::ofstream file(out);
    if (!file) throw std::runtime_error("cannot open output file: " + out);
    harness::write_sweep_json(file, report, include_timing);
  }
  if (!trace_path.empty()) {
    std::ofstream file(trace_path);
    if (!file) {
      throw std::runtime_error("cannot open trace file: " + trace_path);
    }
    harness::write_sweep_trace_jsonl(file, report);
    std::cerr << "wrote combined policy-tagged trace to " << trace_path
              << '\n';
  }

  if (!quiet) {
    harness::Table table = summary_table();
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      if (report.results[i].status != harness::SweepRunStatus::kOk) continue;
      add_summary_row(table, report.configs[i].label.c_str(),
                      report.results[i].summary);
    }
    harness::print_table(table, csv, std::cout);
    std::cout << '\n';
  }
  double mean = 0.0, lo = 0.0, hi = 0.0;
  report.throughput_summary(mean, lo, hi);
  std::cout << report.completed() << "/" << report.results.size()
            << " runs ok (" << report.failed() << " failed, "
            << report.cancelled() << " cancelled), "
            << harness::cell(report.total_wall_ms, 1) << " ms total, "
            << harness::cell(report.runs_per_sec(), 2)
            << " runs/s; weighted throughput mean "
            << harness::cell(mean, 1) << " [" << harness::cell(lo, 1) << ", "
            << harness::cell(hi, 1) << "]\nwrote " << out << '\n';
  return report.failed() == 0 ? 0 : 3;
}

int cmd_trace_summary(Flags& flags) {
  const std::string in = flags.get("in", std::string());
  obs::TraceSummaryOptions options;
  options.tail_fraction = flags.get("tail", options.tail_fraction);
  options.tolerance_fraction =
      flags.get("tolerance", options.tolerance_fraction);
  const bool csv = flags.has("csv");
  flags.check_all_consumed();
  if (in.empty()) {
    throw std::runtime_error("--in=FILE[,FILE...] is required");
  }

  // --in accepts several comma-separated files (e.g. the per-policy files
  // `aces compare --trace` writes). Records group by their "policy" tag —
  // present in sweep-combined traces — falling back to the file name, so
  // single plain traces keep the old single-table behaviour.
  std::vector<std::string> paths;
  {
    std::istringstream list(in);
    std::string path;
    while (std::getline(list, path, ',')) {
      if (!path.empty()) paths.push_back(path);
    }
  }
  std::size_t total_records = 0;
  Seconds t0 = 0.0;
  Seconds t1 = 0.0;
  bool saw_tagged = false;    // cluster schema: records carry a shard tag
  bool saw_untagged = false;  // single-process schema: no shard key
  std::map<std::string, std::vector<obs::TickRecord>> groups;
  for (const std::string& path : paths) {
    std::ifstream file(path);
    if (!file) throw std::runtime_error("cannot open trace file: " + path);
    std::vector<obs::TickRecord> records = obs::read_trace_jsonl(file);
    if (records.empty()) {
      throw std::runtime_error("no trace records in " + path);
    }
    for (obs::TickRecord& r : records) {
      if (total_records == 0) {
        t0 = t1 = r.time;
      } else {
        t0 = std::min(t0, r.time);
        t1 = std::max(t1, r.time);
      }
      ++total_records;
      (r.shard >= 0 ? saw_tagged : saw_untagged) = true;
      groups[r.policy.empty() ? path : r.policy].push_back(std::move(r));
    }
  }
  // A cluster trace (written by a distributed run) and a single-process
  // trace describe different acquisition pipelines; silently pooling them
  // would skew the settling statistics. Summarize them separately.
  if (saw_tagged && saw_untagged) {
    throw std::runtime_error(
        "mixed trace schemas: --in combines cluster-tagged records (with a "
        "\"shard\" key) and untagged single-process records; pass them to "
        "separate trace-summary invocations");
  }

  struct GroupRow {
    std::string name;
    std::size_t pes = 0;
    std::size_t settled = 0;
    double settle_worst = 0.0;
    double settle_sum = 0.0;  // over settled PEs
    double osc_sum = 0.0;
    std::uint64_t drops = 0;
  };
  std::vector<GroupRow> rows;
  std::size_t total_pes = 0;
  for (const auto& [name, records] : groups) {
    const auto summaries = obs::summarize_trace(records, options);
    if (groups.size() > 1) std::cout << "[" << name << "]\n";
    harness::Table table({"pe", "node", "ticks", "buf mean", "buf min",
                          "buf max", "target", "settle s", "osc amp",
                          "share mean", "drops"});
    GroupRow row;
    row.name = name;
    for (const obs::PeTraceSummary& s : summaries) {
      table.add_row({"pe" + std::to_string(s.pe),
                     "pn" + std::to_string(s.node), harness::cell(s.ticks),
                     harness::cell(s.occupancy_mean, 1),
                     harness::cell(s.occupancy_min, 0),
                     harness::cell(s.occupancy_max, 0),
                     harness::cell(s.steady_target, 1),
                     std::isfinite(s.settling_time)
                         ? harness::cell(s.settling_time, 2)
                         : std::string("never"),
                     harness::cell(s.oscillation_amplitude, 2),
                     harness::cell(s.share_mean, 3), harness::cell(s.drops)});
      ++row.pes;
      if (std::isfinite(s.settling_time)) {
        ++row.settled;
        row.settle_sum += s.settling_time;
        row.settle_worst = std::max(row.settle_worst, s.settling_time);
      }
      row.osc_sum += s.oscillation_amplitude;
      row.drops += s.drops;
    }
    harness::print_table(table, csv, std::cout);
    std::cout << '\n';
    total_pes += row.pes;
    rows.push_back(std::move(row));
  }

  if (rows.size() > 1) {
    std::cout << "per-policy stability (settle over settled PEs):\n";
    harness::Table table({"policy", "pes", "settled", "settle mean s",
                          "settle worst s", "osc amp mean", "drops"});
    for (const GroupRow& row : rows) {
      const double n = static_cast<double>(row.pes);
      table.add_row(
          {row.name, harness::cell(static_cast<std::uint64_t>(row.pes)),
           harness::cell(static_cast<std::uint64_t>(row.settled)),
           row.settled > 0
               ? harness::cell(row.settle_sum /
                                   static_cast<double>(row.settled),
                               2)
               : std::string("-"),
           row.settled > 0 ? harness::cell(row.settle_worst, 2)
                           : std::string("never"),
           harness::cell(row.osc_sum / n, 2), harness::cell(row.drops)});
    }
    harness::print_table(table, csv, std::cout);
    std::cout << '\n';
  }

  std::cout << total_records << " records, " << total_pes << " PEs in "
            << rows.size() << " group(s), time span "
            << harness::cell(t1 - t0, 2) << " s\n";
  return 0;
}

/// Per-PE wait/service and per-path end-to-end percentile tables from any
/// LatencyRegistry — a single-process tracer's or the cluster merge.
void print_latency_tables(const obs::LatencyRegistry& latency, bool csv) {
  harness::Table pe_table({"pe", "waits", "wait p50 ms", "wait p99 ms",
                           "svc p50 ms", "svc p99 ms", "svc max ms"});
  for (const auto& [pe, stats] : latency.pes()) {
    const obs::LatencyQuantiles w = obs::quantiles_of(stats.wait);
    const obs::LatencyQuantiles s = obs::quantiles_of(stats.service);
    pe_table.add_row({"pe" + std::to_string(pe), harness::cell(w.count),
                      harness::cell(w.p50 * 1e3, 2),
                      harness::cell(w.p99 * 1e3, 2),
                      harness::cell(s.p50 * 1e3, 2),
                      harness::cell(s.p99 * 1e3, 2),
                      harness::cell(s.max * 1e3, 2)});
  }
  harness::print_table(pe_table, csv, std::cout);
  std::cout << '\n';

  harness::Table path_table({"path", "n", "p50 ms", "p90 ms", "p99 ms",
                             "p99.9 ms", "max ms"});
  for (const auto& [id, stats] : latency.paths()) {
    const obs::LatencyQuantiles q = obs::quantiles_of(stats.end_to_end);
    path_table.add_row({stats.label, harness::cell(q.count),
                        harness::cell(q.p50 * 1e3, 2),
                        harness::cell(q.p90 * 1e3, 2),
                        harness::cell(q.p99 * 1e3, 2),
                        harness::cell(q.p999 * 1e3, 2),
                        harness::cell(q.max * 1e3, 2)});
  }
  harness::print_table(path_table, csv, std::cout);
}

int cmd_latency_report(Flags& flags) {
  const graph::ProcessingGraph g =
      load_topology(flags.get("topology", std::string()));
  const RunSpec spec = read_run_spec(flags, /*policy=*/true);
  const double sample = read_sample(flags, 0.05, /*zero_ok=*/false);
  const int worst = flags.get("worst", 5);
  const std::string spans_path = flags.get("spans", std::string());
  const std::string prom_path = flags.get("prom", std::string());
  // --transport switches to the distributed runtime: the same tables, fed
  // by the cluster-merged latency registry (wire-stitched spans included).
  const Seconds reoptimize = read_reoptimize(flags);
  harness::Substrate substrate = read_substrate(flags, {.processes = 3});
  const bool csv = flags.has("csv");
  flags.check_all_consumed();
  fault::validate(spec.faults, g);
  if (worst < 0) throw std::runtime_error("--worst must be >= 0");
  auto* const dist = std::get_if<runtime::dist::DistOptions>(&substrate);
  if (dist != nullptr && !spans_path.empty()) {
    throw std::runtime_error(
        "--spans is single-process only; the distributed runtime retains "
        "spans in the cluster aggregator (use cluster-report / --prom)");
  }
  apply_reoptimize(substrate, reoptimize);

  const opt::AllocationPlan plan = opt::optimize(g);
  harness::run_spec(substrate) = spec;

  if (dist != nullptr) {
    obs::ClusterAggregator aggregator;
    dist->aggregator = &aggregator;
    dist->span_sample = sample;
    runtime::dist::DistStats stats;
    run_substrate(g, plan, substrate, &stats);
    std::cout << "cluster latency: " << dist->processes << " shard(s) on "
              << to_string(dist->transport) << ", sample rate "
              << harness::cell(sample, 3) << ", policy "
              << to_string(spec.controller.policy) << "\n\n";
    print_latency_tables(aggregator.merged_latency(), csv);
    if (!prom_path.empty()) write_cluster_prometheus(prom_path, aggregator);
    aggregator.write_flight_evidence(std::cerr);
    return 0;
  }
  auto& options = std::get<sim::SimOptions>(substrate);
  obs::Registry counters;
  if (!spec.faults.empty()) options.counters = &counters;
  obs::SpanTracerOptions tracer_options;
  tracer_options.sample_rate = sample;
  tracer_options.seed = spec.seed;
  tracer_options.worst_k = static_cast<std::size_t>(worst);
  obs::SpanTracer tracer(tracer_options);
  options.spans = &tracer;
  run_substrate(g, plan, substrate);

  std::cout << "spans: " << tracer.spans_started() << " sampled, "
            << tracer.spans_completed() << " completed, "
            << tracer.spans_dropped() << " dropped (sample rate "
            << harness::cell(sample, 3) << ", policy "
            << to_string(spec.controller.policy) << ")\n\n";

  print_latency_tables(tracer.latency(), csv);

  if (!tracer.worst_spans().empty()) {
    std::cout << "\nworst spans:\n";
    harness::Table worst_table(
        {"rank", "latency ms", "path", "start s", "hops"});
    std::uint64_t rank = 1;
    for (const obs::SdoSpan& span : tracer.worst_spans()) {
      worst_table.add_row({harness::cell(rank++),
                           harness::cell(span.latency() * 1e3, 2),
                           obs::path_label(span.hop_pes()),
                           harness::cell(span.start, 2),
                           harness::cell(static_cast<std::uint64_t>(
                               span.hop_count))});
    }
    harness::print_table(worst_table, csv, std::cout);
  }

  if (!spans_path.empty() || !prom_path.empty()) {
    SpanFlags outputs;
    outputs.sample = sample;
    outputs.spans_path = spans_path;
    outputs.prom_path = prom_path;
    outputs.write_outputs(tracer);
  }
  if (!spec.faults.empty()) print_fault_counters(counters.snapshot());
  return 0;
}

int cmd_bench_diff(Flags& flags) {
  const std::string old_path = flags.get("old", std::string());
  const std::string new_path = flags.get("new", std::string());
  harness::BenchDiffOptions options;
  options.threshold = flags.get("threshold", options.threshold);
  options.hard_only = flags.has("hard-only");
  flags.check_all_consumed();
  if (old_path.empty() || new_path.empty()) {
    std::cerr << "bench-diff requires --old=FILE and --new=FILE\n";
    return 3;
  }
  if (options.threshold < 0.0) {
    std::cerr << "--threshold must be >= 0\n";
    return 3;
  }
  const auto slurp = [](const std::string& path) {
    std::ifstream file(path);
    if (!file) throw std::runtime_error("cannot open " + path);
    std::ostringstream os;
    os << file.rdbuf();
    return os.str();
  };
  // Usage / I/O / parse problems exit 3 so CI can tell "the gate itself is
  // broken" apart from "the gate fired" (exit 1 soft, 2 hard).
  try {
    const harness::JsonValue old_doc = harness::parse_json(slurp(old_path));
    const harness::JsonValue new_doc = harness::parse_json(slurp(new_path));
    const harness::BenchDiffResult result =
        harness::bench_diff(old_doc, new_doc, options);
    harness::write_bench_diff_report(std::cout, result, options);
    return result.exit_code(options);
  } catch (const std::exception& e) {
    std::cerr << "bench-diff: " << e.what() << '\n';
    return 3;
  }
}

int usage(std::ostream& os, int code) {
  os << "usage: aces <command> [--flags]\n"
        "  generate  --out=FILE [--seed --nodes --ingress --intermediate\n"
        "            --egress --depth --buffer --load --burstiness --dot=F]\n"
        "  optimize  --topology=FILE [--solver=primal|dual] [--csv]\n"
        "  simulate  --topology=FILE [--policy=aces|udp|lockstep|threshold]\n"
        "            [--duration --warmup --seed --timeseries=F --csv\n"
        "             --detail --trace=F.jsonl|F.csv]\n"
        "            [--faults=SPEC|@FILE --staleness=SEC --reoptimize=SEC]\n"
        "            [--sample=RATE --spans=F.jsonl --prom=F.txt]\n"
        "            (--faults injects crash/stall/advert/drop faults, see\n"
        "             docs/fault_injection.md; --staleness sets the advert\n"
        "             staleness timeout, default 1 when faults are present;\n"
        "             --reoptimize re-runs tier 1 every SEC seconds and on\n"
        "             node crash/restart; --sample enables per-SDO span\n"
        "             tracing at RATE in (0,1], --spans/--prom write the\n"
        "             JSONL / Prometheus expositions)\n"
        "  compare   --topology=FILE [--duration --warmup --seed --csv]\n"
        "            [--trace=F.jsonl|F.csv]\n"
        "            [--faults=SPEC|@FILE --staleness=SEC --reoptimize=SEC]\n"
        "            [--transport=thread --timescale=5 --batch=8\n"
        "             --channel-capacity=0 --pin]   (threaded runtime)\n"
        "            [--transport=inproc|uds|tcp --processes=2 --substeps=4\n"
        "             --channel-capacity=0 --fingerprint --sample=RATE\n"
        "             --status-port=N --status-linger=SEC --prom=F.txt]\n"
        "             (distributed runtime)\n"
        "            (--transport selects the substrate: absent, the\n"
        "             simulator; thread, the wall-paced threaded runtime;\n"
        "             inproc|uds|tcp, the deterministic multi-process\n"
        "             distributed runtime on --processes worker shards —\n"
        "             docs/architecture.md, 'Distributed runtime'. A flag\n"
        "             the chosen substrate does not read is refused like\n"
        "             an unknown flag. The periodic --reoptimize=SEC\n"
        "             interval is simulator-only: the distributed runtime\n"
        "             re-solves\n"
        "             tier 1 event-driven on kill/crash/restart\n"
        "             transitions regardless, and the threaded runtime\n"
        "             never re-solves mid-run.\n"
        "             prockill fault clauses run only on the distributed\n"
        "             runtime. --fingerprint prints one `<policy> <hash>`\n"
        "             line per policy instead of the table; identical\n"
        "             across transports and process counts.\n"
        "             --trace writes one file per policy: F.<policy>.jsonl.\n"
        "             Data-plane knobs, see docs/performance.md: --batch\n"
        "             caps SDOs moved per channel operation,\n"
        "             --channel-capacity overrides the graph's buffer\n"
        "             bounds when > 0, --pin pins worker threads to cores.\n"
        "             On the distributed runtime --sample traces spans\n"
        "             cluster-wide, --status-port=N serves the live plain-\n"
        "             text status endpoint on 127.0.0.1 (0 picks a port),\n"
        "             --status-linger keeps it up SEC seconds after the\n"
        "             runs, --prom writes one cluster exposition per\n"
        "             policy: F.<policy>.txt; --trace ships shard-tagged\n"
        "             control ticks to F.<policy>.jsonl)\n"
        "  cluster-report --topology=FILE [--policy --duration --warmup\n"
        "             --seed --transport=uds --processes=3 --substeps=4\n"
        "             --channel-capacity=0 --sample=0.01 --csv\n"
        "             --trace=F.jsonl --prom=F.txt\n"
        "             --status-port=N --status-linger=SEC]\n"
        "            [--faults=SPEC|@FILE --staleness=SEC]\n"
        "            (one distributed run rendered as the cluster\n"
        "             observability report: shard health, RTT and barrier\n"
        "             skew, cluster counter totals, merged latency\n"
        "             percentiles, span stitching, retained flight-recorder\n"
        "             evidence — docs/observability.md, 'Distributed\n"
        "             observability')\n"
        "  trace-summary --in=F.jsonl[,G.jsonl...] [--tail=0.25\n"
        "             --tolerance=0.1 --csv]\n"
        "            (per-PE settling time and oscillation amplitude;\n"
        "             accepts several files and policy-tagged sweep traces,\n"
        "             reporting each policy side by side. Cluster-tagged\n"
        "             and untagged traces cannot be mixed in one run)\n"
        "  latency-report --topology=FILE [--policy --duration --warmup\n"
        "             --seed --sample=0.05 --worst=5 --csv\n"
        "             --spans=F.jsonl --prom=F.txt]\n"
        "            [--transport=inproc|uds|tcp --processes=3 --substeps=4]\n"
        "            [--faults=SPEC|@FILE --staleness=SEC --reoptimize=SEC]\n"
        "            (runs a traced simulation and prints per-PE\n"
        "             wait/service and per-path end-to-end latency\n"
        "             percentiles plus the slowest spans; with --transport\n"
        "             the same tables come from a distributed run's\n"
        "             cluster-merged registry, wire-stitched spans and all)\n"
        "  sweep     --grid=@FILE [--jobs=N --out=BENCH_sweep.json --csv\n"
        "             --no-timing --quiet --trace=F.jsonl]\n"
        "            (parallel deterministic sweep over a topology x policy\n"
        "             x seed grid; the report is bit-identical for any\n"
        "             --jobs. Grid grammar in docs/benchmarking.md;\n"
        "             --no-timing omits wall-clock fields from the JSON;\n"
        "             exit 3 when any run failed)\n"
        "  bench-diff --old=BENCH_a.json --new=BENCH_b.json\n"
        "             [--threshold=0.25] [--hard-only]\n"
        "            (regression gate over two bench JSON documents: runs\n"
        "             are aligned by label; deterministic work totals\n"
        "             hard-fail on any change, timing fields soft-fail\n"
        "             beyond --threshold. Exit 0 clean, 1 soft drift,\n"
        "             2 hard regression, 3 usage/IO/malformed input;\n"
        "             --hard-only reports soft drift without failing)\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  // Distributed-runtime workers are this same binary re-executed with a
  // hidden `dist-worker` argv; nothing else in the CLI runs in that mode.
  if (const int rc = aces::runtime::dist::maybe_worker(argc, argv); rc >= 0) {
    return rc;
  }
  if (argc < 2) return usage(std::cerr, 2);
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    return usage(std::cout, 0);
  }
  try {
    Flags flags(argc, argv, 2);
    if (command == "generate") return cmd_generate(flags);
    if (command == "optimize") return cmd_optimize(flags);
    if (command == "simulate") return cmd_simulate(flags);
    if (command == "compare") return cmd_compare(flags);
    if (command == "cluster-report") return cmd_cluster_report(flags);
    if (command == "trace-summary") return cmd_trace_summary(flags);
    if (command == "latency-report") return cmd_latency_report(flags);
    if (command == "sweep") return cmd_sweep(flags);
    if (command == "bench-diff") return cmd_bench_diff(flags);
    std::cerr << "unknown command: " << command << '\n';
    return usage(std::cerr, 2);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
