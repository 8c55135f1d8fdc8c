// End-to-end benchmark; perfbench/README.md describes the workloads
// and metrics.
//
//   aces_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Diagnostics go to standard output as "# ..." lines; the last line is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "layers.h"
#include "runtime/dist_worker.h"
#include "workloads.h"

namespace {

using perfbench::Clock;
using perfbench::Metric;

struct Args {
  const perfbench::WorkloadSpec* workload = nullptr;
  std::uint64_t seed = perfbench::kPinnedSeed;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const std::size_t eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::cerr << "error: " << flag << " needs a value\n";
      return false;
    }
    try {
      if (flag == "--workload") {
        args->workload = perfbench::find_workload(value);
        if (args->workload == nullptr) {
          std::cerr << "error: unknown workload " << value << '\n';
          return false;
        }
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        args->trace = std::stoi(value) != 0;
      } else {
        std::cerr << "error: unknown flag " << flag << '\n';
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "error: bad value for " << flag << ": " << value << '\n';
      return false;
    }
  }
  if (args->workload == nullptr || !(args->seconds > 0.0)) {
    std::cerr << "error: --workload and a positive --seconds are required\n";
    return false;
  }
  return true;
}

/// Pins this thread, and so every thread and worker process started after
/// it, to one CPU: the highest-numbered one it may run on. Returns the CPU,
/// or -1.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
  }
  return -1;
}

/// Keeps the reference loop's result alive.
volatile std::uint32_t reference_sink = 0;

/// Fixed work timed beside each run call: a dependent walk through a 4 MiB
/// permutation, twice one core's L2, so it slows when the host's caches and
/// memory are contended, as the workloads do. A diagnostic only, never a
/// metric.
double reference_loop_ms() {
  static const std::vector<std::uint32_t> next = [] {
    constexpr std::uint32_t kSlots = 1u << 20;
    std::vector<std::uint32_t> order(kSlots);
    std::iota(order.begin(), order.end(), 0u);
    std::shuffle(order.begin(), order.end(), std::mt19937(1));
    std::vector<std::uint32_t> cycle(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      cycle[order[i]] = order[(i + 1) % kSlots];
    }
    return cycle;
  }();
  const Clock::time_point start = Clock::now();
  std::uint32_t at = 0;
  for (int step = 0; step < (1 << 18); ++step) at = next[at];
  reference_sink = at;
  return 1e3 * perfbench::seconds_since(start);
}

/// Highest peak RSS of this process and of its reaped worker processes.
double peak_rss_mb() {
  long kb = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    ::getrusage(who, &usage);
    kb = std::max(kb, usage.ru_maxrss);
  }
  return static_cast<double>(kb) / 1024.0;
}

std::string join(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, "%s%.3f", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

/// The end-to-end metrics: repeated set-ups, then run calls until `seconds`
/// have passed, then the invariance and pin checks.
std::vector<Metric> end_to_end_metrics(perfbench::Workload& workload,
                                       double seconds,
                                       perfbench::Tally& tally) {
  // Set-ups are short (10-70 ms), so take many: at least kMinSetups, and
  // more until kSetupSeconds have passed.
  constexpr std::size_t kMinSetups = 7;
  constexpr std::size_t kMaxSetups = 51;
  constexpr double kSetupSeconds = 1.0;
  std::vector<double> setup_s;
  const Clock::time_point setup_start = Clock::now();
  for (std::size_t i = 0; i < kMaxSetups; ++i) {
    if (i >= kMinSetups && perfbench::seconds_since(setup_start) > kSetupSeconds) {
      break;
    }
    const perfbench::SetupTimes t = workload.setup(tally);
    if (t.total >= 0.0) setup_s.push_back(t.total);
  }
  std::cout << "# setup_s: " << join(setup_s) << '\n';
  if (setup_s.empty()) return {};

  // Every run call is a fresh realization; run until `seconds` have passed
  // and the model realizations have all run.
  std::vector<perfbench::RunResult> model_calls(perfbench::kModelRealizations);
  std::vector<double> rates;
  std::vector<double> reference_ms;
  std::uint32_t realization = 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    reference_ms.push_back(reference_loop_ms());
    perfbench::RunResult r;
    const std::uint32_t k = realization++;
    if (!workload.run(perfbench::Probe{}, k, tally, &r)) continue;
    rates.push_back(static_cast<double>(r.sdos) / r.wall_seconds());
    if (k < perfbench::kModelRealizations) model_calls[k] = std::move(r);
  } while (Clock::now() < deadline ||
           realization < perfbench::kModelRealizations);
  std::cout << "# SDOs per second of each run call: " << join(rates)
            << '\n';
  std::cout << "# reference loop ms (diagnostic): " << join(reference_ms)
            << '\n';
  if (rates.empty()) return {};

  // The same realization again must reproduce its work exactly.
  perfbench::RunResult again;
  if (workload.run(perfbench::Probe{}, 0, tally, &again) &&
      again.fingerprint != model_calls[0].fingerprint) {
    tally.fail(std::string(workload.spec().name) +
               ": realization 0's work fingerprint changed between calls");
  }
  workload.check_invariances(tally);
  workload.check_pins(model_calls, tally);
  const perfbench::ModelMetrics model = workload.model_metrics(model_calls);
  const perfbench::WorkTotals work = perfbench::work_totals(model_calls);
  std::cout << "# work of the " << perfbench::kModelRealizations
            << " model realizations: fingerprint 0x" << std::hex
            << work.digest << std::dec << " events " << work.events
            << " sdos " << work.sdos << " quanta " << work.quanta << '\n';
  std::cout << "# model (diagnostic): latency samples " << model.latency_samples
            << ", drop share " << model.drop_share << '\n';
  return {
      {"setup_s", perfbench::median(setup_s), "s"},
      {"sdos_per_s", perfbench::median(rates), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"model_norm_throughput", model.norm_throughput, "ratio"},
      {"model_latency_ms_p50", model.latency_ms_p50, "ms_virtual"},
      {"model_latency_ms_p99", model.latency_ms_p99, "ms_virtual"},
  };
}

void print_result(const perfbench::Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 && !metrics.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  // UDS workers re-exec this binary; they inherit the CPU pin.
  if (const int rc = aces::runtime::dist::maybe_worker(argc, argv); rc >= 0) {
    return rc;
  }
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::cerr << "usage: aces_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\nworkloads: "
              << perfbench::workload_names() << '\n';
    return 2;
  }
  const int cpu = pin_to_one_cpu();
  if (cpu < 0) {
    std::cerr << "error: could not pin the benchmark to one CPU\n";
    return 2;
  }
  std::cout << "# workload " << args.workload->name << " seed " << args.seed
            << " seconds " << args.seconds << " trace " << args.trace
            << " pinned to cpu " << cpu << '\n';

  perfbench::Workload workload(*args.workload, args.seed);
  perfbench::Tally tally;
  std::vector<Metric> metrics;
  try {
    metrics = args.trace ? perfbench::per_layer_metrics(workload, args.seconds,
                                                        tally, std::cout)
                         : end_to_end_metrics(workload, args.seconds, tally);
  } catch (const std::exception& e) {
    tally.fail(std::string("benchmark error: ") + e.what());
  }
  for (const std::string& why : tally.failures) {
    std::cout << "# FAILED: " << why << '\n';
  }
  if (metrics.empty()) {
    std::cerr << "error: no run completed\n";
    return 1;
  }
  print_result(tally, metrics);
  return 0;
}
