#include "harness/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/rng.h"
#include "harness/bench_json.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "opt/global_optimizer.h"
#include "sim/stream_simulation.h"

namespace aces::harness {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

control::FlowPolicy parse_policy_name(const std::string& name) {
  if (name == "aces") return control::FlowPolicy::kAces;
  if (name == "udp") return control::FlowPolicy::kUdp;
  if (name == "lockstep") return control::FlowPolicy::kLockStep;
  if (name == "threshold") return control::FlowPolicy::kThreshold;
  throw std::runtime_error("unknown policy: " + name +
                           " (aces|udp|lockstep|threshold)");
}

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

const char* status_name(SweepRunStatus status) {
  switch (status) {
    case SweepRunStatus::kOk: return "ok";
    case SweepRunStatus::kFailed: return "failed";
    case SweepRunStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

/// Emits the deterministic RunSummary fields as "key":value pairs.
void write_summary_fields(std::ostream& os, const RunSummary& s) {
  os << "\"weighted_throughput\":" << num(s.weighted_throughput)
     << ",\"fluid_bound\":" << num(s.fluid_bound)
     << ",\"normalized_throughput\":" << num(s.normalized_throughput())
     << ",\"latency_ms_mean\":" << num(s.latency_mean * 1e3)
     << ",\"latency_ms_p50\":" << num(s.latency_p50 * 1e3)
     << ",\"latency_ms_p99\":" << num(s.latency_p99 * 1e3)
     << ",\"ingress_drops_per_sec\":" << num(s.ingress_drops_per_sec)
     << ",\"internal_drops_per_sec\":" << num(s.internal_drops_per_sec)
     << ",\"cpu_utilization\":" << num(s.cpu_utilization)
     << ",\"output_rate\":" << num(s.output_rate)
     << ",\"events_executed\":" << s.events_executed
     << ",\"sdos_processed\":" << s.sdos_processed
     << ",\"reoptimizations\":" << s.reoptimizations;
}

}  // namespace

std::uint64_t derive_sweep_seed(std::uint64_t base_seed,
                                std::uint64_t run_index,
                                std::uint64_t stream) {
  // A short SplitMix64 chain keyed by all three inputs. Deliberately not
  // base_seed + run_index arithmetic: neighbouring grids must not share
  // run seeds.
  std::uint64_t state = base_seed ^ 0x632BE59BD9B4E019ULL;
  state = splitmix64(state);
  state ^= run_index * 0x9E3779B97F4A7C15ULL;
  state = splitmix64(state);
  state ^= stream * 0xBF58476D1CE4E5B9ULL;
  return splitmix64(state);
}

std::size_t SweepReport::completed() const {
  return static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(), [](const auto& r) {
        return r.status == SweepRunStatus::kOk;
      }));
}

std::size_t SweepReport::failed() const {
  return static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(), [](const auto& r) {
        return r.status == SweepRunStatus::kFailed;
      }));
}

std::size_t SweepReport::cancelled() const {
  return static_cast<std::size_t>(
      std::count_if(results.begin(), results.end(), [](const auto& r) {
        return r.status == SweepRunStatus::kCancelled;
      }));
}

double SweepReport::runs_per_sec() const {
  if (total_wall_ms <= 0.0) return 0.0;
  return static_cast<double>(completed()) / (total_wall_ms / 1e3);
}

void SweepReport::throughput_summary(double& mean, double& lo,
                                     double& hi) const {
  mean = 0.0;
  lo = 0.0;
  hi = 0.0;
  std::size_t n = 0;
  for (const SweepRunResult& r : results) {
    if (r.status != SweepRunStatus::kOk) continue;
    const double w = r.summary.weighted_throughput;
    if (n == 0) {
      lo = hi = w;
    } else {
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    }
    mean += w;
    ++n;
  }
  if (n > 0) mean /= static_cast<double>(n);
}

SweepRunner::SweepRunner(SweepGrid grid) : grid_(std::move(grid)) {
  ACES_CHECK_MSG(!grid_.cells.empty(), "sweep grid has no topology cells");
  ACES_CHECK_MSG(!grid_.policies.empty(), "sweep grid has no policies");
  ACES_CHECK_MSG(grid_.seeds_per_cell > 0, "seeds_per_cell must be positive");
  std::size_t index = 0;
  for (std::size_t c = 0; c < grid_.cells.size(); ++c) {
    const SweepCell& cell = grid_.cells[c];
    const std::string cell_name =
        cell.name.empty() ? "cell" + std::to_string(c) : cell.name;
    for (const control::FlowPolicy policy : grid_.policies) {
      for (int k = 0; k < grid_.seeds_per_cell; ++k) {
        SweepRunConfig cfg;
        cfg.run_index = index;
        cfg.label = cell_name + "/" + control::to_string(policy) + "/s" +
                    std::to_string(k);
        cfg.topology = cell.topology;
        cfg.policy = policy;
        cfg.topology_seed = derive_sweep_seed(grid_.base_seed, index, 0);
        cfg.sim_seed = derive_sweep_seed(grid_.base_seed, index, 1);
        configs_.push_back(std::move(cfg));
        ++index;
      }
    }
  }
}

void SweepRunner::execute_run(std::size_t index, SweepReport& report) const {
  const SweepRunConfig& cfg = configs_[index];
  SweepRunResult& slot = report.results[index];
  const auto start = Clock::now();
  try {
    const graph::ProcessingGraph g =
        graph::generate_topology(cfg.topology, cfg.topology_seed);
    const opt::AllocationPlan plan = opt::optimize(g);
    sim::SimOptions options;
    options.duration = grid_.duration;
    options.warmup = grid_.warmup;
    options.dt = grid_.dt;
    options.reoptimize_interval = grid_.reoptimize_interval;
    options.seed = cfg.sim_seed;
    options.controller.policy = cfg.policy;
    obs::ControlTraceRecorder recorder;
    if (grid_.record_traces) options.trace = &recorder;
    slot.summary = run_single(g, plan, options);
    if (grid_.record_traces) {
      slot.trace = recorder.snapshot();
      // Tag every record with its policy so the combined sweep trace can be
      // split back apart by trace-summary.
      for (obs::TickRecord& r : slot.trace) {
        r.policy = control::to_string(cfg.policy);
      }
    }
    slot.status = SweepRunStatus::kOk;
  } catch (const std::exception& e) {
    slot.status = SweepRunStatus::kFailed;
    slot.error = e.what();
  }
  slot.wall_ms = ms_since(start);
}

SweepReport SweepRunner::run(int jobs) {
  jobs = std::max(1, jobs);
  SweepReport report;
  report.configs = configs_;
  report.results.assign(configs_.size(), SweepRunResult{});
  report.jobs = jobs;
  const auto start = Clock::now();

  Mutex done_mutex;  // serializes on_run_done across workers
  const auto finish_run = [&](std::size_t index) {
    execute_run(index, report);
    if (on_run_done) {
      MutexLock lock(done_mutex);
      on_run_done(configs_[index], report.results[index]);
    }
  };

  if (jobs == 1 || configs_.size() <= 1) {
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      if (cancelled_.load(std::memory_order_relaxed)) break;
      finish_run(i);
    }
  } else {
    // Work-stealing pool: run indices are dealt round-robin onto per-worker
    // deques; a worker drains its own deque from the front and steals from
    // the back of a victim's when empty. Determinism is unaffected by who
    // executes what — results are slot-addressed by run index.
    struct WorkQueue {
      Mutex mutex;
      std::deque<std::size_t> items ACES_GUARDED_BY(mutex);
    };
    std::vector<WorkQueue> queues(static_cast<std::size_t>(jobs));
    {
      // Seeding happens before the workers exist, but the analysis has no
      // notion of "not yet shared" for non-members, so lock pro forma.
      for (std::size_t i = 0; i < configs_.size(); ++i) {
        WorkQueue& q = queues[i % static_cast<std::size_t>(jobs)];
        MutexLock lock(q.mutex);
        q.items.push_back(i);
      }
    }
    const auto take = [&queues](std::size_t worker, std::size_t& out) {
      {  // own queue first, oldest item first
        WorkQueue& own = queues[worker];
        MutexLock lock(own.mutex);
        if (!own.items.empty()) {
          out = own.items.front();
          own.items.pop_front();
          return true;
        }
      }
      for (std::size_t v = 1; v < queues.size(); ++v) {
        WorkQueue& victim = queues[(worker + v) % queues.size()];
        MutexLock lock(victim.mutex);
        if (!victim.items.empty()) {
          out = victim.items.back();  // steal from the cold end
          victim.items.pop_back();
          return true;
        }
      }
      return false;  // nothing anywhere: the sweep is drained
    };

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      workers.emplace_back([&, w] {
        std::size_t index = 0;
        while (!cancelled_.load(std::memory_order_relaxed) &&
               take(static_cast<std::size_t>(w), index)) {
          finish_run(index);
        }
      });
    }
    for (std::thread& t : workers) t.join();
  }

  report.total_wall_ms = ms_since(start);
  return report;
}

SweepGrid parse_sweep_grid(const std::string& text) {
  SweepGrid grid;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens(line);
    std::string head;
    if (!(tokens >> head)) continue;  // blank / comment-only line

    const auto fail = [&](const std::string& why) -> std::runtime_error {
      return std::runtime_error("sweep grid line " + std::to_string(line_no) +
                                ": " + why);
    };
    const auto number = [&](const std::string& raw) {
      try {
        std::size_t pos = 0;
        const double v = std::stod(raw, &pos);
        if (pos != raw.size()) throw std::invalid_argument("garbage");
        return v;
      } catch (const std::exception&) {
        throw fail("expected a number, got '" + raw + "'");
      }
    };

    if (head == "topology") {
      SweepCell cell;
      std::string kv;
      while (tokens >> kv) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos) throw fail("expected key=value: " + kv);
        const std::string key = kv.substr(0, eq);
        const std::string value = kv.substr(eq + 1);
        graph::TopologyParams& t = cell.topology;
        if (key == "name") cell.name = value;
        else if (key == "nodes") t.num_nodes = static_cast<int>(number(value));
        else if (key == "ingress") t.num_ingress = static_cast<int>(number(value));
        else if (key == "intermediate") t.num_intermediate = static_cast<int>(number(value));
        else if (key == "egress") t.num_egress = static_cast<int>(number(value));
        else if (key == "depth") t.depth = static_cast<int>(number(value));
        else if (key == "buffer") t.buffer_capacity = static_cast<int>(number(value));
        else if (key == "load") t.load_factor = number(value);
        else if (key == "burstiness") t.source_burstiness = number(value);
        else if (key == "fanin") t.max_fan_in = static_cast<int>(number(value));
        else if (key == "fanout") t.max_fan_out = static_cast<int>(number(value));
        else throw fail("unknown topology key: " + key);
      }
      grid.cells.push_back(std::move(cell));
      continue;
    }

    // Scalar directive: "key = value" (or "key=value").
    std::string key = head;
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.erase(eq);
    }
    std::string tok;
    while (tokens >> tok) {
      if (tok == "=") continue;
      if (tok.front() == '=') tok.erase(0, 1);
      if (!value.empty()) throw fail("trailing token: " + tok);
      value = tok;
    }
    if (value.empty()) throw fail("directive '" + key + "' needs a value");

    if (key == "base_seed") {
      grid.base_seed = static_cast<std::uint64_t>(number(value));
    } else if (key == "seeds") {
      grid.seeds_per_cell = static_cast<int>(number(value));
      if (grid.seeds_per_cell <= 0) throw fail("seeds must be positive");
    } else if (key == "duration") {
      grid.duration = number(value);
    } else if (key == "warmup") {
      grid.warmup = number(value);
    } else if (key == "dt") {
      grid.dt = number(value);
    } else if (key == "reoptimize") {
      grid.reoptimize_interval = number(value);
    } else if (key == "policies") {
      grid.policies.clear();
      std::istringstream list(value);
      std::string name;
      while (std::getline(list, name, ',')) {
        if (!name.empty()) grid.policies.push_back(parse_policy_name(name));
      }
      if (grid.policies.empty()) throw fail("policies list is empty");
    } else {
      throw fail("unknown directive: " + key);
    }
  }
  if (grid.cells.empty()) {
    throw std::runtime_error("sweep grid defines no topology cells");
  }
  return grid;
}

void write_sweep_json(std::ostream& os, const SweepReport& report,
                      bool include_timing) {
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  report.throughput_summary(mean, lo, hi);
  os << "{\"bench\":\"sweep\",\"schema\":1";
  if (include_timing) {
    os << ",\"jobs\":" << report.jobs << ",\"total_wall_ms\":"
       << num(report.total_wall_ms)
       << ",\"runs_per_sec\":" << num(report.runs_per_sec());
  }
  os << ",\"runs\":" << report.results.size()
     << ",\"completed\":" << report.completed()
     << ",\"failed\":" << report.failed()
     << ",\"cancelled\":" << report.cancelled()
     << ",\"weighted_throughput\":{\"mean\":" << num(mean)
     << ",\"min\":" << num(lo) << ",\"max\":" << num(hi) << "}";

  // Deterministic work totals over completed runs: bit-stable for a fixed
  // grid, so bench-diff hard-fails any drift. Emitted regardless of
  // --no-timing — they are part of the deterministic document.
  {
    std::uint64_t events = 0;
    std::uint64_t sdos = 0;
    std::uint64_t reopts = 0;
    for (const SweepRunResult& r : report.results) {
      if (r.status != SweepRunStatus::kOk) continue;
      events += r.summary.events_executed;
      sdos += r.summary.sdos_processed;
      reopts += r.summary.reoptimizations;
    }
    os << ",\"perf\":{\"instrumented\":"
       << (obs::perf_instrumented() ? "true" : "false")
       << ",\"work\":{\"events_executed\":" << events
       << ",\"sdos_processed\":" << sdos << ",\"reoptimizations\":" << reopts
       << "}";
    // Everything else in "perf" varies with machine, thread count, or
    // allocator, so it rides with the timing fields (--no-timing keeps the
    // document byte-comparable across --jobs).
    if (include_timing) {
      os << ",\"peak_rss_mb\":"
         << num(static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0))
         << ",\"alloc_count\":" << obs::alloc_count();
      write_probe_json(os, obs::process_metrics().snapshot());
    }
    os << "}";
  }

  // Per-policy latency/throughput aggregates over completed runs. Results
  // are visited in run-index order and keyed by policy name in a std::map,
  // so the block is byte-identical for any jobs count.
  struct PolicyAgg {
    std::size_t runs = 0;
    double throughput_sum = 0.0;
    double p50_sum = 0.0;
    double p99_sum = 0.0;
    double p50_max = 0.0;
    double p99_max = 0.0;
  };
  std::map<std::string, PolicyAgg> policies;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const SweepRunResult& r = report.results[i];
    if (r.status != SweepRunStatus::kOk) continue;
    PolicyAgg& agg = policies[control::to_string(report.configs[i].policy)];
    ++agg.runs;
    agg.throughput_sum += r.summary.weighted_throughput;
    agg.p50_sum += r.summary.latency_p50;
    agg.p99_sum += r.summary.latency_p99;
    agg.p50_max = std::max(agg.p50_max, r.summary.latency_p50);
    agg.p99_max = std::max(agg.p99_max, r.summary.latency_p99);
  }
  os << ",\"policies\":{";
  bool first_policy = true;
  for (const auto& [name, agg] : policies) {
    const double n = static_cast<double>(agg.runs);
    if (!first_policy) os << ",";
    first_policy = false;
    os << "\"" << escape_json(name) << "\":{\"runs\":" << agg.runs
       << ",\"weighted_throughput_mean\":" << num(agg.throughput_sum / n)
       << ",\"latency_ms_p50_mean\":" << num(agg.p50_sum / n * 1e3)
       << ",\"latency_ms_p99_mean\":" << num(agg.p99_sum / n * 1e3)
       << ",\"latency_ms_p50_max\":" << num(agg.p50_max * 1e3)
       << ",\"latency_ms_p99_max\":" << num(agg.p99_max * 1e3) << "}";
  }
  os << "}"
     << ",\"per_run\":[";
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const SweepRunConfig& cfg = report.configs[i];
    const SweepRunResult& r = report.results[i];
    if (i > 0) os << ",";
    os << "{\"index\":" << cfg.run_index << ",\"label\":\""
       << escape_json(cfg.label) << "\",\"policy\":\""
       << control::to_string(cfg.policy) << "\",\"topology_seed\":"
       << cfg.topology_seed << ",\"sim_seed\":" << cfg.sim_seed
       << ",\"status\":\"" << status_name(r.status) << "\"";
    if (include_timing) os << ",\"wall_ms\":" << num(r.wall_ms);
    if (r.status == SweepRunStatus::kOk) {
      os << ",";
      write_summary_fields(os, r.summary);
      // Per-run memory fields are polluted by concurrent runs (the alloc
      // delta and RSS high-water mark are process-global), so they are
      // timing-class: omitted from the deterministic document.
      if (include_timing) {
        os << ",\"peak_rss_mb\":" << num(r.summary.peak_rss_mb)
           << ",\"alloc_count\":" << r.summary.alloc_count;
      }
    } else if (r.status == SweepRunStatus::kFailed) {
      os << ",\"error\":\"" << escape_json(r.error) << "\"";
    }
    os << "}";
  }
  os << "]}\n";
}

void write_sweep_trace_jsonl(std::ostream& os, const SweepReport& report) {
  for (const SweepRunResult& r : report.results) {
    if (!r.trace.empty()) obs::write_trace_jsonl(os, r.trace);
  }
}

std::string sweep_fingerprint(const SweepReport& report) {
  std::ostringstream os;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const SweepRunConfig& cfg = report.configs[i];
    const SweepRunResult& r = report.results[i];
    os << i << '|' << cfg.label << '|' << cfg.topology_seed << '|'
       << cfg.sim_seed << '|' << status_name(r.status);
    if (r.status == SweepRunStatus::kOk) {
      const RunSummary& s = r.summary;
      for (const double v :
           {s.weighted_throughput, s.fluid_bound, s.latency_mean,
            s.latency_std, s.latency_p50, s.latency_p99,
            s.ingress_drops_per_sec,
            s.internal_drops_per_sec, s.cpu_utilization, s.buffer_fill_mean,
            s.output_rate}) {
        os << '|' << hex(v);
      }
      os << '|' << s.events_executed << '|' << s.sdos_processed << '|'
         << s.reoptimizations;
    } else if (r.status == SweepRunStatus::kFailed) {
      os << '|' << r.error;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace aces::harness
