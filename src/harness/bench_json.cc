#include "harness/bench_json.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <utility>

#include "obs/registry.h"

namespace aces::harness {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string escape_json(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_probe_json(std::ostream& os, const obs::MetricsSnapshot& snapshot) {
  bool open = false;
  for (const obs::TimerSample& t : snapshot.timers) {
    if (t.calls == 0) continue;
    os << (open ? "," : ",\"stages\":{") << "\"" << escape_json(t.name)
       << "\":{\"calls\":" << t.calls << ",\"ns\":" << t.ns
       << ",\"ns_per_call\":"
       << num(static_cast<double>(t.ns) / static_cast<double>(t.calls)) << "}";
    open = true;
  }
  if (open) os << "}";
  open = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (value == 0) continue;
    os << (open ? "," : ",\"events\":{") << "\"" << escape_json(name)
       << "\":" << value;
    open = true;
  }
  if (open) os << "}";
}

BenchJsonWriter::BenchJsonWriter(std::string bench_name)
    : name_(std::move(bench_name)) {}

void BenchJsonWriter::add_run(const std::string& label, double wall_ms,
                              double weighted_throughput, double latency_p50,
                              double latency_p99) {
  runs_.push_back(
      Run{label, wall_ms, weighted_throughput, latency_p50, latency_p99});
}

void BenchJsonWriter::set_perf_work(std::uint64_t events_executed,
                                    std::uint64_t sdos_processed,
                                    std::uint64_t reoptimizations) {
  has_perf_ = true;
  events_executed_ = events_executed;
  sdos_processed_ = sdos_processed;
  reoptimizations_ = reoptimizations;
}

void BenchJsonWriter::set_perf_memory(double peak_rss_mb,
                                      std::uint64_t alloc_count) {
  has_perf_ = true;
  peak_rss_mb_ = peak_rss_mb;
  alloc_count_ = alloc_count;
}

std::string BenchJsonWriter::to_json() const {
  double total_ms = 0.0;
  double mean = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  std::size_t measured = 0;
  for (const Run& r : runs_) {
    total_ms += r.wall_ms;
    if (r.weighted_throughput < 0.0) continue;
    if (measured == 0) {
      lo = hi = r.weighted_throughput;
    } else {
      lo = std::min(lo, r.weighted_throughput);
      hi = std::max(hi, r.weighted_throughput);
    }
    mean += r.weighted_throughput;
    ++measured;
  }
  if (measured > 0) mean /= static_cast<double>(measured);

  std::ostringstream os;
  os << "{\"bench\":\"" << escape_json(name_) << "\",\"schema\":1"
     << ",\"runs\":" << runs_.size()
     << ",\"total_wall_ms\":" << num(total_ms) << ",\"runs_per_sec\":"
     << num(total_ms > 0.0
                ? static_cast<double>(runs_.size()) / (total_ms / 1e3)
                : 0.0);
  if (measured > 0) {
    os << ",\"weighted_throughput\":{\"mean\":" << num(mean)
       << ",\"min\":" << num(lo) << ",\"max\":" << num(hi) << "}";
  }
  if (has_perf_) {
    // "work" holds the deterministic totals (bench-diff: zero tolerance);
    // everything else in "perf" is timing/memory/probe telemetry that
    // varies run to run and only ever soft-fails or informs.
    os << ",\"perf\":{\"instrumented\":"
       << (obs::perf_instrumented() ? "true" : "false")
       << ",\"work\":{\"events_executed\":" << events_executed_
       << ",\"sdos_processed\":" << sdos_processed_
       << ",\"reoptimizations\":" << reoptimizations_ << "}"
       << ",\"peak_rss_mb\":" << num(peak_rss_mb_)
       << ",\"alloc_count\":" << alloc_count_;
    write_probe_json(os, obs::process_metrics().snapshot());
    os << "}";
  }
  os << ",\"per_run\":[";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    const Run& r = runs_[i];
    if (i > 0) os << ",";
    os << "{\"label\":\"" << escape_json(r.label) << "\",\"wall_ms\":"
       << num(r.wall_ms);
    if (r.weighted_throughput >= 0.0) {
      os << ",\"weighted_throughput\":" << num(r.weighted_throughput);
    }
    if (r.latency_p50 >= 0.0) {
      os << ",\"latency_p50\":" << num(r.latency_p50);
    }
    if (r.latency_p99 >= 0.0) {
      os << ",\"latency_p99\":" << num(r.latency_p99);
    }
    os << "}";
  }
  os << "]}\n";
  return os.str();
}

bool BenchJsonWriter::write_file(const std::string& path) const {
  if (path.empty()) return true;
  std::ofstream file(path);
  if (!file) {
    std::cerr << "cannot open bench json output: " << path << '\n';
    return false;
  }
  file << to_json();
  std::cerr << "wrote " << runs_.size() << " bench records to " << path
            << '\n';
  return static_cast<bool>(file);
}

}  // namespace aces::harness
