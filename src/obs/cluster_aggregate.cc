#include "obs/cluster_aggregate.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <sstream>

#include "obs/export.h"

namespace aces::obs {

namespace {

/// Human/scrape formatting, never fingerprinted.
std::string fmt(double v) {
  char buf[40];
  // aces-lint: allow(float-format) status/report exposition for humans and scrapers
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

/// Spans kept per shard as standing flight evidence: as many as the
/// worker's own flight ring holds (workers keep the default capacity).
const std::size_t kRingCapacity = SpanTracerOptions{}.ring_capacity;

}  // namespace

ClusterAggregator::Shard& ClusterAggregator::shard(std::uint32_t rank) {
  return shards_[rank];
}

void ClusterAggregator::note_shard(std::uint32_t rank) {
  MutexLock lock(mutex_);
  shard(rank).status.alive = true;
}

void ClusterAggregator::note_quantum(std::uint32_t rank,
                                     std::uint64_t quantum) {
  MutexLock lock(mutex_);
  ShardStatus& s = shard(rank).status;
  s.last_quantum = std::max(s.last_quantum, quantum);
}

void ClusterAggregator::note_shard_dead(std::uint32_t rank) {
  MutexLock lock(mutex_);
  shard(rank).status.alive = false;
}

void ClusterAggregator::record_rtt(std::uint32_t rank, double seconds) {
  MutexLock lock(mutex_);
  shard(rank).status.rtt_seconds.add(seconds);
}

void ClusterAggregator::record_step_skew(double seconds) {
  MutexLock lock(mutex_);
  skew_seconds_.add(seconds);
}

void ClusterAggregator::record_frame_sent(std::uint32_t rank,
                                          std::size_t bytes) {
  MutexLock lock(mutex_);
  ShardStatus& s = shard(rank).status;
  s.frames_out += 1;
  s.bytes_out += bytes;
}

void ClusterAggregator::record_frame_received(std::uint32_t rank,
                                              std::size_t bytes) {
  MutexLock lock(mutex_);
  ShardStatus& s = shard(rank).status;
  s.frames_in += 1;
  s.bytes_in += bytes;
}

void ClusterAggregator::record_decode_reject(std::uint32_t rank) {
  MutexLock lock(mutex_);
  shard(rank).status.decode_rejects += 1;
}

void ClusterAggregator::record_heartbeat(std::uint32_t rank) {
  MutexLock lock(mutex_);
  shard(rank).status.heartbeats += 1;
}

void ClusterAggregator::record_relay_dropped(std::uint32_t rank,
                                             std::uint64_t count) {
  MutexLock lock(mutex_);
  shard(rank).status.relay_dropped += count;
}

void ClusterAggregator::absorb_counters(
    std::uint32_t rank,
    const std::vector<std::pair<std::string, std::uint64_t>>& deltas) {
  MutexLock lock(mutex_);
  Shard& s = shard(rank);
  s.status.metrics_reports += 1;
  for (const auto& [name, delta] : deltas) s.counters[name] += delta;
}

void ClusterAggregator::absorb_gauge(std::uint32_t rank,
                                     const std::string& name, double value) {
  MutexLock lock(mutex_);
  shard(rank).gauges[name] = value;
}

void ClusterAggregator::absorb_perf(std::uint32_t rank, const std::string& name,
                                    std::uint64_t calls, std::uint64_t ns) {
  MutexLock lock(mutex_);
  shard(rank).perf[name] = PerfTotals{calls, ns};
}

void ClusterAggregator::absorb_trace(std::uint32_t rank, TickRecord record) {
  MutexLock lock(mutex_);
  record.shard = static_cast<std::int32_t>(rank);
  trace_.push_back(std::move(record));
}

void ClusterAggregator::absorb_spans(std::uint32_t rank,
                                     const std::vector<SdoSpan>& spans) {
  MutexLock lock(mutex_);
  Shard& s = shard(rank);
  for (const SdoSpan& span : spans) {
    spans_completed_ += 1;
    for (std::uint32_t i = 0; i < span.hop_count; ++i) {
      if (span.hops[i].kind != static_cast<std::uint32_t>(HopKind::kPe)) {
        spans_stitched_ += 1;
        break;
      }
    }
    record_span_latency(s.latency, span);
    s.recent.push_back(span);
    if (s.recent.size() > kRingCapacity) s.recent.pop_front();
    if (!span.completed()) continue;
    const double transport = span.transport_time();
    transport_seconds_.add(transport);
    compute_seconds_.add(span.latency() - transport);
    // Bounded slowest-first list, same policy as SpanTracer's worst_k.
    constexpr std::size_t kWorst = 8;
    const auto at = std::upper_bound(
        worst_.begin(), worst_.end(), span,
        [](const SdoSpan& a, const SdoSpan& b) {
          return a.latency() > b.latency();
        });
    worst_.insert(at, span);
    if (worst_.size() > kWorst) worst_.resize(kWorst);
  }
}

void ClusterAggregator::absorb_flight_dump(std::uint32_t rank,
                                           FlightDump dump) {
  MutexLock lock(mutex_);
  Shard& s = shard(rank);
  s.status.flight_dumps += 1;
  s.dump = std::move(dump);
}

std::size_t ClusterAggregator::shard_count() const {
  MutexLock lock(mutex_);
  return shards_.size();
}

std::size_t ClusterAggregator::shards_alive() const {
  MutexLock lock(mutex_);
  std::size_t alive = 0;
  for (const auto& [rank, s] : shards_) {
    if (s.status.alive) ++alive;
  }
  return alive;
}

std::vector<std::pair<std::string, std::uint64_t>>
ClusterAggregator::cluster_counters() const {
  MutexLock lock(mutex_);
  std::map<std::string, std::uint64_t> totals;
  for (const auto& [rank, s] : shards_) {
    for (const auto& [name, value] : s.counters) totals[name] += value;
  }
  return {totals.begin(), totals.end()};
}

LatencyRegistry ClusterAggregator::merged_latency() const {
  MutexLock lock(mutex_);
  LatencyRegistry merged;
  for (const auto& [rank, s] : shards_) merged.merge(s.latency);
  return merged;
}

double ClusterAggregator::max_step_skew() const {
  MutexLock lock(mutex_);
  return skew_seconds_.empty() ? 0.0 : skew_seconds_.max();
}

std::map<std::uint32_t, ShardStatus> ClusterAggregator::shard_statuses()
    const {
  MutexLock lock(mutex_);
  std::map<std::uint32_t, ShardStatus> out;
  for (const auto& [rank, s] : shards_) out.emplace(rank, s.status);
  return out;
}

std::map<std::uint32_t, std::vector<SdoSpan>>
ClusterAggregator::recent_spans() const {
  MutexLock lock(mutex_);
  std::map<std::uint32_t, std::vector<SdoSpan>> out;
  for (const auto& [rank, s] : shards_) {
    if (!s.recent.empty()) out[rank].assign(s.recent.begin(), s.recent.end());
  }
  return out;
}

std::map<std::uint32_t, FlightDump> ClusterAggregator::flight_dumps()
    const {
  MutexLock lock(mutex_);
  std::map<std::uint32_t, FlightDump> out;
  for (const auto& [rank, s] : shards_) {
    if (s.dump.has_value()) out.emplace(rank, *s.dump);
  }
  return out;
}

std::vector<TickRecord> ClusterAggregator::trace_records() const {
  MutexLock lock(mutex_);
  std::vector<TickRecord> out = trace_;
  std::stable_sort(out.begin(), out.end(),
                   [](const TickRecord& a, const TickRecord& b) {
                     if (a.time != b.time) return a.time < b.time;
                     if (a.node != b.node) return a.node < b.node;
                     if (a.pe != b.pe) return a.pe < b.pe;
                     return a.shard < b.shard;
                   });
  return out;
}

namespace {

/// One gauge-typed sample with optional labels; header emitted once.
void prom_gauge(std::ostream& os, const char* name, const char* help,
                const PrometheusLabels& labels, double value,
                bool& header_done) {
  if (!header_done) {
    os << "# HELP " << name << ' ' << help << '\n';
    os << "# TYPE " << name << " gauge\n";
    header_done = true;
  }
  os << name;
  if (!labels.empty()) {
    os << '{';
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) os << ',';
      os << labels[i].first << "=\"" << prometheus_label_escape(labels[i].second)
         << '"';
    }
    os << '}';
  }
  os << ' ' << fmt(value) << '\n';
}

/// Counter-typed variant of prom_gauge for integer monotonic samples.
void prom_counter(std::ostream& os, const char* name, const char* help,
                  const PrometheusLabels& labels, std::uint64_t value,
                  bool& header_done) {
  if (!header_done) {
    os << "# HELP " << name << ' ' << help << '\n';
    os << "# TYPE " << name << " counter\n";
    header_done = true;
  }
  os << name;
  if (!labels.empty()) {
    os << '{';
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (i > 0) os << ',';
      os << labels[i].first << "=\"" << prometheus_label_escape(labels[i].second)
         << '"';
    }
    os << '}';
  }
  os << ' ' << value << '\n';
}

}  // namespace

void ClusterAggregator::write_prometheus(std::ostream& os) const {
  MutexLock lock(mutex_);
  bool hdr;

  hdr = false;
  prom_gauge(os, "aces_cluster_shards", "Worker shards ever seen", {},
             static_cast<double>(shards_.size()), hdr);
  std::size_t alive = 0;
  for (const auto& [rank, s] : shards_) alive += s.status.alive ? 1 : 0;
  hdr = false;
  prom_gauge(os, "aces_cluster_shards_alive", "Worker shards currently alive",
             {}, static_cast<double>(alive), hdr);
  hdr = false;
  prom_gauge(os, "aces_barrier_skew_seconds_max",
             "Largest StepDone spread across one quantum", {},
             skew_seconds_.empty() ? 0.0 : skew_seconds_.max(), hdr);
  hdr = false;
  prom_gauge(os, "aces_barrier_skew_seconds_mean",
             "Mean StepDone spread across quanta", {}, skew_seconds_.mean(),
             hdr);
  hdr = false;
  prom_gauge(os, "aces_cluster_transport_seconds_mean",
             "Mean per-span wire-crossing time", {},
             transport_seconds_.mean(), hdr);
  hdr = false;
  prom_gauge(os, "aces_cluster_compute_seconds_mean",
             "Mean per-span in-shard time", {}, compute_seconds_.mean(), hdr);
  hdr = false;
  prom_counter(os, "aces_cluster_spans_completed_total",
               "Spans finalized cluster-wide", {}, spans_completed_, hdr);
  hdr = false;
  prom_counter(os, "aces_cluster_spans_stitched_total",
               "Completed spans that crossed a process boundary", {},
               spans_stitched_, hdr);

  bool up_hdr = false, quantum_hdr = false, rtt_hdr = false;
  bool frames_hdr = false, bytes_hdr = false, reject_hdr = false;
  bool hb_hdr = false, relay_hdr = false;
  for (const auto& [rank, s] : shards_) {
    const std::string shard_label = std::to_string(rank);
    prom_gauge(os, "aces_shard_up", "1 while the shard is alive",
               {{"shard", shard_label}}, s.status.alive ? 1.0 : 0.0, up_hdr);
    prom_gauge(os, "aces_shard_last_quantum",
               "Newest barrier quantum heard from the shard",
               {{"shard", shard_label}},
               static_cast<double>(s.status.last_quantum), quantum_hdr);
    if (!s.status.rtt_seconds.empty()) {
      prom_gauge(os, "aces_shard_rtt_seconds",
                 "Barrier round-trip wall time (StepGo to StepDone)",
                 {{"shard", shard_label}, {"stat", "mean"}},
                 s.status.rtt_seconds.mean(), rtt_hdr);
      prom_gauge(os, "aces_shard_rtt_seconds",
                 "Barrier round-trip wall time (StepGo to StepDone)",
                 {{"shard", shard_label}, {"stat", "max"}},
                 s.status.rtt_seconds.max(), rtt_hdr);
    }
    prom_counter(os, "aces_shard_frames_total", "Frames per endpoint",
                 {{"shard", shard_label}, {"direction", "in"}},
                 s.status.frames_in, frames_hdr);
    prom_counter(os, "aces_shard_frames_total", "Frames per endpoint",
                 {{"shard", shard_label}, {"direction", "out"}},
                 s.status.frames_out, frames_hdr);
    prom_counter(os, "aces_shard_bytes_total", "Bytes per endpoint",
                 {{"shard", shard_label}, {"direction", "in"}},
                 s.status.bytes_in, bytes_hdr);
    prom_counter(os, "aces_shard_bytes_total", "Bytes per endpoint",
                 {{"shard", shard_label}, {"direction", "out"}},
                 s.status.bytes_out, bytes_hdr);
    prom_counter(os, "aces_shard_decode_rejects_total",
                 "Frames from the shard that failed to decode",
                 {{"shard", shard_label}}, s.status.decode_rejects,
                 reject_hdr);
    prom_counter(os, "aces_shard_heartbeats_total",
                 "Heartbeats received from the shard",
                 {{"shard", shard_label}}, s.status.heartbeats, hb_hdr);
    prom_counter(os, "aces_shard_relay_dropped_total",
                 "Span handoffs dropped because the destination died",
                 {{"shard", shard_label}}, s.status.relay_dropped, relay_hdr);
  }

  bool counter_hdr = false, gauge_hdr = false;
  bool perf_calls_hdr = false, perf_ns_hdr = false;
  for (const auto& [rank, s] : shards_) {
    const std::string shard_label = std::to_string(rank);
    for (const auto& [name, value] : s.counters) {
      prom_counter(os, "aces_cluster_counter_total",
                   "Worker counter, summed deltas per shard",
                   {{"name", name}, {"shard", shard_label}}, value,
                   counter_hdr);
    }
    for (const auto& [name, value] : s.gauges) {
      prom_gauge(os, "aces_cluster_gauge", "Worker gauge, last value wins",
                 {{"name", name}, {"shard", shard_label}}, value, gauge_hdr);
    }
    for (const auto& [name, totals] : s.perf) {
      prom_counter(os, "aces_perf_stage_calls_total",
                   "Worker timer call count",
                   {{"stage", name}, {"shard", shard_label}}, totals.calls,
                   perf_calls_hdr);
      prom_counter(os, "aces_perf_stage_ns_total",
                   "Worker timer nanoseconds",
                   {{"stage", name}, {"shard", shard_label}}, totals.ns,
                   perf_ns_hdr);
    }
  }

  bool wait_hdr = false, service_hdr = false, path_hdr = false;
  for (const auto& [rank, s] : shards_) {
    const std::string shard_label = std::to_string(rank);
    for (const auto& [pe, stats] : s.latency.pes()) {
      prometheus_summary(os, "aces_pe_wait_seconds",
                         "Queue wait (enqueue to dequeue) per PE",
                         {{"pe", std::to_string(pe)}, {"shard", shard_label}},
                         stats.wait, wait_hdr);
    }
    for (const auto& [pe, stats] : s.latency.pes()) {
      prometheus_summary(os, "aces_pe_service_seconds",
                         "Service time (dequeue to emit) per PE",
                         {{"pe", std::to_string(pe)}, {"shard", shard_label}},
                         stats.service, service_hdr);
    }
    for (const auto& [id, stats] : s.latency.paths()) {
      prometheus_histogram(os, "aces_path_latency_seconds",
                           "End-to-end latency per source-to-sink path",
                           {{"path", stats.label}, {"shard", shard_label}},
                           stats.end_to_end, path_hdr);
    }
  }
}

void ClusterAggregator::write_status(std::ostream& os) const {
  MutexLock lock(mutex_);
  os << "aces_cluster_shards " << shards_.size() << '\n';
  std::size_t alive = 0;
  std::uint64_t quantum_max = 0;
  for (const auto& [rank, s] : shards_) {
    alive += s.status.alive ? 1 : 0;
    quantum_max = std::max(quantum_max, s.status.last_quantum);
  }
  os << "aces_cluster_shards_alive " << alive << '\n';
  os << "aces_cluster_quantum_max " << quantum_max << '\n';
  os << "aces_cluster_barrier_skew_seconds_max "
     << fmt(skew_seconds_.empty() ? 0.0 : skew_seconds_.max()) << '\n';
  os << "aces_cluster_barrier_skew_seconds_mean " << fmt(skew_seconds_.mean())
     << '\n';
  os << "aces_cluster_spans_completed " << spans_completed_ << '\n';
  os << "aces_cluster_spans_stitched " << spans_stitched_ << '\n';
  os << "aces_cluster_transport_seconds_mean "
     << fmt(transport_seconds_.mean()) << '\n';
  os << "aces_cluster_compute_seconds_mean " << fmt(compute_seconds_.mean())
     << '\n';
  os << "aces_cluster_trace_records " << trace_.size() << '\n';
  for (const auto& [rank, s] : shards_) {
    const std::string p = "aces_shard_" + std::to_string(rank) + '_';
    os << p << "alive " << (s.status.alive ? 1 : 0) << '\n';
    os << p << "quantum " << s.status.last_quantum << '\n';
    os << p << "rtt_seconds_mean " << fmt(s.status.rtt_seconds.mean()) << '\n';
    os << p << "rtt_seconds_max "
       << fmt(s.status.rtt_seconds.empty() ? 0.0 : s.status.rtt_seconds.max())
       << '\n';
    os << p << "frames_in " << s.status.frames_in << '\n';
    os << p << "frames_out " << s.status.frames_out << '\n';
    os << p << "bytes_in " << s.status.bytes_in << '\n';
    os << p << "bytes_out " << s.status.bytes_out << '\n';
    os << p << "decode_rejects " << s.status.decode_rejects << '\n';
    os << p << "heartbeats " << s.status.heartbeats << '\n';
    os << p << "metrics_reports " << s.status.metrics_reports << '\n';
    os << p << "flight_dumps " << s.status.flight_dumps << '\n';
    os << p << "relay_dropped " << s.status.relay_dropped << '\n';
  }
}

void ClusterAggregator::write_report(std::ostream& os) const {
  // Renders from the public accessors (each takes the lock) rather than
  // holding the mutex across the whole report.
  const auto statuses = shard_statuses();
  const auto counters = cluster_counters();
  const LatencyRegistry merged = merged_latency();
  const auto recent = recent_spans();
  const auto dumps = flight_dumps();

  std::size_t alive = 0;
  std::uint64_t quantum_max = 0;
  for (const auto& [rank, s] : statuses) {
    alive += s.alive ? 1 : 0;
    quantum_max = std::max(quantum_max, s.last_quantum);
  }
  os << "cluster: " << statuses.size() << " shard"
     << (statuses.size() == 1 ? "" : "s") << ", " << alive
     << " alive, quantum " << quantum_max << ", barrier skew max "
     << fmt(max_step_skew() * 1e3) << " ms\n";
  {
    MutexLock lock(mutex_);
    os << "spans: completed=" << spans_completed_
       << " stitched=" << spans_stitched_
       << " transport_mean=" << fmt(transport_seconds_.mean() * 1e3)
       << "ms compute_mean=" << fmt(compute_seconds_.mean() * 1e3) << "ms\n";
  }

  os << "\nshard  state  quantum  rtt_mean_ms  rtt_max_ms  frames(in/out)  "
        "bytes(in/out)  rejects  heartbeats  relay_drop\n";
  for (const auto& [rank, s] : statuses) {
    char line[256];
    std::snprintf(
        line, sizeof line,
        // aces-lint: allow(float-format) human shard table, never diffed
        "%5u  %-5s  %7llu  %11.3f  %10.3f  %6llu/%-7llu  %6llu/%-7llu  "
        "%7llu  %10llu  %10llu",
        rank, s.alive ? "up" : "dead",
        static_cast<unsigned long long>(s.last_quantum),
        s.rtt_seconds.mean() * 1e3,
        (s.rtt_seconds.empty() ? 0.0 : s.rtt_seconds.max()) * 1e3,
        static_cast<unsigned long long>(s.frames_in),
        static_cast<unsigned long long>(s.frames_out),
        static_cast<unsigned long long>(s.bytes_in),
        static_cast<unsigned long long>(s.bytes_out),
        static_cast<unsigned long long>(s.decode_rejects),
        static_cast<unsigned long long>(s.heartbeats),
        static_cast<unsigned long long>(s.relay_dropped));
    os << line << '\n';
  }

  if (!counters.empty()) {
    os << "\ncluster counters (summed across shards):\n";
    for (const auto& [name, value] : counters) {
      os << "  " << name << " = " << value << '\n';
    }
  }

  if (!merged.pes().empty()) {
    os << "\nmerged per-PE latency (seconds):\n";
    os << "   pe        n  wait_p50  wait_p99  svc_p50   svc_p99\n";
    for (const auto& [pe, stats] : merged.pes()) {
      const LatencyQuantiles w = quantiles_of(stats.wait);
      const LatencyQuantiles v = quantiles_of(stats.service);
      char line[160];
      std::snprintf(line, sizeof line,
                    // aces-lint: allow(float-format) human table, not diffed
                    "%5u  %7llu  %8.2g  %8.2g  %8.2g  %8.2g", pe,
                    static_cast<unsigned long long>(w.count), w.p50, w.p99,
                    v.p50, v.p99);
      os << line << '\n';
    }
  }
  if (!merged.paths().empty()) {
    os << "\nmerged per-path latency (seconds):\n";
    os << "  path: n p50 p99 max\n";
    for (const auto& [id, stats] : merged.paths()) {
      const LatencyQuantiles q = quantiles_of(stats.end_to_end);
      os << "  " << stats.label << ": " << q.count << ' ' << fmt(q.p50) << ' '
         << fmt(q.p99) << ' ' << fmt(q.max) << '\n';
    }
  }

  {
    MutexLock lock(mutex_);
    if (!worst_.empty()) {
      os << "\nslowest completed spans:\n";
      for (const SdoSpan& span : worst_) {
        os << "  trace " << span.trace_id << " path "
           << path_label(span.hop_pes()) << " latency "
           << fmt(span.latency() * 1e3) << "ms transport "
           << fmt(span.transport_time() * 1e3) << "ms\n";
      }
    }
  }

  if (!recent.empty() || !dumps.empty()) {
    os << "\nflight-recorder evidence (standing ring, newest fault dump):\n";
    for (const auto& [rank, status] : statuses) {
      const auto ring = recent.find(rank);
      const auto dump = dumps.find(rank);
      if (ring == recent.end() && dump == dumps.end()) continue;
      os << "  shard " << rank << (status.alive ? "" : " [DEAD]") << ": "
         << (ring == recent.end() ? 0 : ring->second.size())
         << " recent spans";
      if (ring != recent.end()) {
        os << " (newest ended t=" << fmt(ring->second.back().end) << ')';
      }
      if (dump != dumps.end()) {
        os << "; fault dump event=" << dump->second.event
           << " t=" << fmt(dump->second.time)
           << " pushed=" << dump->second.pushed
           << " recent=" << dump->second.recent.size()
           << " in_flight=" << dump->second.in_flight.size();
      }
      os << '\n';
    }
  }
}

// ---------------------------------------------------------------------------
// StatusServer

StatusServer::StatusServer(const ClusterAggregator* aggregator,
                           std::uint16_t port)
    : aggregator_(aggregator) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    error_ = std::string("socket: ") + std::strerror(errno);
    return;
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    error_ = std::string("bind: ") + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return;
  }
  if (::listen(fd_, 16) != 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  thread_ = std::thread(&StatusServer::serve_loop, this);
}

StatusServer::~StatusServer() { stop(); }

void StatusServer::stop() {
  stopping_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void StatusServer::serve_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client < 0) continue;
    std::ostringstream body;
    aggregator_->write_status(body);
    const std::string text = body.str();
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = ::send(client, text.data() + sent, text.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(client);
  }
}

}  // namespace aces::obs
