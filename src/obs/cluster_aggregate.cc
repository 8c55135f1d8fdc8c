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
#include <string_view>

#include "obs/export.h"

namespace aces::obs {

namespace {

/// Spans kept per shard as standing flight evidence: as many as the
/// worker's own flight ring holds (workers keep the default capacity).
const std::size_t kRingCapacity = SpanTracerOptions{}.ring_capacity;

/// The prefix of every shard-labelled family.
constexpr std::string_view kShardFamily = "aces_shard_";

/// `text` with every character outside [A-Za-z0-9_.:-] written as `%XX`:
/// a worker-supplied name can neither split a `key value` line nor start
/// a new one, and two names never share a key.
std::string key_safe(const std::string& text) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (const char c : text) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':' ||
        c == '-') {
      out.push_back(c);
    } else {
      const auto byte = static_cast<unsigned char>(c);
      out += {'%', kHex[byte >> 4], kHex[byte & 0xF]};
    }
  }
  return out;
}

/// The value of `e`'s `shard` label; empty for a cluster-wide entry.
std::string shard_of(const MetricEntry& e) {
  for (const auto& [name, value] : e.labels) {
    if (name == "shard") return value;
  }
  return {};
}

/// The status key: the family, then `_<value>` for each label but
/// `shard`, whose rank goes after the `aces_shard_` prefix instead
/// (`aces_shard_frames{shard="2",direction="in"}` is
/// `aces_shard_2_frames_in`).
std::string status_key(const MetricEntry& e) {
  std::string key = e.family;
  for (const auto& [name, value] : e.labels) {
    if (name == "shard") {
      key.insert(kShardFamily.size(), value + '_');
    } else {
      key += '_';
      key += key_safe(value);
    }
  }
  return key;
}

/// An empty OnlineStats reads 0 everywhere (its max() is -inf).
double max_or_zero(const OnlineStats& stats) {
  return stats.empty() ? 0.0 : stats.max();
}

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
  return live_shards();
}

std::size_t ClusterAggregator::live_shards() const {
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

std::vector<MetricEntry> ClusterAggregator::metrics() const {
  using enum MetricType;
  std::uint64_t quantum_max = 0;
  for (const auto& [rank, s] : shards_) {
    quantum_max = std::max(quantum_max, s.status.last_quantum);
  }
  const char* const skew_help =
      "Wall time between the first and last StepDone of one segment";
  std::vector<MetricEntry> out = {
      {"aces_cluster_shards", "Worker shards ever seen", kGauge, {},
       std::uint64_t{shards_.size()}},
      {"aces_cluster_shards_alive", "Worker shards currently alive", kGauge,
       {}, std::uint64_t{live_shards()}},
      {"aces_cluster_quantum_max",
       "Newest quantum heard from any shard", kGauge, {}, quantum_max},
      {"aces_cluster_barrier_skew_seconds", skew_help, kGauge,
       {{"stat", "max"}}, max_or_zero(skew_seconds_)},
      {"aces_cluster_barrier_skew_seconds", skew_help, kGauge,
       {{"stat", "mean"}}, skew_seconds_.mean()},
      {"aces_cluster_spans_completed",
       "Spans finalized in any shard, dropped ones included", kCounter, {},
       spans_completed_},
      {"aces_cluster_spans_stitched",
       "Finalized spans, dropped ones included, with a wire hop: they "
       "crossed a node boundary through the coordinator",
       kCounter, {}, spans_stitched_},
      {"aces_cluster_trace_records", "Control-tick trace records absorbed",
       kCounter, {}, std::uint64_t{trace_.size()}},
  };
  const char* const rtt =
      "Segment round-trip wall time (StepGo to StepDone)";
  const char* const frames = "Frames per endpoint";
  const char* const bytes = "Header and payload bytes per endpoint";
  for (const auto& [rank, s] : shards_) {
    // A shard's entries carry its `shard` label first.
    const auto add = [&out, shard = std::to_string(rank)](
                         const char* family, const char* help,
                         MetricType type, MetricValue value,
                         PrometheusLabels labels = {}) {
      labels.insert(labels.begin(), {"shard", shard});
      out.push_back({family, help, type, std::move(labels), value});
    };
    const ShardStatus& st = s.status;
    add("aces_shard_up", "1 while the shard is alive", kGauge,
        std::uint64_t{st.alive});
    add("aces_shard_last_quantum",
        "Newest quantum heard from the shard", kGauge,
        st.last_quantum);
    add("aces_shard_rtt_seconds", rtt, kGauge, st.rtt_seconds.mean(),
        {{"stat", "mean"}});
    add("aces_shard_rtt_seconds", rtt, kGauge, max_or_zero(st.rtt_seconds),
        {{"stat", "max"}});
    add("aces_shard_frames", frames, kCounter, st.frames_in,
        {{"direction", "in"}});
    add("aces_shard_frames", frames, kCounter, st.frames_out,
        {{"direction", "out"}});
    add("aces_shard_bytes", bytes, kCounter, st.bytes_in,
        {{"direction", "in"}});
    add("aces_shard_bytes", bytes, kCounter, st.bytes_out,
        {{"direction", "out"}});
    add("aces_shard_decode_rejects",
        "Frames from the shard that failed to decode", kCounter,
        st.decode_rejects);
    add("aces_shard_heartbeats", "Heartbeats received from the shard",
        kCounter, st.heartbeats);
    add("aces_shard_metrics_reports",
        "MetricsReport frames absorbed from the shard", kCounter,
        st.metrics_reports);
    add("aces_shard_flight_dumps", "Fault dumps received from the shard",
        kCounter, st.flight_dumps);
    add("aces_shard_relay_dropped",
        "Span handoffs dropped because the destination died", kCounter,
        st.relay_dropped);
    for (const auto& [name, value] : s.counters) {
      add("aces_shard_counter", "Worker counter, summed deltas", kCounter,
          value, {{"name", name}});
    }
    for (const auto& [name, value] : s.gauges) {
      add("aces_shard_gauge", "Worker gauge, last value wins", kGauge, value,
          {{"name", name}});
    }
    for (const auto& [name, totals] : s.perf) {
      add("aces_shard_timer_calls", "Worker timer calls", kCounter,
          totals.calls, {{"name", name}});
      add("aces_shard_timer_ns", "Worker timer nanoseconds", kCounter,
          totals.ns, {{"name", name}});
    }
  }
  // Each family's entries adjacent, as Prometheus wants them: families in
  // order of first appearance, shards in rank order within each.
  std::map<std::string_view, std::size_t> first;
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (first, index)
  order.reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    order.emplace_back(first.try_emplace(out[i].family, i).first->second, i);
  }
  std::sort(order.begin(), order.end());
  std::vector<MetricEntry> grouped;
  grouped.reserve(out.size());
  for (const auto& [family, i] : order) grouped.push_back(std::move(out[i]));
  return grouped;
}

void ClusterAggregator::write_prometheus(std::ostream& os) const {
  MutexLock lock(mutex_);
  write_prometheus_metrics(os, metrics());
  std::vector<LabelledLatency> registries;
  for (const auto& [rank, s] : shards_) {
    registries.push_back({{{"shard", std::to_string(rank)}}, &s.latency});
  }
  write_prometheus_latency(os, registries);
}

void ClusterAggregator::write_status(std::ostream& os) const {
  MutexLock lock(mutex_);
  for (const MetricEntry& e : metrics()) {
    os << status_key(e) << ' ' << format_value(e.value) << '\n';
  }
}

void ClusterAggregator::write_report(std::ostream& os) const {
  MutexLock lock(mutex_);
  // Cluster-wide entries print as status lines. Per-shard ones fill the
  // shard table: a row per key, a column per shard, a total for counters.
  std::vector<std::string> header = {"shard"};
  std::map<std::string, std::size_t> column_of;
  for (const auto& [rank, s] : shards_) {
    column_of[std::to_string(rank)] = header.size();
    header.push_back(std::to_string(rank) + (s.status.alive ? "" : "[DEAD]"));
  }
  header.push_back("total");
  std::vector<std::vector<std::string>> table = {header};
  std::map<std::size_t, std::uint64_t> totals;  // by row, counters only
  std::map<std::string, std::size_t> row_of;
  os << "cluster:\n";
  for (const MetricEntry& e : metrics()) {
    const std::string shard = shard_of(e);
    if (shard.empty()) {
      os << "  " << status_key(e) << ' ' << format_value(e.value) << '\n';
      continue;
    }
    const std::string key =
        status_key(e).substr(kShardFamily.size() + shard.size() + 1);
    const auto [at, added] = row_of.try_emplace(key, table.size());
    if (added) {
      table.emplace_back(header.size(), "-");
      table.back().front() = key;
      table.back().back().clear();
    }
    table[at->second][column_of.at(shard)] = format_value(e.value);
    if (e.type == MetricType::kCounter) {
      totals[at->second] += std::get<std::uint64_t>(e.value);
    }
  }
  for (const auto& [row, total] : totals) {
    table[row].back() = std::to_string(total);
  }
  std::vector<std::size_t> width(header.size(), 0);
  for (const auto& row : table) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  os << '\n';
  for (const auto& row : table) {
    std::string line = row[0] + std::string(width[0] - row[0].size(), ' ');
    for (std::size_t c = 1; c < row.size(); ++c) {
      line += std::string(width[c] - row[c].size() + 2, ' ') + row[c];
    }
    os << line.substr(0, line.find_last_not_of(' ') + 1) << '\n';
  }

  LatencyRegistry merged;
  for (const auto& [rank, s] : shards_) merged.merge(s.latency);
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
      os << "  " << stats.label << ": " << q.count << ' '
         << format_number(q.p50) << ' ' << format_number(q.p99) << ' '
         << format_number(q.max) << '\n';
    }
  }
  if (!worst_.empty()) {
    os << "\nslowest completed spans:\n";
    for (const SdoSpan& span : worst_) {
      os << "  trace " << span.trace_id << " path "
         << path_label(span.hop_pes()) << " latency "
         << format_number(span.latency() * 1e3) << "ms\n";
    }
  }
  write_evidence(os);
}

void ClusterAggregator::write_flight_evidence(std::ostream& os) const {
  MutexLock lock(mutex_);
  write_evidence(os);
}

void ClusterAggregator::write_evidence(std::ostream& os) const {
  bool heading = false;
  for (const auto& [rank, s] : shards_) {
    if (s.recent.empty() && !s.dump.has_value()) continue;
    if (!heading) {
      os << "\nflight-recorder evidence (standing ring, newest fault dump):\n";
      heading = true;
    }
    os << "  shard " << rank << (s.status.alive ? "" : " [DEAD]") << ": "
       << s.recent.size() << " recent spans";
    if (!s.recent.empty()) {
      os << " (newest ended t=" << format_number(s.recent.back().end) << ')';
    }
    if (s.dump.has_value()) {
      os << "; fault dump event=" << key_safe(s.dump->event)
         << " t=" << format_number(s.dump->time)
         << " pushed=" << s.dump->pushed
         << " recent=" << s.dump->recent.size()
         << " in_flight=" << s.dump->in_flight.size();
    }
    os << '\n';
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
