#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>

namespace aces::obs {

std::string format_number(double v) {
  char buf[40];
  // aces-lint: allow(float-format) exposition for humans and scrapers, never fingerprinted
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string format_value(const MetricValue& value) {
  if (const auto* count = std::get_if<std::uint64_t>(&value)) {
    return std::to_string(*count);
  }
  return format_number(std::get<double>(value));
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// JSON has no infinity; +inf ("no constraint") becomes null.
std::string json_number(double v) {
  return std::isfinite(v) ? format_number(v) : std::string("null");
}

/// CSV counterpart: std::stod round-trips "inf".
std::string csv_number(double v) {
  return std::isfinite(v) ? format_number(v) : std::string("inf");
}

/// Value of `"key":` in a flat one-line JSON object; nullopt-like empty
/// string when absent. Values in trace lines are numbers, null, or booleans
/// — never strings — so scanning to the next ',' or '}' is sufficient.
std::string find_raw(const std::string& line, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return {};
  const auto start = pos + needle.size();
  auto end = line.find_first_of(",}", start);
  if (end == std::string::npos) end = line.size();
  auto value = line.substr(start, end - start);
  while (!value.empty() && (value.front() == ' ' || value.front() == '\t'))
    value.erase(value.begin());
  while (!value.empty() && (value.back() == ' ' || value.back() == '\t'))
    value.pop_back();
  return value;
}

double parse_double(const std::string& raw, double fallback) {
  if (raw.empty()) return fallback;
  if (raw == "null") return kInf;  // the only non-finite the writer emits
  try {
    return std::stod(raw);
  } catch (const std::exception&) {
    return fallback;
  }
}

std::uint64_t parse_u64(const std::string& raw, std::uint64_t fallback) {
  if (raw.empty()) return fallback;
  try {
    return std::stoull(raw);
  } catch (const std::exception&) {
    return fallback;
  }
}

}  // namespace

void write_trace_jsonl(std::ostream& os,
                       const std::vector<TickRecord>& records) {
  for (const TickRecord& r : records) {
    os << "{\"time\":" << format_number(r.time) << ",\"node\":" << r.node
       << ",\"pe\":" << r.pe
       << ",\"buffer\":" << format_number(r.buffer_occupancy)
       << ",\"arrived\":" << format_number(r.arrived_sdos)
       << ",\"processed\":" << format_number(r.processed_sdos)
       << ",\"cpu_share\":" << format_number(r.cpu_share)
       << ",\"cpu_used\":" << format_number(r.cpu_seconds_used)
       << ",\"advertised_rmax\":" << json_number(r.advertised_rmax)
       << ",\"downstream_rmax\":" << json_number(r.downstream_rmax)
       << ",\"tokens\":" << format_number(r.token_fill)
       << ",\"blocked\":" << (r.output_blocked ? "true" : "false")
       << ",\"drops\":" << r.dropped_total
       << ",\"fault\":" << static_cast<unsigned>(r.fault_flags);
    // Only sweep-combined records carry a policy tag, and only
    // cluster-tagged (distributed) records carry a shard; plain traces
    // keep their pre-tag byte layout.
    if (!r.policy.empty()) os << ",\"policy\":\"" << r.policy << "\"";
    if (r.shard >= 0) os << ",\"shard\":" << r.shard;
    os << "}\n";
  }
}

void write_trace_csv(std::ostream& os, const std::vector<TickRecord>& records) {
  os << "time,node,pe,buffer,arrived,processed,cpu_share,cpu_used,"
        "advertised_rmax,downstream_rmax,tokens,blocked,drops,fault\n";
  for (const TickRecord& r : records) {
    os << format_number(r.time) << ',' << r.node << ',' << r.pe << ','
       << format_number(r.buffer_occupancy) << ','
       << format_number(r.arrived_sdos) << ','
       << format_number(r.processed_sdos) << ','
       << format_number(r.cpu_share) << ','
       << format_number(r.cpu_seconds_used) << ','
       << csv_number(r.advertised_rmax) << ','
       << csv_number(r.downstream_rmax) << ','
       << format_number(r.token_fill) << ','
       << (r.output_blocked ? 1 : 0) << ',' << r.dropped_total << ','
       << static_cast<unsigned>(r.fault_flags) << '\n';
  }
}

std::vector<TickRecord> read_trace_jsonl(std::istream& is) {
  std::vector<TickRecord> records;
  std::string line;
  while (std::getline(is, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] != '{') continue;  // not a JSON object; skip, don't
                                       // fabricate a default record
    TickRecord r;
    r.time = parse_double(find_raw(line, "time"), r.time);
    r.node = static_cast<std::uint32_t>(parse_u64(find_raw(line, "node"), 0));
    r.pe = static_cast<std::uint32_t>(parse_u64(find_raw(line, "pe"), 0));
    r.buffer_occupancy =
        parse_double(find_raw(line, "buffer"), r.buffer_occupancy);
    r.arrived_sdos = parse_double(find_raw(line, "arrived"), r.arrived_sdos);
    r.processed_sdos =
        parse_double(find_raw(line, "processed"), r.processed_sdos);
    r.cpu_share = parse_double(find_raw(line, "cpu_share"), r.cpu_share);
    r.cpu_seconds_used =
        parse_double(find_raw(line, "cpu_used"), r.cpu_seconds_used);
    r.advertised_rmax =
        parse_double(find_raw(line, "advertised_rmax"), r.advertised_rmax);
    r.downstream_rmax =
        parse_double(find_raw(line, "downstream_rmax"), r.downstream_rmax);
    r.token_fill = parse_double(find_raw(line, "tokens"), r.token_fill);
    r.output_blocked = find_raw(line, "blocked") == "true";
    r.dropped_total = parse_u64(find_raw(line, "drops"), r.dropped_total);
    // "fault" is absent in pre-fault-subsystem traces; default 0 (healthy).
    r.fault_flags =
        static_cast<std::uint8_t>(parse_u64(find_raw(line, "fault"), 0));
    // Optional sweep policy tag: find_raw keeps the surrounding quotes
    // (policy names contain neither commas nor escapes).
    std::string policy = find_raw(line, "policy");
    if (policy.size() >= 2 && policy.front() == '"' && policy.back() == '"') {
      r.policy = policy.substr(1, policy.size() - 2);
    }
    // Cluster-tagged records carry the producing shard; absent = -1.
    const std::string shard = find_raw(line, "shard");
    if (!shard.empty()) {
      r.shard = static_cast<std::int32_t>(parse_u64(shard, 0));
    }
    records.push_back(r);
  }
  return records;
}

void write_timer_summary(std::ostream& os, const MetricsSnapshot& snapshot) {
  for (const TimerSample& t : snapshot.timers) {
    os << t.name << ": count=" << t.calls
       << " p50=" << format_number(t.seconds.median() * 1e6)
       << "us p99=" << format_number(t.seconds.p99() * 1e6) << "us\n";
  }
}

namespace {

/// `\` -> `\\`, `"` -> `\"`, newline -> `\n`: the three escapes the text
/// exposition format defines for a label value.
std::string prometheus_label_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

/// `key="escaped"` pairs joined by commas, without the surrounding braces
/// (the latency families append a reserved `quantile` / `le` label).
std::string label_block(const PrometheusLabels& labels) {
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += labels[i].first;
    out += "=\"";
    out += prometheus_label_escape(labels[i].second);
    out += '"';
  }
  return out;
}

/// "{...}" around a non-empty label block; empty string otherwise (an
/// unlabelled sample takes no braces at all).
std::string braced(const std::string& block) {
  return block.empty() ? std::string() : '{' + block + '}';
}

void family_header(std::ostream& os, std::string_view name, const char* help,
                   const char* type, bool& header_done) {
  if (header_done) return;
  os << "# HELP " << name << ' ' << help << '\n';
  os << "# TYPE " << name << ' ' << type << '\n';
  header_done = true;
}

/// One summary-typed family member: quantile-labelled samples plus
/// `_sum`/`_count`. `header_done` is the family's: the preamble appears
/// once however many label sets follow.
void prometheus_summary(std::ostream& os, const char* name, const char* help,
                        const PrometheusLabels& labels, const LogHistogram& h,
                        bool& header_done) {
  family_header(os, name, help, "summary", header_done);
  const std::string base = label_block(labels);
  const std::string sep = base.empty() ? "" : ",";
  const LatencyQuantiles q = quantiles_of(h);
  const double quantiles[][2] = {
      {0.5, q.p50}, {0.9, q.p90}, {0.99, q.p99}, {0.999, q.p999}};
  for (const auto& [which, value] : quantiles) {
    os << name << '{' << base << sep << "quantile=\"" << format_number(which)
       << "\"} " << format_number(value) << '\n';
  }
  os << name << "_sum" << braced(base) << ' ' << format_number(h.sum())
     << '\n';
  os << name << "_count" << braced(base) << ' ' << h.count() << '\n';
}

/// One histogram-typed family member; the same header contract.
void prometheus_histogram(std::ostream& os, const char* name, const char* help,
                          const PrometheusLabels& labels, const LogHistogram& h,
                          bool& header_done) {
  family_header(os, name, help, "histogram", header_done);
  const std::string base = label_block(labels);
  const std::string sep = base.empty() ? "" : ",";
  // Cumulative buckets at every quarter decade; the underflow bucket folds
  // into the first boundary, +Inf closes the member.
  std::uint64_t cumulative = h.underflow();
  std::size_t next_boundary = 5;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    cumulative += h.bucket_value(i);
    if (i + 1 == next_boundary) {
      os << name << "_bucket{" << base << sep << "le=\""
         << format_number(h.bucket_lower(i + 1)) << "\"} " << cumulative
         << '\n';
      next_boundary += 5;
    }
  }
  os << name << "_bucket{" << base << sep << "le=\"+Inf\"} " << h.count()
     << '\n';
  os << name << "_sum" << braced(base) << ' ' << format_number(h.sum())
     << '\n';
  os << name << "_count" << braced(base) << ' ' << h.count() << '\n';
}

/// `own` followed by `extra`.
PrometheusLabels joined(PrometheusLabels own, const PrometheusLabels& extra) {
  own.insert(own.end(), extra.begin(), extra.end());
  return own;
}

}  // namespace

void write_prometheus_metrics(std::ostream& os,
                              const std::vector<MetricEntry>& entries) {
  std::string_view family;
  bool header_done = false;
  for (const MetricEntry& e : entries) {
    const bool counter = e.type == MetricType::kCounter;
    const std::string name = std::string(e.family) + (counter ? "_total" : "");
    if (e.family != family) {
      family = e.family;
      header_done = false;
    }
    family_header(os, name, e.help, counter ? "counter" : "gauge",
                  header_done);
    os << name << braced(label_block(e.labels)) << ' ' << format_value(e.value)
       << '\n';
  }
}

void write_prometheus_latency(std::ostream& os,
                              const std::vector<LabelledLatency>& registries) {
  const auto pe_family = [&](const char* name, const char* help,
                             LogHistogram LatencyRegistry::PeStats::*which) {
    bool header_done = false;
    for (const auto& [labels, registry] : registries) {
      for (const auto& [pe, stats] : registry->pes()) {
        prometheus_summary(os, name, help,
                           joined({{"pe", std::to_string(pe)}}, labels),
                           stats.*which, header_done);
      }
    }
  };
  pe_family("aces_pe_wait_seconds", "Queue wait (enqueue to dequeue) per PE",
            &LatencyRegistry::PeStats::wait);
  pe_family("aces_pe_service_seconds", "Service time (dequeue to emit) per PE",
            &LatencyRegistry::PeStats::service);
  bool header_done = false;
  for (const auto& [labels, registry] : registries) {
    for (const auto& [id, stats] : registry->paths()) {
      prometheus_histogram(os, "aces_path_latency_seconds",
                           "End-to-end latency per source-to-sink path",
                           joined({{"path", stats.label}}, labels),
                           stats.end_to_end, header_done);
    }
  }
}

void write_latency_prometheus(std::ostream& os, const SpanTracer& tracer) {
  const auto counter = [](const char* family, const char* help,
                          std::uint64_t value) {
    return MetricEntry{family, help, MetricType::kCounter, {}, value};
  };
  write_prometheus_metrics(
      os, {counter("aces_spans_started", "SDO spans begun at the sources",
                   tracer.spans_started()),
           counter("aces_spans_completed", "Spans finished at an egress",
                   tracer.spans_completed()),
           counter("aces_spans_dropped", "Spans ended by a drop or crash",
                   tracer.spans_dropped()),
           counter("aces_spans_pool_exhausted",
                   "Sampled SDOs skipped because the span pool was full",
                   tracer.pool_exhausted()),
           counter("aces_span_fault_dumps", "Flight-recorder fault dumps",
                   tracer.dumps_taken())});
  write_prometheus_latency(os, {{{}, &tracer.latency()}});
}

namespace {

/// "pe@enqueue/dequeue/emit|..." — flat-scanner-safe (no commas/brackets);
/// unreached timestamps print as "-".
std::string hops_string(const SdoSpan& span) {
  std::string out;
  for (std::uint32_t i = 0; i < span.hop_count; ++i) {
    const SpanHop& hop = span.hops[i];
    if (i > 0) out.push_back('|');
    out += std::to_string(hop.pe);
    out.push_back('@');
    out += hop.enqueue >= 0.0 ? format_number(hop.enqueue) : std::string("-");
    out.push_back('/');
    out += hop.dequeue >= 0.0 ? format_number(hop.dequeue) : std::string("-");
    out.push_back('/');
    out += hop.emit >= 0.0 ? format_number(hop.emit) : std::string("-");
  }
  return out;
}

void span_json_fields(std::ostream& os, const SdoSpan& span) {
  os << "\"trace_id\":" << span.trace_id << ",\"source_pe\":" << span.source_pe
     << ",\"start\":" << format_number(span.start) << ",\"end\":"
     << (span.end >= 0.0 ? format_number(span.end) : std::string("null"))
     << ",\"latency\":"
     << (span.end >= 0.0 ? format_number(span.latency()) : std::string("null"))
     << ",\"dropped\":" << (span.dropped ? "true" : "false")
     << ",\"path\":\"" << path_label(span.hop_pes()) << "\",\"hops\":\""
     << hops_string(span) << '"';
}

void quantile_fields(std::ostream& os, const char* prefix,
                     const LogHistogram& h) {
  const LatencyQuantiles q = quantiles_of(h);
  os << '"' << prefix << "_count\":" << q.count << ",\"" << prefix
     << "_p50\":" << format_number(q.p50) << ",\"" << prefix
     << "_p90\":" << format_number(q.p90) << ",\"" << prefix
     << "_p99\":" << format_number(q.p99) << ",\"" << prefix
     << "_p999\":" << format_number(q.p999) << ",\"" << prefix
     << "_mean\":" << format_number(q.mean) << ",\"" << prefix
     << "_max\":" << format_number(q.max);
}

}  // namespace

void write_spans_jsonl(std::ostream& os, const SpanTracer& tracer) {
  const SpanTracerOptions& opt = tracer.options();
  os << "{\"kind\":\"meta\",\"sample_rate\":" << format_number(opt.sample_rate)
     << ",\"seed\":" << opt.seed << ",\"started\":" << tracer.spans_started()
     << ",\"completed\":" << tracer.spans_completed()
     << ",\"dropped\":" << tracer.spans_dropped()
     << ",\"pool_exhausted\":" << tracer.pool_exhausted()
     << ",\"fault_dumps\":" << tracer.dumps_taken() << "}\n";
  for (const auto& [pe, stats] : tracer.latency().pes()) {
    os << "{\"kind\":\"pe\",\"pe\":" << pe << ',';
    quantile_fields(os, "wait", stats.wait);
    os << ',';
    quantile_fields(os, "service", stats.service);
    os << "}\n";
  }
  for (const auto& [id, stats] : tracer.latency().paths()) {
    os << "{\"kind\":\"path\",\"path\":\"" << stats.label
       << "\",\"path_id\":" << id << ',';
    quantile_fields(os, "e2e", stats.end_to_end);
    os << "}\n";
  }
  for (const SdoSpan& span : tracer.worst_spans()) {
    os << "{\"kind\":\"span\",";
    span_json_fields(os, span);
    os << "}\n";
  }
  const auto& dumps = tracer.dumps();
  for (std::size_t d = 0; d < dumps.size(); ++d) {
    const FlightDump& dump = dumps[d];
    os << "{\"kind\":\"dump\",\"index\":" << d << ",\"event\":\""
       << dump.event << "\",\"time\":" << format_number(dump.time)
       << ",\"recent\":" << dump.recent.size()
       << ",\"in_flight\":" << dump.in_flight.size() << "}\n";
    for (const SdoSpan& span : dump.recent) {
      os << "{\"kind\":\"dump_span\",\"index\":" << d
         << ",\"group\":\"recent\",";
      span_json_fields(os, span);
      os << "}\n";
    }
    for (const SdoSpan& span : dump.in_flight) {
      os << "{\"kind\":\"dump_span\",\"index\":" << d
         << ",\"group\":\"in_flight\",";
      span_json_fields(os, span);
      os << "}\n";
    }
  }
}

}  // namespace aces::obs
