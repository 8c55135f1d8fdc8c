// Serialization of telemetry: JSONL and CSV for traces, a human-readable
// timer summary, and the one Prometheus text writer.
//
// JSONL (one flat JSON object per line) is the interchange format —
// `aces trace-summary` reads it back — and CSV is for spreadsheets and
// plotting scripts. Non-finite doubles (the +inf "no constraint"
// advertisements) serialize as JSON `null` / CSV `inf` and parse back to
// +infinity.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "obs/latency.h"
#include "obs/registry.h"
#include "obs/spans.h"
#include "obs/trace.h"

namespace aces::obs {

/// One JSON object per record per line. Keys: time, node, pe, buffer,
/// arrived, processed, cpu_share, cpu_used, advertised_rmax,
/// downstream_rmax, tokens, blocked, drops.
void write_trace_jsonl(std::ostream& os, const std::vector<TickRecord>& records);

/// Header + one row per record, columns in the JSONL key order.
void write_trace_csv(std::ostream& os, const std::vector<TickRecord>& records);

/// Parses write_trace_jsonl output (tolerant of unknown keys; missing keys
/// keep their defaults). Blank lines are skipped.
std::vector<TickRecord> read_trace_jsonl(std::istream& is);

/// Per-timer count / median / p99 in microseconds, one line per timer.
void write_timer_summary(std::ostream& os, const MetricsSnapshot& snapshot);

/// Label set for one Prometheus sample, rendered in order as
/// `key="value"` pairs. Keys are trusted identifiers; the writers escape
/// every value, so a hostile name cannot corrupt the scrape.
using PrometheusLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge };

/// A counter's exact count, or a gauge's reading.
using MetricValue = std::variant<std::uint64_t, double>;

/// One exposed scalar, described once for every rendering of it. Its
/// Prometheus sample is `family` (plus `_total` for a counter) with
/// `labels`; the cluster status key and report row derive from the same
/// fields (obs/cluster_aggregate.h). A counter holds an exact integer; a
/// gauge holds whichever of the two its quantity is.
struct MetricEntry {
  const char* family = "";
  const char* help = "";
  MetricType type = MetricType::kGauge;
  PrometheusLabels labels;
  MetricValue value;
};

/// The one number format of every exposition: "%.12g" for a double, all
/// digits for an integer.
std::string format_number(double v);
std::string format_value(const MetricValue& value);

/// Prometheus samples of `entries`, each family's `# HELP` / `# TYPE`
/// lines before its first sample. A family's entries must be adjacent.
void write_prometheus_metrics(std::ostream& os,
                              const std::vector<MetricEntry>& entries);

/// A latency registry and the labels that tell its samples apart from
/// other registries' in one scrape (a shard's rank; none in one process).
using LabelledLatency = std::pair<PrometheusLabels, const LatencyRegistry*>;

/// Per-PE `aces_pe_wait_seconds` / `aces_pe_service_seconds` summaries
/// (quantile-labelled) and per-path `aces_path_latency_seconds` histograms
/// (cumulative `le` buckets at every quarter decade, the underflow folded
/// into the first, `+Inf` closing each member) of every registry, one
/// family at a time. A registry's labels follow the `pe` / `path` label.
void write_prometheus_latency(std::ostream& os,
                              const std::vector<LabelledLatency>& registries);

/// Prometheus text exposition of the data-plane latency state: the span
/// lifecycle counters (aces_spans_*_total) and one registry's
/// write_prometheus_latency families.
void write_latency_prometheus(std::ostream& os, const SpanTracer& tracer);

/// JSONL exposition of the same state, one kind-tagged flat object per
/// line: "meta" (run/sampling info), "pe" (per-PE wait+service
/// percentiles), "path" (per-path end-to-end percentiles), "span" (the
/// worst_k slowest completed spans), "dump" + "dump_span" (flight-recorder
/// fault dumps). Hop lists are encoded as a compact string
/// ("pe@enq/deq/emit|...") so the flat-scanner JSONL conventions hold.
void write_spans_jsonl(std::ostream& os, const SpanTracer& tracer);

}  // namespace aces::obs
