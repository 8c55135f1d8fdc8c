// Serialization of telemetry: JSONL and CSV for traces, plus a
// human-readable timer summary.
//
// JSONL (one flat JSON object per line) is the interchange format —
// `aces trace-summary` reads it back — and CSV is for spreadsheets and
// plotting scripts. Non-finite doubles (the +inf "no constraint"
// advertisements) serialize as JSON `null` / CSV `inf` and parse back to
// +infinity.
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
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

/// Escapes a string for use inside a Prometheus label value: `\` -> `\\`,
/// `"` -> `\"`, newline -> `\n` (the three escapes the text exposition
/// format defines). Every exporter label value goes through this so a
/// pathological PE or path name cannot corrupt the scrape.
std::string prometheus_label_escape(const std::string& value);

/// Label set for one Prometheus sample, rendered in order as
/// `key="escaped-value"` pairs. Values are escaped by the emitters; keys
/// are trusted identifiers.
using PrometheusLabels = std::vector<std::pair<std::string, std::string>>;

/// Emits one summary-typed family member: quantile-labelled samples plus
/// `_sum`/`_count`. `header_done` tracks whether the family's `# HELP` /
/// `# TYPE` preamble has been written — callers pass one flag per family
/// so the preamble appears exactly once no matter how many label sets are
/// emitted.
void prometheus_summary(std::ostream& os, const char* name, const char* help,
                        const PrometheusLabels& labels, const LogHistogram& h,
                        bool& header_done);

/// Emits one histogram-typed family member with cumulative `le` buckets at
/// every quarter decade of the log-bucketed histogram (keeps the scrape
/// small), the underflow folded into the first boundary, a closing `+Inf`
/// bucket, and `_sum`/`_count`. Same once-per-family header contract as
/// prometheus_summary.
void prometheus_histogram(std::ostream& os, const char* name, const char* help,
                          const PrometheusLabels& labels, const LogHistogram& h,
                          bool& header_done);

/// Prometheus text exposition of the data-plane latency state: span
/// lifecycle counters (aces_spans_*_total), per-PE wait/service summaries
/// (quantile-labelled), and per-path end-to-end histograms with
/// log-spaced `le` boundaries (one boundary per quarter decade keeps the
/// output scrape-sized; counts are cumulative as the format requires).
void write_latency_prometheus(std::ostream& os, const SpanTracer& tracer);

/// JSONL exposition of the same state, one kind-tagged flat object per
/// line: "meta" (run/sampling info), "pe" (per-PE wait+service
/// percentiles), "path" (per-path end-to-end percentiles), "span" (the
/// worst_k slowest completed spans), "dump" + "dump_span" (flight-recorder
/// fault dumps). Hop lists are encoded as a compact string
/// ("pe@enq/deq/emit|...") so the flat-scanner JSONL conventions hold.
void write_spans_jsonl(std::ostream& os, const SpanTracer& tracer);

}  // namespace aces::obs
