#include "metrics/report_merge.h"

#include <algorithm>
#include <cstddef>

namespace aces::metrics {

RunReport merge_reports(
    const std::vector<RunReport>& partials) {
  RunReport merged;
  if (partials.empty()) return merged;
  merged.measured_seconds = partials.front().measured_seconds;
  for (const RunReport& part : partials) {
    merged.measured_seconds =
        std::max(merged.measured_seconds, part.measured_seconds);
    merged.weighted_throughput += part.weighted_throughput;
    merged.output_rate += part.output_rate;
    merged.latency.merge(part.latency);
    merged.latency_histogram.merge(part.latency_histogram);
    merged.internal_drops += part.internal_drops;
    merged.ingress_drops += part.ingress_drops;
    merged.sdos_processed += part.sdos_processed;
    merged.cpu_utilization += part.cpu_utilization;
    merged.buffer_fill.merge(part.buffer_fill);
    if (part.egress_outputs.size() > merged.egress_outputs.size())
      merged.egress_outputs.resize(part.egress_outputs.size(), 0);
    for (std::size_t i = 0; i < part.egress_outputs.size(); ++i)
      merged.egress_outputs[i] += part.egress_outputs[i];
    if (part.per_pe.size() > merged.per_pe.size())
      merged.per_pe.resize(part.per_pe.size());
    for (std::size_t i = 0; i < part.per_pe.size(); ++i) {
      PeAccounting& acc = merged.per_pe[i];
      const PeAccounting& in = part.per_pe[i];
      acc.arrived += in.arrived;
      acc.processed += in.processed;
      acc.emitted += in.emitted;
      acc.dropped_input += in.dropped_input;
      acc.cpu_seconds += in.cpu_seconds;
    }
    merged.events_executed += part.events_executed;
    merged.reoptimizations += part.reoptimizations;
  }
  return merged;
}

}  // namespace aces::metrics
