// Merging per-worker partial RunReports from the distributed runtime.
//
// Each worker process measures only the PEs it hosts and ships its partial
// RunReport to the coordinator with the accumulator internals intact
// (OnlineStats / LogHistogram raw transfer, runtime/wire.h). merge_reports
// folds the partials — in rank order, so the result is deterministic —
// into the report an equivalent single-process run would produce.
#pragma once

#include <vector>

#include "metrics/run_report.h"

namespace aces::metrics {

/// Merges per-worker partial reports (rank order) into one RunReport:
/// counters and rates sum, latency / buffer-fill accumulators merge
/// exactly, and positional vectors (egress_outputs, per_pe) combine
/// elementwise. Workers compute cpu_utilization against the *global*
/// capacity, so utilizations also sum. `reoptimizations` is summed but the
/// coordinator normally overwrites it (it owns the tier-1 solve count).
/// An empty input yields a default-constructed report.
RunReport merge_reports(
    const std::vector<RunReport>& partials);

}  // namespace aces::metrics
