// The traced run: per-layer metrics and the run-time budget of a workload.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Runs `workload` traced for about `seconds` (untraced and traced run calls
/// alternate), then replays the control, calendar, wire and transport layers
/// at the sizes the run measured. Returns every per-layer metric; layers a
/// workload does not run report 0. Writes human-readable notes to `notes`.
std::vector<Metric> per_layer_metrics(Workload& workload, double seconds,
                                      Tally& tally, std::ostream& notes);

}  // namespace perfbench
