// The run description every substrate reads.
//
// sim::SimOptions, runtime::RuntimeOptions and runtime::dist::DistOptions
// derive from RunSpec and add only what their own substrate reads, so a
// caller describes the horizon, control interval, seed, tier-2 controller
// and fault schedule once and runs the same description on any substrate
// (harness::run).
#pragma once

#include <cstdint>

#include "common/types.h"
#include "control/config.h"
#include "fault/fault_spec.h"

namespace aces {

struct RunSpec {
  /// Virtual seconds to run.
  Seconds duration = 60.0;
  /// Virtual seconds of warm-up excluded from measurement.
  Seconds warmup = 10.0;
  /// Control interval Δt in virtual seconds (paper: sub-second).
  Seconds dt = 0.1;
  /// Every random draw of the run (arrivals, service times, fault
  /// probabilities, span sampling) derives from this seed.
  std::uint64_t seed = 1;
  /// Tier-2 controller configuration; the policy lives here. The
  /// distributed runtime ships all of it to its workers (wire::Config).
  control::ControllerConfig controller{};
  /// Declarative fault schedule, executed by a seeded fault::FaultInjector
  /// against virtual time (docs/fault_injection.md). Empty (the default)
  /// injects nothing; the same seed and schedule reproduce the same fault
  /// windows. `advert_delay` is simulator-only, and `prockill` clauses run
  /// only on the distributed runtime, which kills the worker for real.
  fault::FaultSchedule faults{};
};

}  // namespace aces
