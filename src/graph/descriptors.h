// Descriptors for the static structure of a stream-processing application:
// processing elements (PEs), processing nodes (PNs), and external streams.
//
// These mirror §III and §VI-B of the paper: a PE is a two-state state machine
// with state-dependent per-SDO service time (the burstiness model), a
// selectivity M (output SDOs per input SDO), a weight w_j used by the
// weighted-throughput objective, and a bounded input buffer of B SDOs.
#pragma once

#include <string>

#include "common/types.h"

namespace aces::graph {

/// Largest selectivity a PE may declare. The PE kernel casts the carried
/// credit (below selectivity + 1) to int, and a Lock-Step PE pre-allocates
/// a hold of (⌊selectivity⌋ + 1) × fanout copies, so the bound keeps the
/// cast exact and the hold at about a thousand copies per downstream slot.
inline constexpr double kMaxSelectivity = 1024.0;

/// Position of a PE in the processing DAG.
enum class PeKind {
  kIngress,       ///< fed by an external stream
  kIntermediate,  ///< fed by and feeding other PEs
  kEgress,        ///< produces a system output stream (weighted throughput)
};

const char* to_string(PeKind kind);

/// Static parameters of one processing element.
struct PeDescriptor {
  PeKind kind = PeKind::kIntermediate;
  /// Placement: which processing node hosts this PE.
  NodeId node;
  /// CPU seconds consumed per SDO in state 0 / state 1 (paper: T0, T1).
  double service_time[2] = {0.002, 0.020};
  /// Mean sojourn time (seconds) in state 0 / state 1; sojourns are
  /// exponentially distributed (paper §VI-B).
  double sojourn_mean[2] = {10.0, 1.0};
  /// Mean SDOs emitted per SDO consumed (paper: M). Fractional values are
  /// realized with credit-conserving stochastic rounding. Finite and in
  /// [0, kMaxSelectivity] (ProcessingGraph::add_pe checks).
  double selectivity = 1.0;
  /// Size of one input SDO in bytes (rates in the optimizer are bytes/sec).
  double bytes_per_sdo = 1024.0;
  /// Relative importance w_j; enters the tier-1 objective and, for egress
  /// PEs, the weighted-throughput metric.
  double weight = 1.0;
  /// Input buffer capacity in SDOs (paper: B).
  int buffer_capacity = 50;
  /// Fraction of any CPU grant lost to fixed overhead (data-structure setup,
  /// function calls — the `b` of the paper's rate map h(c) = a·c − b).
  double cpu_overhead = 0.002;
  /// External stream feeding this PE; valid iff kind == kIngress.
  StreamId input_stream;

  /// Stationary probability of being in state 1 (the slow state).
  [[nodiscard]] double state1_fraction() const {
    return sojourn_mean[1] / (sojourn_mean[0] + sojourn_mean[1]);
  }
  /// Mean CPU seconds per SDO under the stationary state distribution
  /// (arithmetic mean; the expected cost of one SDO drawn at a random time).
  [[nodiscard]] double mean_service_time() const {
    const double p1 = state1_fraction();
    return (1.0 - p1) * service_time[0] + p1 * service_time[1];
  }
  /// Service time governing the *sustained* processing rate of a saturated,
  /// work-conserving PE: during a state-s sojourn the PE completes c/T_s
  /// SDOs per second, so the long-run rate is c·(π0/T0 + π1/T1) and the
  /// effective per-SDO time is the time-weighted harmonic mean. This is the
  /// value an empirical fit of the paper's rate map h(c) = a·c − b would
  /// observe, so the optimizer uses it for the slope `a`.
  [[nodiscard]] double effective_service_time() const {
    const double p1 = state1_fraction();
    return 1.0 / ((1.0 - p1) / service_time[0] + p1 / service_time[1]);
  }
  /// Rate-map slope `a` in bytes per CPU-second: input bytes processed per
  /// unit of CPU allocation (paper footnote 3).
  [[nodiscard]] double rate_map_slope() const {
    return bytes_per_sdo / effective_service_time();
  }
  /// Rate-map intercept `b` in bytes/sec.
  [[nodiscard]] double rate_map_intercept() const {
    return rate_map_slope() * cpu_overhead;
  }
  /// h(c) = max(a·c − b, 0): sustainable input byte rate at CPU share c.
  [[nodiscard]] double input_rate_at_cpu(double cpu) const {
    const double r = rate_map_slope() * cpu - rate_map_intercept();
    return r > 0.0 ? r : 0.0;
  }
  /// h⁻¹(r): CPU share needed to sustain input byte rate r (paper g⁻¹).
  [[nodiscard]] double cpu_for_input_rate(double rate) const {
    return (rate + rate_map_intercept()) / rate_map_slope();
  }
};

/// Static parameters of one processing node.
struct NodeDescriptor {
  /// Normalized CPU capacity; tier-1 enforces Σ c̄_j ≤ capacity (Eq. 4).
  double cpu_capacity = 1.0;
  std::string name;
};

/// An external input stream entering the system at an ingress PE.
struct StreamDescriptor {
  /// Long-run average offered rate in SDOs per second.
  double mean_rate = 100.0;
  /// Burstiness of arrivals: 0 = constant rate, 1 = on/off with on-fraction
  /// 0.5 (instantaneous rate doubles while on).
  double burstiness = 0.0;
  std::string name;
};

}  // namespace aces::graph
