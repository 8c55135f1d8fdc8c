// Proportional CPU partitioning with per-PE caps (paper §V-D).
//
// "The PEs are allowed to expend their tokens for CPU cycles proportional to
//  their input buffer occupancies, such that c_j(n) does not exceed the
//  bound of Equation 8."
//
// partition_cpu is a pure water-filling routine: shares are proportional to
// `weight` until a PE hits its `cap`, at which point its residual demand is
// redistributed over the remaining PEs. Used with occupancy weights by ACES
// and with CPU-target weights by Lock-Step's redistribution.
#pragma once

#include <vector>

namespace aces::control {

struct CpuDemand {
  /// Proportional-share driver; non-negative. Zero-weight PEs receive none.
  double weight = 0.0;
  /// Hard ceiling on this PE's share this interval (tokens, Eq. 8 feedback,
  /// outstanding work). May be +infinity.
  double cap = 0.0;
};

/// Splits `capacity` across demands; result[i] ≤ demands[i].cap and
/// Σ result ≤ capacity. Unusable capacity (all caps reached) is left idle.
std::vector<double> partition_cpu(double capacity,
                                  const std::vector<CpuDemand>& demands);

/// The same, written into `*out` (resized to demands.size()), so a caller
/// that keeps the vector allocates nothing.
void partition_cpu(double capacity, const std::vector<CpuDemand>& demands,
                   std::vector<double>* out);

}  // namespace aces::control
