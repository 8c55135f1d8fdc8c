#include "control/cpu_scheduler.h"

#include <algorithm>

#include "common/check.h"

namespace aces::control {

std::vector<double> partition_cpu(double capacity,
                                  const std::vector<CpuDemand>& demands) {
  std::vector<double> alloc;
  partition_cpu(capacity, demands, &alloc);
  return alloc;
}

void partition_cpu(double capacity, const std::vector<CpuDemand>& demands,
                   std::vector<double>* out) {
  ACES_CHECK_MSG(capacity >= 0.0, "negative CPU capacity");
  std::vector<double>& alloc = *out;
  alloc.assign(demands.size(), 0.0);
  double remaining = capacity;
  constexpr double kEps = 1e-12;
  // Each pass either exhausts the capacity or saturates at least one cap, so
  // the loop terminates within |demands| + 1 rounds.
  for (std::size_t round = 0; round <= demands.size(); ++round) {
    double total_weight = 0.0;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      ACES_CHECK_MSG(demands[i].weight >= 0.0, "negative demand weight");
      if (alloc[i] + kEps < demands[i].cap) total_weight += demands[i].weight;
    }
    if (remaining <= kEps || total_weight <= kEps) break;
    double granted = 0.0;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      if (alloc[i] + kEps >= demands[i].cap || demands[i].weight <= 0.0)
        continue;
      const double offer = remaining * demands[i].weight / total_weight;
      const double take = std::min(offer, demands[i].cap - alloc[i]);
      alloc[i] += take;
      granted += take;
    }
    remaining -= granted;
    if (granted <= kEps) break;
  }
}

}  // namespace aces::control
