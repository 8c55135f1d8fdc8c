#include "opt/global_optimizer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "opt/fluid_model.h"

namespace aces::opt {

namespace {

/// Penalized objective: utility minus floor-shortfall penalty. The penalty
/// is concave (negative of a convex hinge), so ascent machinery still
/// applies.
double penalized_objective(const FlowState& fs, const Utility& u,
                           const OptimizerConfig& config) {
  double objective = fs.utility;
  const double unit = config.floor_penalty * u.derivative(0.0);
  for (const RateFloor& floor : config.rate_floors) {
    objective -=
        unit * std::max(0.0, floor.min_rout_sdo - fs.xout[floor.pe.value()]);
  }
  return objective;
}

/// Per-PE extra output marginal from violated floors (the hinge gradient).
std::vector<double> floor_marginals(const graph::ProcessingGraph& g,
                                    const FlowState& fs, const Utility& u,
                                    const OptimizerConfig& config) {
  std::vector<double> extra(g.pe_count(), 0.0);
  const double unit = config.floor_penalty * u.derivative(0.0);
  for (const RateFloor& floor : config.rate_floors) {
    ACES_CHECK_MSG(floor.pe.valid() && floor.pe.value() < g.pe_count(),
                   "rate floor references unknown PE");
    ACES_CHECK_MSG(floor.min_rout_sdo >= 0.0, "negative rate floor");
    if (fs.xout[floor.pe.value()] < floor.min_rout_sdo) {
      extra[floor.pe.value()] += unit;
    }
  }
  return extra;
}

double floor_shortfall(const FlowState& fs, const OptimizerConfig& config) {
  double shortfall = 0.0;
  for (const RateFloor& floor : config.rate_floors) {
    shortfall +=
        std::max(0.0, floor.min_rout_sdo - fs.xout[floor.pe.value()]);
  }
  return shortfall;
}

}  // namespace

void project_to_capacity(std::vector<double>& values, double capacity) {
  ACES_CHECK(capacity >= 0.0);
  for (auto& v : values) v = std::max(v, 0.0);
  const double sum = std::accumulate(values.begin(), values.end(), 0.0);
  if (sum <= capacity) return;
  // Project onto the simplex {v >= 0, Σv = capacity} (Duchi et al. 2008).
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  double cumulative = 0.0;
  double theta = 0.0;
  std::size_t active = 0;
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    cumulative += sorted[k];
    const double candidate =
        (cumulative - capacity) / static_cast<double>(k + 1);
    if (sorted[k] - candidate > 0.0) {
      theta = candidate;
      active = k + 1;
    }
  }
  ACES_CHECK(active > 0);
  for (auto& v : values) v = std::max(v - theta, 0.0);
}

AllocationPlan evaluate_allocation(const graph::ProcessingGraph& g,
                                   const std::vector<double>& cpu,
                                   const OptimizerConfig& config) {
  ACES_CHECK_MSG(cpu.size() == g.pe_count(), "cpu vector size mismatch");
  const Utility u(config.utility, config.utility_scale);
  const FlowState fs =
      fluid_forward(g, cpu, u, config.egress_only_objective);
  AllocationPlan plan;
  plan.pe.resize(g.pe_count());
  plan.node_usage.assign(g.node_count(), 0.0);
  for (std::size_t i = 0; i < g.pe_count(); ++i) {
    plan.pe[i] = PeAllocation{cpu[i], fs.xin[i], fs.xout[i]};
    plan.node_usage[g.pe(PeId(static_cast<PeId::value_type>(i))).node.value()] +=
        cpu[i];
  }
  plan.aggregate_utility = fs.utility;
  plan.weighted_throughput = fs.weighted_throughput;
  plan.floor_shortfall = floor_shortfall(fs, config);
  return plan;
}

AllocationPlan optimize(const graph::ProcessingGraph& g,
                        const OptimizerConfig& config) {
  ACES_CHECK_MSG(config.iterations > 0, "iterations must be positive");
  ACES_CHECK_MSG(config.step > 0.0, "step must be positive");
  ACES_CHECK_MSG(config.headroom >= 1.0, "headroom must be >= 1");
  g.validate();
  const Utility u(config.utility, config.utility_scale);

  // Start from an equal split of every node.
  std::vector<double> cpu(g.pe_count(), 0.0);
  for (NodeId node : g.all_nodes()) {
    const auto& pes = g.pes_on_node(node);
    if (pes.empty()) continue;
    const double share =
        g.node(node).cpu_capacity / static_cast<double>(pes.size());
    for (PeId id : pes) cpu[id.value()] = share;
  }

  std::vector<double> best_cpu = cpu;
  double best_objective = penalized_objective(
      fluid_forward(g, cpu, u, config.egress_only_objective), u, config);

  std::vector<double> node_values;
  for (int iter = 0; iter < config.iterations; ++iter) {
    const FlowState fs =
        fluid_forward(g, cpu, u, config.egress_only_objective);
    const double objective = penalized_objective(fs, u, config);
    if (objective > best_objective) {
      best_objective = objective;
      best_cpu = cpu;
    }
    const std::vector<double> extra = floor_marginals(g, fs, u, config);
    std::vector<double> grad = fluid_supergradient(
        g, fs, u, config.egress_only_objective, &extra);
    double gmax = 0.0;
    for (double v : grad) gmax = std::max(gmax, std::abs(v));
    if (gmax < 1e-15) break;  // flat: everything offered-load-bound
    const double step =
        config.step / std::sqrt(1.0 + static_cast<double>(iter));
    for (std::size_t i = 0; i < cpu.size(); ++i)
      cpu[i] += step * grad[i] / gmax;
    // Project each node back onto its capacity simplex.
    for (NodeId node : g.all_nodes()) {
      const auto& pes = g.pes_on_node(node);
      if (pes.empty()) continue;
      node_values.clear();
      for (PeId id : pes) node_values.push_back(cpu[id.value()]);
      project_to_capacity(node_values, g.node(node).cpu_capacity);
      for (std::size_t k = 0; k < pes.size(); ++k)
        cpu[pes[k].value()] = node_values[k];
    }
  }

  return finalize_plan(g, best_cpu, config);
}

AllocationPlan optimize_excluding(const graph::ProcessingGraph& g,
                                  const std::vector<NodeId>& failed,
                                  const OptimizerConfig& config) {
  if (failed.empty()) return optimize(g, config);
  // Re-solve on a copy whose failed nodes have vanishing capacity. A true
  // zero is disallowed by the graph invariants (and would divide water-
  // filling weights by zero); epsilon capacity yields targets that round to
  // nothing while keeping every projection well-defined.
  graph::ProcessingGraph degraded = g;
  for (NodeId node : failed) {
    ACES_CHECK_MSG(node.valid() && node.value() < g.node_count(),
                   "optimize_excluding: unknown node " << node);
    degraded.node(node).cpu_capacity = 1e-6;
  }
  AllocationPlan plan = optimize(degraded, config);
  for (NodeId node : failed) {
    for (PeId id : g.pes_on_node(node)) plan.pe[id.value()].cpu = 0.0;
  }
  return plan;
}

AllocationPlan finalize_plan(const graph::ProcessingGraph& g,
                             const std::vector<double>& cpu,
                             const OptimizerConfig& config) {
  ACES_CHECK_MSG(cpu.size() == g.pe_count(), "cpu vector size mismatch");
  ACES_CHECK_MSG(config.headroom >= 1.0, "headroom must be >= 1");
  const Utility u(config.utility, config.utility_scale);
  // Trim each PE's CPU to what its achieved flow actually needs, then hand
  // out headroom from the node's slack so the tier-2 token buckets have
  // room to absorb bursts.
  const FlowState fs =
      fluid_forward(g, cpu, u, config.egress_only_objective);
  std::vector<double> needed(g.pe_count(), 0.0);
  for (std::size_t i = 0; i < g.pe_count(); ++i) {
    const PeId id(static_cast<PeId::value_type>(i));
    const auto& d = g.pe(id);
    if (fs.xin[i] > 1e-12) {
      needed[i] =
          std::min(d.cpu_for_input_rate(fs.xin[i] * d.bytes_per_sdo), cpu[i]);
    }
  }
  std::vector<double> final_cpu(g.pe_count(), 0.0);
  for (NodeId node : g.all_nodes()) {
    const auto& pes = g.pes_on_node(node);
    double total_needed = 0.0;
    double total_extra_wanted = 0.0;
    for (PeId id : pes) {
      total_needed += needed[id.value()];
      total_extra_wanted += (config.headroom - 1.0) * needed[id.value()];
    }
    const double leftover =
        std::max(g.node(node).cpu_capacity - total_needed, 0.0);
    const double grant_fraction =
        total_extra_wanted > 1e-12
            ? std::min(1.0, leftover / total_extra_wanted)
            : 0.0;
    for (PeId id : pes) {
      const std::size_t i = id.value();
      final_cpu[i] =
          needed[i] + grant_fraction * (config.headroom - 1.0) * needed[i];
    }
  }

  AllocationPlan plan = evaluate_allocation(g, final_cpu, config);
  // Report the fluid-optimal flows (the trimmed CPU sustains them exactly).
  for (std::size_t i = 0; i < g.pe_count(); ++i) {
    plan.pe[i].rin_sdo = fs.xin[i];
    plan.pe[i].rout_sdo = fs.xout[i];
  }
  plan.aggregate_utility = fs.utility;
  plan.weighted_throughput = fs.weighted_throughput;
  plan.floor_shortfall = floor_shortfall(fs, config);
  return plan;
}

}  // namespace aces::opt
