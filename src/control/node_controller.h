// The distributed resource controller instantiated on each processing node
// (paper §V, tier 2).
//
// Every control interval the hosting substrate (simulator or threaded
// runtime) reports, for each local PE, what happened since the last tick —
// occupancy, completions, CPU burned, arrivals, the freshest downstream
// advertisement, and whether output is blocked — and the controller returns
// the CPU share each PE may use next interval plus the r_max each PE
// advertises upstream. The same object implements all three evaluated
// policies so the substrates contain no policy logic beyond transport
// semantics (drop vs block at full buffers).
#pragma once

#include <limits>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "control/config.h"
#include "control/cpu_scheduler.h"
#include "control/flow_controller.h"
#include "control/token_bucket.h"
#include "graph/processing_graph.h"
#include "opt/global_optimizer.h"

namespace aces::control {

/// Observations for one PE over the elapsed control interval.
struct PeTickInput {
  /// SDOs in the input buffer at tick time.
  double buffer_occupancy = 0.0;
  /// SDOs whose processing completed during the interval.
  double processed_sdos = 0.0;
  /// CPU seconds actually consumed during the interval.
  double cpu_seconds_used = 0.0;
  /// SDOs that arrived (were accepted into the buffer) during the interval.
  double arrived_sdos = 0.0;
  /// Freshest max over downstream advertisements (Eq. 8), in SDOs/sec of
  /// this PE's *output*; +infinity for egress PEs or policies without
  /// advertisements.
  double downstream_rmax = std::numeric_limits<double>::infinity();
  /// Seconds since the freshest downstream advertisement was (re)received.
  /// 0 for egress PEs and for policies without advertisements. Compared
  /// against ControllerConfig::advert_staleness_timeout: a stale value
  /// means every downstream consumer has gone silent.
  Seconds downstream_advert_age = 0.0;
  /// True when the transport reports this PE cannot emit (Lock-Step: some
  /// downstream buffer is full).
  bool output_blocked = false;
};

/// Decisions for one PE for the next control interval.
struct PeTickOutput {
  /// CPU fraction granted: c_j(n).
  double cpu_share = 0.0;
  /// r_max to advertise to upstream PEs, SDOs/sec of this PE's input;
  /// +infinity when the policy does not advertise (UDP, Lock-Step).
  double advertised_rmax = std::numeric_limits<double>::infinity();
};

/// Tier-2 controller for one node. Construct once per node from the graph,
/// the tier-1 plan, and a config; call tick() each control interval with one
/// input per local PE, in pes_on_node() order.
class NodeController {
 public:
  NodeController(const graph::ProcessingGraph& graph, NodeId node,
                 const opt::AllocationPlan& plan,
                 const ControllerConfig& config);

  /// Advances the controller by `dt` seconds. `inputs` must align with
  /// local_pes(). The result is valid until the next tick: the controller
  /// keeps its scratch vectors, so a tick allocates nothing.
  const std::vector<PeTickOutput>& tick(
      Seconds dt, const std::vector<PeTickInput>& inputs);

  [[nodiscard]] const std::vector<PeId>& local_pes() const {
    return graph_->pes_on_node(node_);
  }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] const ControllerConfig& config() const { return config_; }

  /// Long-term CPU target of local PE `i` (tokens accrue at this rate).
  [[nodiscard]] double cpu_target(std::size_t i) const;
  /// Current token level of local PE `i` (CPU-seconds).
  [[nodiscard]] double tokens(std::size_t i) const;
  /// Current service-time estimate T̂ of local PE `i`.
  [[nodiscard]] double service_estimate(std::size_t i) const;

  /// Replaces tier-1 targets (periodic re-optimization / allocation-error
  /// ablation). Plan must index the same graph.
  void set_plan(const opt::AllocationPlan& plan);

  /// Adjusts the node's CPU capacity (resource-availability change); takes
  /// effect at the next tick.
  void set_capacity(double capacity);
  [[nodiscard]] double capacity() const { return capacity_; }

  /// Rebuilds all per-PE controller state (token buckets, LQR history,
  /// estimator EWMAs, hysteresis latches) while keeping the current tier-1
  /// targets. Called when the hosting node recovers from a crash so the
  /// restarted node starts from the same priors as a fresh boot instead of
  /// pre-crash history.
  void reset_state();

 private:
  struct PeState {
    double cpu_target = 0.0;
    TokenBucket bucket{0.0, 1.0};
    FlowController flow{FlowGains{{0.1}, {}}, 0.0};
    Ewma service_estimate{0.2};  // T̂, seconds per SDO
    Ewma arrival_rate{0.3};      // SDOs per second
    double prev_cpu_share = 0.0;
    bool xoff = false;  // kThreshold hysteresis latch
  };

  [[nodiscard]] double rho(const PeState& state, const PeTickInput& in,
                           Seconds dt) const;
  [[nodiscard]] PeState make_state(PeId id, double cpu_target) const;
  /// Downstream r_max after the staleness rule: zero once the freshest
  /// advertisement is older than the configured timeout.
  [[nodiscard]] double effective_downstream_rmax(const PeTickInput& in) const;

  const graph::ProcessingGraph* graph_;
  NodeId node_;
  ControllerConfig config_;
  /// The LQR flow gains every local PE starts from, designed once from
  /// config_.
  FlowGains gains_;
  double capacity_;
  std::vector<PeState> states_;  // aligned with local_pes()
  // Per-tick scratch, aligned with local_pes(); out_ is what tick returns.
  std::vector<double> shares_;
  std::vector<CpuDemand> demands_;
  std::vector<PeTickOutput> out_;
};

}  // namespace aces::control
