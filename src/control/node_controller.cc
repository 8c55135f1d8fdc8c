#include "control/node_controller.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace aces::control {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

const char* to_string(FlowPolicy policy) {
  switch (policy) {
    case FlowPolicy::kAces: return "ACES";
    case FlowPolicy::kUdp: return "UDP";
    case FlowPolicy::kLockStep: return "Lock-Step";
    case FlowPolicy::kThreshold: return "Threshold";
  }
  return "?";
}

const char* to_string(CpuControlKind kind) {
  switch (kind) {
    case CpuControlKind::kOccupancyProportional: return "occupancy";
    case CpuControlKind::kTargetProportional: return "target";
  }
  return "?";
}

NodeController::NodeController(const graph::ProcessingGraph& graph,
                               NodeId node, const opt::AllocationPlan& plan,
                               const ControllerConfig& config)
    : graph_(&graph),
      node_(node),
      config_(config),
      capacity_(graph.node(node).cpu_capacity) {
  ACES_CHECK_MSG(plan.pe.size() == graph.pe_count(),
                 "allocation plan does not match graph");
  ACES_CHECK_MSG(config.feedback_delay_ticks >= 0, "negative feedback delay");
  ACES_CHECK_MSG(config.b0_fraction > 0.0 && config.b0_fraction < 1.0,
                 "b0 fraction must be in (0,1)");
  ACES_CHECK_MSG(config.threshold_low > 0.0 &&
                     config.threshold_low < config.threshold_high &&
                     config.threshold_high <= 1.0,
                 "require 0 < threshold_low < threshold_high <= 1");
  ACES_CHECK_MSG(config.advert_staleness_timeout >= 0.0,
                 "negative advertisement staleness timeout");
  // The gains depend on the config alone: one DARE solve serves every PE,
  // and every restart.
  gains_ = design_flow_gains(config.feedback_delay_ticks, config.lqr);
  const auto& pes = graph.pes_on_node(node);
  states_.reserve(pes.size());
  for (PeId id : pes) states_.push_back(make_state(id, plan.at(id).cpu));
}

NodeController::PeState NodeController::make_state(PeId id,
                                                   double cpu_target) const {
  const auto& d = graph_->pe(id);
  PeState s;
  s.cpu_target = cpu_target;
  s.bucket = TokenBucket(s.cpu_target, config_.bucket_depth_seconds);
  s.flow = FlowController(gains_, config_.b0_fraction * d.buffer_capacity,
                          config_.rate_floor);
  s.service_estimate = Ewma(config_.service_ewma_alpha);
  s.service_estimate.add(d.mean_service_time());  // prior: stationary mean
  s.arrival_rate = Ewma(config_.arrival_ewma_alpha);
  s.prev_cpu_share = s.cpu_target;
  return s;
}

void NodeController::reset_state() {
  const auto& pes = local_pes();
  for (std::size_t i = 0; i < pes.size(); ++i) {
    states_[i] = make_state(pes[i], states_[i].cpu_target);
  }
}

void NodeController::set_plan(const opt::AllocationPlan& plan) {
  ACES_CHECK_MSG(plan.pe.size() == graph_->pe_count(),
                 "allocation plan does not match graph");
  const auto& pes = local_pes();
  for (std::size_t i = 0; i < pes.size(); ++i) {
    states_[i].cpu_target = plan.at(pes[i]).cpu;
    states_[i].bucket.set_rate(states_[i].cpu_target);
  }
}

void NodeController::set_capacity(double capacity) {
  ACES_CHECK_MSG(capacity > 0.0, "node capacity must be positive");
  capacity_ = capacity;
}

double NodeController::cpu_target(std::size_t i) const {
  ACES_CHECK(i < states_.size());
  return states_[i].cpu_target;
}

double NodeController::tokens(std::size_t i) const {
  ACES_CHECK(i < states_.size());
  return states_[i].bucket.available();
}

double NodeController::service_estimate(std::size_t i) const {
  ACES_CHECK(i < states_.size());
  return states_[i].service_estimate.value();
}

double NodeController::rho(const PeState& state, const PeTickInput& in,
                           Seconds dt) const {
  const double t_hat = std::max(state.service_estimate.value(), 1e-9);
  switch (config_.rho_source) {
    case RhoSource::kAllocatedCapacity:
      return state.prev_cpu_share / t_hat;
    case RhoSource::kMeasured:
      return in.processed_sdos / dt;
  }
  return 0.0;
}

double NodeController::effective_downstream_rmax(
    const PeTickInput& in) const {
  if (config_.advert_staleness_timeout > 0.0 &&
      in.downstream_advert_age > config_.advert_staleness_timeout) {
    // Every downstream consumer has gone silent past the timeout: assume
    // they are dead and stop pushing output at them rather than integrating
    // their last (now meaningless) advertisement.
    return 0.0;
  }
  return in.downstream_rmax;
}

const std::vector<PeTickOutput>& NodeController::tick(
    Seconds dt, const std::vector<PeTickInput>& inputs) {
  ACES_CHECK_MSG(dt > 0.0, "tick interval must be positive");
  const auto& pes = local_pes();
  ACES_CHECK_MSG(inputs.size() == pes.size(),
                 "one PeTickInput required per local PE");

  // Phase 1: account for the elapsed interval.
  for (std::size_t i = 0; i < pes.size(); ++i) {
    PeState& s = states_[i];
    const PeTickInput& in = inputs[i];
    s.bucket.accrue(dt);
    s.bucket.charge(in.cpu_seconds_used);
    if (in.processed_sdos > 0.0) {
      s.service_estimate.add(in.cpu_seconds_used / in.processed_sdos);
    }
    s.arrival_rate.add(in.arrived_sdos / dt);
  }

  // Phase 2: CPU partitioning for the next interval.
  std::vector<double>& shares = shares_;
  shares.assign(pes.size(), 0.0);
  switch (config_.policy) {
    case FlowPolicy::kUdp: {
      // Static enforcement of tier-1 targets, rescaled if oversubscribed.
      double total = 0.0;
      for (const PeState& s : states_) total += s.cpu_target;
      const double scale = total > capacity_ ? capacity_ / total : 1.0;
      for (std::size_t i = 0; i < pes.size(); ++i)
        shares[i] = states_[i].cpu_target * scale;
      break;
    }
    case FlowPolicy::kAces:
    case FlowPolicy::kThreshold:
    case FlowPolicy::kLockStep: {
      std::vector<CpuDemand>& demands = demands_;
      demands.resize(pes.size());
      for (std::size_t i = 0; i < pes.size(); ++i) {
        const PeState& s = states_[i];
        const PeTickInput& in = inputs[i];
        const auto& d = graph_->pe(pes[i]);
        const double t_hat = std::max(s.service_estimate.value(), 1e-9);
        // CPU-seconds of work visible for the next interval: queued SDOs
        // plus expected arrivals, padded by the demand floor (see config).
        const double work =
            (in.buffer_occupancy + s.arrival_rate.value() * dt +
             config_.demand_floor_sdos) * t_hat;
        double cap = std::max(s.bucket.available(), 0.0) / dt;
        cap = std::min(cap, work / dt);
        if (config_.policy != FlowPolicy::kLockStep) {
          // ACES / Threshold — Eq. 8: output rate bounded by the fastest
          // downstream r_max, zero once all downstream adverts are stale.
          const double down_rmax = effective_downstream_rmax(in);
          if (std::isfinite(down_rmax) && d.selectivity > 0.0) {
            const double input_bound = down_rmax / d.selectivity;
            cap = std::min(cap, input_bound * t_hat);
          }
          const double weight =
              config_.cpu_control == CpuControlKind::kOccupancyProportional
                  ? work
                  : s.cpu_target;
          demands[i] = CpuDemand{weight, cap};
        } else {  // Lock-Step: blocked PEs sleep, CPU is redistributed in
                  // proportion to the long-term targets.
          if (in.output_blocked) cap = 0.0;
          demands[i] = CpuDemand{s.cpu_target, cap};
        }
      }
      partition_cpu(capacity_, demands, &shares);
      break;
    }
  }

  // Phase 3: flow-control advertisements.
  std::vector<PeTickOutput>& out = out_;
  out.assign(pes.size(), PeTickOutput{});
  for (std::size_t i = 0; i < pes.size(); ++i) {
    PeState& s = states_[i];
    const PeTickInput& in = inputs[i];
    out[i].cpu_share = shares[i];
    s.prev_cpu_share = shares[i];
    if (config_.policy == FlowPolicy::kAces) {
      const auto& d = graph_->pe(pes[i]);
      // A full buffer admits at most what drains this interval.
      const double free_space =
          std::max(static_cast<double>(d.buffer_capacity) -
                       in.buffer_occupancy, 0.0);
      const double processing = rho(s, in, dt);
      const double hard_cap = free_space / dt + processing;
      out[i].advertised_rmax = s.flow.update(in.buffer_occupancy, processing,
                                             hard_cap);
    } else if (config_.policy == FlowPolicy::kThreshold) {
      // Watermark hysteresis: XOFF above high, XON again below low.
      const auto& d = graph_->pe(pes[i]);
      const double fill =
          in.buffer_occupancy / static_cast<double>(d.buffer_capacity);
      if (fill >= config_.threshold_high) {
        s.xoff = true;
      } else if (fill <= config_.threshold_low) {
        s.xoff = false;
      }
      out[i].advertised_rmax = s.xoff ? 0.0 : kInf;
    } else {
      out[i].advertised_rmax = kInf;
    }
  }
  return out;
}

}  // namespace aces::control
