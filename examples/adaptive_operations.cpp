// Adaptive operations: a day in the life of a controlled stream system.
//
// One continuous 120-second run on the paper's 60 PE / 10 node
// configuration, hit by the full set of operational events tier 1 exists to
// absorb (paper §II and §V):
//
//   t = 30 s  workload shift   — half the feeds triple, the rest go quiet
//   t = 50 s  failure          — one intermediate PE is down for 10 s
//   t = 70 s  capacity loss    — two nodes lose half their CPU
//   t = 90 s  re-prioritization — one egress becomes 10x as important
//
// Run twice: with a static tier-1 plan, and with re-optimization every
// 10 s. Prints a per-phase weighted-throughput comparison.
//
//   $ ./examples/adaptive_operations
#include <iostream>

#include "harness/defaults.h"
#include "harness/experiment.h"
#include "harness/table.h"

int main() {
  using namespace aces;

  const auto params =
      harness::with_burstiness(harness::calibration_topology(), 2.0);
  const auto g = graph::generate_topology(params, 3);
  const auto plan = opt::optimize(g);

  // Pick an intermediate PE to fail and an egress to promote.
  PeId victim;
  PeId promoted;
  for (PeId id : g.all_pes()) {
    if (!victim.valid() && g.pe(id).kind == graph::PeKind::kIntermediate)
      victim = id;
    if (!promoted.valid() && g.pe(id).kind == graph::PeKind::kEgress)
      promoted = id;
  }

  auto scripted = [&](Seconds measure_from, Seconds duration,
                      bool adaptive) {
    sim::SimOptions o;
    o.duration = duration;
    o.warmup = measure_from;
    o.seed = 11;
    o.controller.policy = control::FlowPolicy::kAces;
    if (adaptive) o.reoptimize_interval = 10.0;
    for (std::size_t s = 0; s < g.stream_count(); ++s) {
      const StreamId id(static_cast<StreamId::value_type>(s));
      const double factor = (s % 2 == 0) ? 3.0 : 0.2;
      o.rate_changes.push_back(
          sim::RateChange{30.0, id, g.stream(id).mean_rate * factor});
    }
    o.faults.stalls.push_back(fault::PeStall{50.0, 10.0, victim});
    o.capacity_changes.push_back(sim::CapacityChange{70.0, NodeId(0), 0.5});
    o.capacity_changes.push_back(sim::CapacityChange{70.0, NodeId(1), 0.5});
    o.weight_changes.push_back(
        sim::WeightChange{90.0, promoted, g.pe(promoted).weight * 10.0});
    return o;
  };

  // Measure each phase separately by re-running the identical scripted
  // scenario with a different measurement window (runs are deterministic,
  // so the trajectories are identical and only the window moves).
  struct Phase {
    const char* name;
    Seconds from, until;
  };
  const Phase phases[] = {
      {"steady state", 10.0, 30.0},   {"workload shift", 30.0, 50.0},
      {"PE outage", 50.0, 60.0},      {"capacity loss", 70.0, 90.0},
      {"re-prioritized", 90.0, 120.0},
  };

  std::cout << "60 PEs / 10 nodes under a scripted sequence of operational "
               "events.\nPer-phase weighted throughput, static tier-1 plan "
               "vs re-optimizing every 10 s:\n\n";
  harness::Table table({"phase", "window s", "static", "adaptive",
                        "gain %"});
  for (const Phase& phase : phases) {
    double wtput[2];
    for (const bool adaptive : {false, true}) {
      const auto o = scripted(phase.from, phase.until, adaptive);
      const auto report = sim::simulate(g, plan, o);
      wtput[adaptive ? 1 : 0] = report.weighted_throughput;
    }
    table.add_row(
        {phase.name,
         harness::cell(phase.from, 0) + "-" + harness::cell(phase.until, 0),
         harness::cell(wtput[0], 0), harness::cell(wtput[1], 0),
         harness::cell(100.0 * (wtput[1] - wtput[0]) / wtput[0], 1)});
  }
  table.print(std::cout);
  std::cout << "\nTier 2 keeps every phase stable; periodic tier 1 recovers "
               "the throughput the\nstale targets leave behind once "
               "conditions change.\n";
  return 0;
}
