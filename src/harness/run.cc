#include "harness/run.h"

#include "runtime/dist_coordinator.h"

namespace aces::harness {

RunSpec& run_spec(Substrate& substrate) {
  return std::visit([](RunSpec& spec) -> RunSpec& { return spec; },
                    substrate);
}

const RunSpec& run_spec(const Substrate& substrate) {
  return std::visit(
      [](const RunSpec& spec) -> const RunSpec& { return spec; }, substrate);
}

metrics::RunReport run(const graph::ProcessingGraph& graph,
                       const opt::AllocationPlan& plan,
                       const Substrate& substrate,
                       runtime::dist::DistStats* stats) {
  struct Runner {
    const graph::ProcessingGraph& graph;
    const opt::AllocationPlan& plan;
    runtime::dist::DistStats* stats;

    metrics::RunReport operator()(const sim::SimOptions& options) const {
      return sim::simulate(graph, plan, options);
    }
    metrics::RunReport operator()(
        const runtime::RuntimeOptions& options) const {
      return runtime::run_runtime(graph, plan, options);
    }
    metrics::RunReport operator()(
        const runtime::dist::DistOptions& options) const {
      return runtime::dist::run_distributed(graph, plan, options, stats);
    }
  };
  return std::visit(Runner{graph, plan, stats}, substrate);
}

}  // namespace aces::harness
