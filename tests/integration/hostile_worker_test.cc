// A worker whose StepDone names an index out of range must cost only its
// own shard. The coordinator acts on every index a StepDone carries: it
// routes each delivery by its destination PE, routes adverts and congested
// PEs by their PE to the workers that read them (which index arrays with
// them), and routes each span handoff with the delivery it names. Unchecked, one bad index throws out of
// run_distributed or corrupts another worker. Checked on receipt, it is a
// malformed frame: a decode reject, and the sender is declared dead.
//
// Provides its own main(): this binary is also the worker executable. Rank
// 1 answers the first StepGo with a well-encoded StepDone carrying one bad
// index, chosen by the run's seed; every other rank is the real worker.
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "control/config.h"
#include "graph/topology_generator.h"
#include "obs/cluster_aggregate.h"
#include "opt/global_optimizer.h"
#include "runtime/dist_coordinator.h"
#include "runtime/dist_options.h"
#include "runtime/dist_worker.h"
#include "runtime/transport/uds.h"
#include "runtime/wire.h"

namespace aces {
namespace {

namespace wire = runtime::wire;

/// The bad index a hostile StepDone carries.
enum class Violation : std::uint64_t {
  kDeliveryPe,
  kAdvertPe,
  kCongestedPe,
  kHandoffPastLastDelivery,
  kHandoffsOutOfOrder,
};

/// Run seeds encode the violation, so the worker process can read it from
/// its Config.
constexpr std::uint64_t kSeedBase = 1000;
constexpr std::uint32_t kFarOutOfRange = 1u << 30;
constexpr std::uint32_t kHostileRank = 1;

wire::StepDone hostile_step_done(std::uint64_t quantum, Violation v) {
  wire::StepDone done;
  done.quantum = quantum;
  done.deliveries.push_back(wire::SdoDelivery{0, 0, 0.0});
  switch (v) {
    case Violation::kDeliveryPe:
      done.deliveries.push_back(wire::SdoDelivery{kFarOutOfRange, 0, 0.0});
      break;
    case Violation::kAdvertPe:
      done.adverts.push_back(wire::Advert{kFarOutOfRange, 1.0, 0.0});
      break;
    case Violation::kCongestedPe:
      done.congested_pes.push_back(kFarOutOfRange);
      break;
    case Violation::kHandoffPastLastDelivery:
      done.spans.push_back(wire::SpanHandoff{1, obs::SdoSpan{}});
      break;
    case Violation::kHandoffsOutOfOrder:
      done.deliveries.push_back(wire::SdoDelivery{0, 0, 0.0});
      done.spans.push_back(wire::SpanHandoff{1, obs::SdoSpan{}});
      done.spans.push_back(wire::SpanHandoff{0, obs::SdoSpan{}});
      break;
  }
  return done;
}

/// Hello, Config, then one hostile StepDone; afterwards it waits to be
/// killed or shut down.
int hostile_worker(const std::string& uds_path) {
  std::string error;
  const std::unique_ptr<runtime::transport::Endpoint> ep =
      runtime::transport::connect_uds(uds_path, 10000, &error);
  if (ep == nullptr || !ep->send(wire::encode(wire::Hello{kHostileRank}))) {
    return 1;
  }
  wire::Frame frame;
  if (ep->recv(&frame, 10000) != runtime::transport::RecvStatus::kOk) return 1;
  const auto cfg = wire::decode_config(frame.payload);
  if (!cfg.has_value()) return 1;
  const auto violation = static_cast<Violation>(cfg->seed - kSeedBase);
  while (ep->recv(&frame, 10000) == runtime::transport::RecvStatus::kOk) {
    if (frame.type == wire::FrameType::kShutdown) return 0;
    if (frame.type != wire::FrameType::kStepGo) continue;
    const auto go = wire::decode_step_go(frame.payload);
    if (!go.has_value() ||
        !ep->send(wire::encode(hostile_step_done(go->quantum, violation)))) {
      return 1;
    }
  }
  return 1;
}

class HostileWorkerTest : public ::testing::TestWithParam<Violation> {};

TEST_P(HostileWorkerTest, BadIndexCostsOnlyTheSendersShard) {
  graph::TopologyParams p;
  p.num_nodes = 3;
  p.num_ingress = 2;
  p.num_intermediate = 4;
  p.num_egress = 2;
  p.depth = 2;
  const graph::ProcessingGraph g = generate_topology(p, 21);
  const opt::AllocationPlan plan = opt::optimize(g);

  runtime::dist::DistOptions o;
  o.duration = 1.0;
  o.warmup = 0.2;
  o.seed = kSeedBase + static_cast<std::uint64_t>(GetParam());
  o.processes = 2;
  o.transport = runtime::transport::TransportKind::kUds;
  o.controller.policy = control::FlowPolicy::kAces;
  obs::ClusterAggregator agg;
  o.aggregator = &agg;
  runtime::dist::DistStats stats;

  metrics::RunReport report;
  ASSERT_NO_THROW(report = runtime::dist::run_distributed(g, plan, o, &stats));
  const auto shards = agg.shard_statuses();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_FALSE(shards.at(kHostileRank).alive);
  EXPECT_EQ(shards.at(kHostileRank).decode_rejects, 1u);
  EXPECT_TRUE(shards.at(0).alive);
  EXPECT_EQ(shards.at(0).decode_rejects, 0u);
  EXPECT_EQ(stats.orphans_reaped, 0u);
  EXPECT_GT(report.events_executed, 0u) << "the honest shard kept working";
}

INSTANTIATE_TEST_SUITE_P(
    Violations, HostileWorkerTest,
    ::testing::Values(Violation::kDeliveryPe, Violation::kAdvertPe,
                      Violation::kCongestedPe,
                      Violation::kHandoffPastLastDelivery,
                      Violation::kHandoffsOutOfOrder),
    [](const ::testing::TestParamInfo<Violation>& info) {
      switch (info.param) {
        case Violation::kDeliveryPe: return std::string("DeliveryPe");
        case Violation::kAdvertPe: return std::string("AdvertPe");
        case Violation::kCongestedPe: return std::string("CongestedPe");
        case Violation::kHandoffPastLastDelivery:
          return std::string("HandoffPastLastDelivery");
        case Violation::kHandoffsOutOfOrder:
          return std::string("HandoffsOutOfOrder");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace aces

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "dist-worker") == 0) {
    std::string rank;
    std::string uds;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--rank=", 0) == 0) rank = arg.substr(7);
      if (arg.rfind("--uds=", 0) == 0) uds = arg.substr(6);
    }
    if (rank == std::to_string(aces::kHostileRank)) {
      return aces::hostile_worker(uds);
    }
  }
  if (const int rc = aces::runtime::dist::maybe_worker(argc, argv); rc >= 0) {
    return rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
