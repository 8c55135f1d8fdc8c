// A worker whose StepDone names an index out of range must cost only its
// own shard. The coordinator acts on every index a StepDone carries: it
// routes each delivery by its destination PE, routes adverts and congested
// PEs by their PE to the workers that read them (which index arrays with
// them), and routes each span handoff with the delivery it names. Unchecked, one bad index throws out of
// run_distributed or corrupts another worker. Checked on receipt, it is a
// malformed frame: a decode reject, and the sender is declared dead.
//
// A worker that is merely slow must cost nothing. A StepDone whose bytes
// are still arriving when one of the coordinator's receive slices ends is
// late, not malformed: the shard stays alive and the run does the same
// work as a clean one.
//
// Provides its own main(): this binary is also the worker executable. Rank
// 1 answers the first StepGo with a well-encoded StepDone carrying one bad
// index, chosen by the run's seed; every other rank is the real worker.
// When the run's socket lies in an `aces-split-` directory, every rank is
// instead the real worker behind an endpoint that writes one StepDone in
// two halves.
#include <stdlib.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "control/config.h"
#include "graph/topology_generator.h"
#include "metrics/report_fingerprint.h"
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
  kAdvertsOutOfOrder,
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
    case Violation::kAdvertsOutOfOrder:
      // The coordinator merges each rank's adverts as a run in PE order.
      done.adverts.push_back(wire::Advert{1, 1.0, 0.0});
      done.adverts.push_back(wire::Advert{0, 1.0, 0.0});
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
                      Violation::kHandoffsOutOfOrder,
                      Violation::kAdvertsOutOfOrder),
    [](const ::testing::TestParamInfo<Violation>& info) {
      switch (info.param) {
        case Violation::kDeliveryPe: return std::string("DeliveryPe");
        case Violation::kAdvertPe: return std::string("AdvertPe");
        case Violation::kCongestedPe: return std::string("CongestedPe");
        case Violation::kHandoffPastLastDelivery:
          return std::string("HandoffPastLastDelivery");
        case Violation::kHandoffsOutOfOrder:
          return std::string("HandoffsOutOfOrder");
        case Violation::kAdvertsOutOfOrder:
          return std::string("AdvertsOutOfOrder");
      }
      return std::string("Unknown");
    });

/// The quantum whose StepDone a split worker writes in two halves.
constexpr std::uint64_t kSplitQuantum = 5;
/// The pause between the halves: three of the coordinator's 20-ms receive
/// slices, well inside its heartbeat timeout.
constexpr auto kSplitPause = std::chrono::milliseconds(60);

/// Forwards to a socket endpoint, except that the send carrying the
/// StepDone of kSplitQuantum is written in two halves, cut inside that
/// StepDone, kSplitPause apart. One lock covers both halves, so the
/// heartbeat thread cannot write in between.
class SplitWriteEndpoint final : public runtime::transport::Endpoint {
 public:
  explicit SplitWriteEndpoint(std::unique_ptr<runtime::transport::Endpoint> inner)
      : inner_(std::move(inner)) {}

  bool send(std::vector<std::uint8_t> frames) override {
    const std::lock_guard lock(mu_);
    const std::size_t cut = split_point(frames);
    if (cut == 0) return inner_->send(std::move(frames));
    const auto middle = frames.begin() + static_cast<std::ptrdiff_t>(cut);
    if (!inner_->send(std::vector<std::uint8_t>(frames.begin(), middle))) {
      return false;
    }
    std::this_thread::sleep_for(kSplitPause);
    return inner_->send(std::vector<std::uint8_t>(middle, frames.end()));
  }

  runtime::transport::RecvStatus recv(wire::Frame* out,
                                      int timeout_ms) override {
    return inner_->recv(out, timeout_ms);
  }

  void close() override { inner_->close(); }

  [[nodiscard]] std::string_view last_error() const override {
    return inner_->last_error();
  }

 private:
  /// The middle of the StepDone of kSplitQuantum in `frames`, or 0.
  static std::size_t split_point(const std::vector<std::uint8_t>& frames) {
    std::size_t at = 0;
    while (at < frames.size()) {
      const auto extent =
          wire::frame_extent(frames.data() + at, frames.size() - at);
      if (!extent.has_value() || extent->bytes > frames.size() - at) return 0;
      if (extent->type == wire::FrameType::kStepDone) {
        const auto frame = wire::parse_frame(frames.data() + at, extent->bytes);
        const auto done = wire::decode_step_done(frame->payload);
        if (done.has_value() && done->quantum == kSplitQuantum) {
          return at + extent->bytes / 2;
        }
      }
      at += extent->bytes;
    }
    return 0;
  }

  std::mutex mu_;
  std::unique_ptr<runtime::transport::Endpoint> inner_;
};

int split_worker(std::uint32_t rank, const std::string& uds_path) {
  std::string error;
  auto ep = runtime::transport::connect_uds(uds_path, 10000, &error);
  if (ep == nullptr) return 1;
  SplitWriteEndpoint split(std::move(ep));
  return runtime::dist::worker_entry(split, rank);
}

TEST(PartialFrameTest, AFrameStillArrivingWhenASliceEndsKeepsItsShard) {
  graph::TopologyParams p;
  p.num_nodes = 3;
  p.num_ingress = 2;
  p.num_intermediate = 4;
  p.num_egress = 2;
  p.depth = 2;
  const graph::ProcessingGraph g = generate_topology(p, 21);
  const opt::AllocationPlan plan = opt::optimize(g);

  // The clean run is in-process, where no rank here is hostile; work
  // fingerprints do not depend on the transport.
  runtime::dist::DistOptions o;
  o.duration = 1.0;
  o.warmup = 0.2;
  o.processes = 2;
  o.transport = runtime::transport::TransportKind::kInProc;
  o.controller.policy = control::FlowPolicy::kAces;
  const std::string clean =
      metrics::work_fingerprint(runtime::dist::run_distributed(g, plan, o));

  o.transport = runtime::transport::TransportKind::kUds;
  std::string dir = ::testing::TempDir() + "aces-split-XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  o.uds_dir = dir;
  obs::ClusterAggregator agg;
  o.aggregator = &agg;
  runtime::dist::DistStats stats;
  metrics::RunReport report;
  EXPECT_NO_THROW(report = runtime::dist::run_distributed(g, plan, o, &stats));
  ::rmdir(dir.c_str());

  const auto shards = agg.shard_statuses();
  ASSERT_EQ(shards.size(), 2u);
  for (const auto& [rank, status] : shards) {
    EXPECT_TRUE(status.alive) << "shard " << rank;
    EXPECT_EQ(status.decode_rejects, 0u) << "shard " << rank;
  }
  EXPECT_EQ(stats.orphans_reaped, 0u);
  EXPECT_EQ(metrics::work_fingerprint(report), clean);
}

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
    if (uds.find("/aces-split-") != std::string::npos) {
      return aces::split_worker(
          static_cast<std::uint32_t>(std::stoul(rank)), uds);
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
