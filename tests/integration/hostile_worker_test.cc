// A worker whose peer batch names an index out of range must cost only its
// own shard. A worker acts on every index a batch from a peer carries: it
// applies each delivery to its destination PE, adverts and congested PEs by
// their PE (which index arrays with them), and each span handoff with the
// delivery it names. Unchecked, one bad index throws out of the receiving
// worker or corrupts it. Checked on receipt, it is a malformed batch: the
// receiver closes the link and names the sender in its StepDone, and the
// coordinator counts a decode reject against the sender and declares it
// dead.
//
// A worker that is merely slow must cost nothing. A StepDone whose bytes
// are still arriving when one of the coordinator's receive slices ends is
// late, not malformed: the shard stays alive and the run does the same
// work as a clean one.
//
// Provides its own main(): this binary is also the worker executable. Rank
// 1 is the real worker with its peer links wrapped (the PeerLinks seam): the
// first batch it sends that carries a delivery gets one bad index, chosen by
// the name of the run's socket directory. When that directory is an
// `aces-split-` one, every rank is instead the real worker behind an
// endpoint that writes one StepDone in two halves.
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
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

/// The bad index a hostile batch carries.
enum class Violation : std::uint64_t {
  kDeliveryPe,
  kAdvertPe,
  kCongestedPe,
  kHandoffPastLastDelivery,
  kHandoffsOutOfOrder,
  kAdvertsOutOfOrder,
};

constexpr std::uint32_t kFarOutOfRange = 1u << 30;
constexpr std::uint32_t kHostileRank = 1;
/// A run's socket directory starts with this, then the violation's number.
constexpr std::string_view kHostileDir = "aces-hostile";

/// Adds `v` to an honest `batch` that carries at least one delivery, so
/// nothing but the violation is wrong with it.
void corrupt(wire::PeerBatch& batch, Violation v) {
  switch (v) {
    case Violation::kDeliveryPe:
      batch.deliveries.push_back(wire::SdoDelivery{kFarOutOfRange, 0, 0.0});
      break;
    case Violation::kAdvertPe:
      batch.adverts.push_back(wire::Advert{kFarOutOfRange, 1.0, 0.0});
      break;
    case Violation::kCongestedPe:
      batch.congested_pes.push_back(kFarOutOfRange);
      break;
    case Violation::kHandoffPastLastDelivery:
      batch.spans.clear();
      batch.spans.push_back(wire::SpanHandoff{
          static_cast<std::uint32_t>(batch.deliveries.size()), {}});
      break;
    case Violation::kHandoffsOutOfOrder:
      batch.deliveries.push_back(batch.deliveries.front());
      batch.spans.clear();
      batch.spans.push_back(wire::SpanHandoff{1, {}});
      batch.spans.push_back(wire::SpanHandoff{0, {}});
      break;
    case Violation::kAdvertsOutOfOrder:
      // A receiver checks each batch's adverts are in strict PE order.
      batch.adverts.clear();
      batch.adverts.push_back(wire::Advert{1, 1.0, 0.0});
      batch.adverts.push_back(wire::Advert{0, 1.0, 0.0});
      break;
  }
}

/// Forwards to a peer link, except that the first batch with a delivery
/// gets the violation.
class HostileLink final : public runtime::transport::Endpoint {
 public:
  HostileLink(std::unique_ptr<runtime::transport::Endpoint> inner,
              Violation v)
      : inner_(std::move(inner)), violation_(v) {}

  bool send(std::vector<std::uint8_t> frames) override {
    const auto frame = wire::parse_frame(frames.data(), frames.size());
    if (!corrupted_ && frame.has_value() &&
        frame->type == wire::FrameType::kPeerBatch) {
      auto batch = wire::decode_peer_batch(frame->payload);
      if (batch.has_value() && !batch->deliveries.empty()) {
        corrupt(*batch, violation_);
        corrupted_ = true;
        return inner_->send(wire::encode(*batch));
      }
    }
    return inner_->send(std::move(frames));
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
  std::unique_ptr<runtime::transport::Endpoint> inner_;
  Violation violation_;
  bool corrupted_ = false;
};

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
  o.processes = 2;
  o.transport = runtime::transport::TransportKind::kUds;
  std::string dir = ::testing::TempDir() + std::string(kHostileDir) +
                    std::to_string(static_cast<std::uint64_t>(GetParam())) +
                    "-XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  o.uds_dir = dir;
  o.controller.policy = control::FlowPolicy::kAces;
  obs::ClusterAggregator agg;
  o.aggregator = &agg;
  runtime::dist::DistStats stats;

  metrics::RunReport report;
  EXPECT_NO_THROW(report = runtime::dist::run_distributed(g, plan, o, &stats));
  EXPECT_EQ(::rmdir(dir.c_str()), 0) << "a socket file outlived the run";
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

/// The quantum whose StepDone a split worker writes in two halves: the
/// last of the segment [4, 8) at 4 substeps, so a StepDone is sent there.
constexpr std::uint64_t kSplitQuantum = 7;
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
  runtime::dist::PeerLinks peers;
  peers.kind = runtime::transport::TransportKind::kUds;
  peers.coordinator_path = uds_path;
  return runtime::dist::worker_entry(split, rank, peers);
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
  o.substeps = 4;
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
  double slowest = 0.0;
  for (const auto& [rank, status] : shards) {
    EXPECT_TRUE(status.alive) << "shard " << rank;
    EXPECT_EQ(status.decode_rejects, 0u) << "shard " << rank;
    slowest = std::max(slowest, status.rtt_seconds.max());
  }
  // The split happened: a segment waited out the pause.
  EXPECT_GE(slowest, std::chrono::duration<double>(kSplitPause).count());
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
    const std::size_t at = uds.find(aces::kHostileDir);
    if (rank == std::to_string(aces::kHostileRank) &&
        at != std::string::npos) {
      const auto violation = static_cast<aces::Violation>(
          std::stoul(uds.substr(at + aces::kHostileDir.size())));
      return aces::runtime::dist::maybe_worker(
          argc, argv,
          [violation](std::uint32_t,
                      std::unique_ptr<aces::runtime::transport::Endpoint> link)
              -> std::unique_ptr<aces::runtime::transport::Endpoint> {
            return std::make_unique<aces::HostileLink>(std::move(link),
                                                       violation);
          });
    }
  }
  if (const int rc = aces::runtime::dist::maybe_worker(argc, argv); rc >= 0) {
    return rc;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
