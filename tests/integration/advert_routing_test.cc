// Each rank's StepGo carries exactly the adverts its worker reads. A worker
// reads the advert of every downstream of a PE it hosts, and the Lock-Step
// congestion of the cross-node ones, so the coordinator relays an advert or
// a congested PE only to the ranks hosting one of that PE's upstream PEs,
// in PE order.
//
// Provides its own main(): this binary is also the worker executable. Every
// worker runs the real worker protocol behind an Endpoint that logs the
// adverts and congested PEs of each StepGo it receives and each StepDone it
// sends, to a file beside the run's socket. The test rebuilds, from every
// rank's StepDone for quantum k-1, the adverts and congested PEs each
// rank's StepGo k must carry, and compares.
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "control/config.h"
#include "graph/topology_generator.h"
#include "opt/global_optimizer.h"
#include "runtime/dist_coordinator.h"
#include "runtime/dist_options.h"
#include "runtime/dist_worker.h"
#include "runtime/transport/uds.h"
#include "runtime/wire.h"

namespace aces {
namespace {

namespace wire = runtime::wire;
namespace transport = runtime::transport;

/// The adverts (by PE) and congested PEs of one StepGo or StepDone.
struct Relayed {
  std::vector<std::uint32_t> adverts;
  std::vector<std::uint32_t> congested;
};

std::string log_path(const std::string& dir, std::uint32_t rank) {
  return dir + "/rank-" + std::to_string(rank) + ".log";
}

/// Forwards to a socket endpoint, logging one line per StepGo received and
/// StepDone sent: `go|done QUANTUM N_ADVERTS PE... N_CONGESTED PE...`.
class LoggingEndpoint final : public transport::Endpoint {
 public:
  LoggingEndpoint(std::unique_ptr<transport::Endpoint> inner,
                  const std::string& path)
      : inner_(std::move(inner)), log_(path) {}

  bool send(std::vector<std::uint8_t> frame) override {
    // The step loop sends StepDones; the heartbeat thread never does.
    const auto parsed = wire::parse_frame(frame.data(), frame.size());
    if (parsed.has_value() && parsed->type == wire::FrameType::kStepDone) {
      const auto done = wire::decode_step_done(parsed->payload);
      if (done.has_value()) {
        log("done", done->quantum, done->adverts, done->congested_pes);
      }
    }
    return inner_->send(std::move(frame));
  }

  transport::RecvStatus recv(wire::Frame* out, int timeout_ms) override {
    const transport::RecvStatus status = inner_->recv(out, timeout_ms);
    if (status == transport::RecvStatus::kOk &&
        out->type == wire::FrameType::kStepGo) {
      const auto go = wire::decode_step_go(out->payload);
      if (go.has_value()) {
        log("go", go->quantum, go->adverts, go->congested_pes);
      }
    }
    return status;
  }

  void close() override { inner_->close(); }

  [[nodiscard]] std::string_view last_error() const override {
    return inner_->last_error();
  }

 private:
  void log(const char* kind, std::uint64_t quantum,
           const std::vector<wire::Advert>& adverts,
           const std::vector<std::uint32_t>& congested) {
    log_ << kind << ' ' << quantum << ' ' << adverts.size();
    for (const wire::Advert& a : adverts) log_ << ' ' << a.pe;
    log_ << ' ' << congested.size();
    for (const std::uint32_t pe : congested) log_ << ' ' << pe;
    log_ << '\n' << std::flush;
  }

  std::unique_ptr<transport::Endpoint> inner_;
  std::ofstream log_;
};

int logging_worker(std::uint32_t rank, const std::string& uds_path) {
  std::string error;
  auto ep = transport::connect_uds(uds_path, 10000, &error);
  if (ep == nullptr) return 1;
  LoggingEndpoint logged(std::move(ep),
                         log_path(uds_path.substr(0, uds_path.rfind('/')),
                                  rank));
  return runtime::dist::worker_entry(logged, rank);
}

/// One rank's log: what its StepGos carried and its StepDones reported, by
/// quantum.
struct RankLog {
  std::map<std::uint64_t, Relayed> go;
  std::map<std::uint64_t, Relayed> done;
};

RankLog read_log(const std::string& path) {
  RankLog out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind;
    std::uint64_t quantum = 0;
    std::size_t n = 0;
    Relayed r;
    fields >> kind >> quantum >> n;
    r.adverts.resize(n);
    for (std::uint32_t& pe : r.adverts) fields >> pe;
    fields >> n;
    r.congested.resize(n);
    for (std::uint32_t& pe : r.congested) fields >> pe;
    (kind == "go" ? out.go : out.done)[quantum] = std::move(r);
  }
  return out;
}

struct Case {
  control::FlowPolicy policy;
  std::uint32_t shards;
};

class AdvertRoutingTest : public ::testing::TestWithParam<Case> {};

TEST_P(AdvertRoutingTest, EachStepGoCarriesWhatItsRankReads) {
  graph::TopologyParams p;
  p.num_nodes = 6;
  p.num_ingress = 3;
  p.num_intermediate = 9;
  p.num_egress = 3;
  p.depth = 3;
  const graph::ProcessingGraph g = generate_topology(p, 31);
  const opt::AllocationPlan plan = opt::optimize(g);

  std::string dir = ::testing::TempDir() + "aces-routing-XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  runtime::dist::DistOptions o;
  o.duration = 2.0;
  o.warmup = 0.4;
  o.processes = GetParam().shards;
  o.transport = transport::TransportKind::kUds;
  o.uds_dir = dir;
  o.controller.policy = GetParam().policy;
  o.channel_capacity = 2;  // small queues, so Lock-Step congests
  runtime::dist::DistStats stats;
  ASSERT_NO_THROW(runtime::dist::run_distributed(g, plan, o, &stats));

  const std::uint32_t shards = GetParam().shards;
  std::vector<RankLog> logs;
  for (std::uint32_t r = 0; r < shards; ++r) {
    logs.push_back(read_log(log_path(dir, r)));
    std::remove(log_path(dir, r).c_str());
  }
  ::rmdir(dir.c_str());

  // What rank r reads: the downstreams of the PEs on its nodes.
  std::vector<std::set<std::uint32_t>> reads(shards);
  for (PeId pe : g.all_pes()) {
    const std::uint32_t rank = runtime::dist::owner_of_node(
        g.node_count(), shards, g.pe(pe).node.value());
    for (PeId down : g.downstream(pe)) reads[rank].insert(down.value());
  }
  const auto read_by = [&reads](std::uint32_t rank) {
    return [&reads, rank](std::uint32_t pe) {
      return reads[rank].count(pe) > 0;
    };
  };

  std::size_t adverts_relayed = 0;
  std::size_t adverts_withheld = 0;
  std::size_t congested_relayed = 0;
  ASSERT_FALSE(logs[0].go.empty());
  const std::uint64_t last = logs[0].go.rbegin()->first;
  ASSERT_GT(last, 10u);
  for (std::uint64_t k = 1; k <= last; ++k) {
    // Pending for StepGo k: the StepDones of k-1 in rank order, adverts
    // stably sorted by PE, congested PEs sorted and unique.
    Relayed pending;
    for (const RankLog& log : logs) {
      ASSERT_EQ(log.done.count(k - 1), 1u) << "quantum " << k - 1;
      const Relayed& d = log.done.at(k - 1);
      pending.adverts.insert(pending.adverts.end(), d.adverts.begin(),
                             d.adverts.end());
      pending.congested.insert(pending.congested.end(), d.congested.begin(),
                               d.congested.end());
    }
    std::stable_sort(pending.adverts.begin(), pending.adverts.end());
    std::sort(pending.congested.begin(), pending.congested.end());
    pending.congested.erase(
        std::unique(pending.congested.begin(), pending.congested.end()),
        pending.congested.end());
    for (std::uint32_t r = 0; r < shards; ++r) {
      ASSERT_EQ(logs[r].go.count(k), 1u) << "rank " << r << " quantum " << k;
      const Relayed& go = logs[r].go.at(k);
      Relayed want;
      std::ranges::copy_if(pending.adverts, std::back_inserter(want.adverts),
                           read_by(r));
      std::ranges::copy_if(pending.congested,
                           std::back_inserter(want.congested), read_by(r));
      EXPECT_EQ(go.adverts, want.adverts) << "rank " << r << " quantum " << k;
      EXPECT_EQ(go.congested, want.congested)
          << "rank " << r << " quantum " << k;
      adverts_relayed += go.adverts.size();
      adverts_withheld += pending.adverts.size() - go.adverts.size();
      congested_relayed += go.congested.size();
    }
  }
  EXPECT_GT(adverts_relayed, 0u);
  EXPECT_GT(adverts_withheld, 0u) << "every rank read every advert";
  if (GetParam().policy == control::FlowPolicy::kLockStep) {
    EXPECT_GT(congested_relayed, 0u) << "Lock-Step never congested";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Routing, AdvertRoutingTest,
    ::testing::Values(Case{control::FlowPolicy::kAces, 2},
                      Case{control::FlowPolicy::kAces, 3},
                      Case{control::FlowPolicy::kLockStep, 2},
                      Case{control::FlowPolicy::kLockStep, 3}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.policy == control::FlowPolicy::kAces
                             ? "Aces"
                             : "LockStep") +
             std::to_string(info.param.shards) + "Shards";
    });

}  // namespace
}  // namespace aces

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "dist-worker") == 0) {
    std::uint32_t rank = 0;
    std::string uds;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--rank=", 0) == 0) {
        rank = static_cast<std::uint32_t>(std::stoul(arg.substr(7)));
      }
      if (arg.rfind("--uds=", 0) == 0) uds = arg.substr(6);
    }
    return aces::logging_worker(rank, uds);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
