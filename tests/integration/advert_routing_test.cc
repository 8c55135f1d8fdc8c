// Only what crosses ranks crosses the wire. A worker reads the advert of
// every downstream of a PE it hosts, and the Lock-Step congestion of the
// cross-node ones. What it reads of its own PEs, and the deliveries between
// its own nodes, stay in its loopback. So a StepDone carries only adverts
// and congested PEs some other rank reads, and the coordinator relays each
// only to the other ranks hosting one of that PE's upstream PEs, in PE
// order. At one shard nothing is relayed at all, and the work is the same
// at any shard count.
//
// Provides its own main(): this binary is also the worker executable. Every
// worker runs the real worker protocol behind an Endpoint that logs what
// each StepGo it receives and each StepDone it sends carries, to a file
// beside the run's socket. The test rebuilds, from the other ranks'
// StepDones for quantum k-1, the adverts and congested PEs each rank's
// StepGo k must carry, and compares.
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
#include "metrics/report_fingerprint.h"
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

/// What one StepGo or StepDone carries: its delivery and span counts, its
/// adverts (by PE) and its congested PEs.
struct Relayed {
  std::size_t deliveries = 0;
  std::size_t spans = 0;
  std::vector<std::uint32_t> adverts;
  std::vector<std::uint32_t> congested;
};

std::string log_path(const std::string& dir, std::uint32_t rank) {
  return dir + "/rank-" + std::to_string(rank) + ".log";
}

/// Forwards to a socket endpoint, logging one line per StepGo received and
/// StepDone sent: `go|done QUANTUM N_DELIVERIES N_SPANS N_ADVERTS PE...
/// N_CONGESTED PE...`.
class LoggingEndpoint final : public transport::Endpoint {
 public:
  LoggingEndpoint(std::unique_ptr<transport::Endpoint> inner,
                  const std::string& path)
      : inner_(std::move(inner)), log_(path) {}

  bool send(std::vector<std::uint8_t> frames) override {
    // The step loop sends a StepDone with the quantum's telemetry frames in
    // one send; the heartbeat thread never sends one.
    std::size_t at = 0;
    while (at < frames.size()) {
      const auto extent =
          wire::frame_extent(frames.data() + at, frames.size() - at);
      if (!extent.has_value() || extent->bytes > frames.size() - at) break;
      if (extent->type == wire::FrameType::kStepDone) {
        const auto parsed = wire::parse_frame(frames.data() + at,
                                              extent->bytes);
        const auto done = wire::decode_step_done(parsed->payload);
        if (done.has_value()) log("done", done->quantum, *done);
      }
      at += extent->bytes;
    }
    return inner_->send(std::move(frames));
  }

  transport::RecvStatus recv(wire::Frame* out, int timeout_ms) override {
    const transport::RecvStatus status = inner_->recv(out, timeout_ms);
    if (status == transport::RecvStatus::kOk &&
        out->type == wire::FrameType::kStepGo) {
      const auto go = wire::decode_step_go(out->payload);
      if (go.has_value()) log("go", go->quantum, *go);
    }
    return status;
  }

  void close() override { inner_->close(); }

  [[nodiscard]] std::string_view last_error() const override {
    return inner_->last_error();
  }

 private:
  /// Logs a StepGo or StepDone.
  template <class Frame>
  void log(const char* kind, std::uint64_t quantum, const Frame& f) {
    log_ << kind << ' ' << quantum << ' ' << f.deliveries.size() << ' '
         << f.spans.size() << ' ' << f.adverts.size();
    for (const wire::Advert& a : f.adverts) log_ << ' ' << a.pe;
    log_ << ' ' << f.congested_pes.size();
    for (const std::uint32_t pe : f.congested_pes) log_ << ' ' << pe;
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
    fields >> kind >> quantum >> r.deliveries >> r.spans >> n;
    r.adverts.resize(n);
    for (std::uint32_t& pe : r.adverts) fields >> pe;
    fields >> n;
    r.congested.resize(n);
    for (std::uint32_t& pe : r.congested) fields >> pe;
    (kind == "go" ? out.go : out.done)[quantum] = std::move(r);
  }
  return out;
}

graph::ProcessingGraph test_graph() {
  graph::TopologyParams p;
  p.num_nodes = 6;
  p.num_ingress = 3;
  p.num_intermediate = 9;
  p.num_egress = 3;
  p.depth = 3;
  return generate_topology(p, 31);
}

/// One UDS run of `g` under `policy` on `shards` logging workers, with
/// every span sampled when `sample`. Returns its report and fills `logs`
/// with each rank's log.
metrics::RunReport logged_run(const graph::ProcessingGraph& g,
                              control::FlowPolicy policy,
                              std::uint32_t shards, double sample,
                              std::vector<RankLog>* logs) {
  std::string dir = ::testing::TempDir() + "aces-routing-XXXXXX";
  EXPECT_NE(::mkdtemp(dir.data()), nullptr);
  runtime::dist::DistOptions o;
  o.duration = 2.0;
  o.warmup = 0.4;
  o.processes = shards;
  o.transport = transport::TransportKind::kUds;
  o.uds_dir = dir;
  o.controller.policy = policy;
  o.channel_capacity = 2;  // small queues, so Lock-Step congests
  o.span_sample = sample;
  metrics::RunReport report;
  EXPECT_NO_THROW(report =
                      runtime::dist::run_distributed(g, opt::optimize(g), o));
  for (std::uint32_t r = 0; r < shards; ++r) {
    logs->push_back(read_log(log_path(dir, r)));
    std::remove(log_path(dir, r).c_str());
  }
  ::rmdir(dir.c_str());
  return report;
}

/// Per rank, the PEs whose adverts and congestion it reads: the
/// downstreams of the PEs on its nodes.
std::vector<std::set<std::uint32_t>> reads_by_rank(
    const graph::ProcessingGraph& g, std::uint32_t shards) {
  std::vector<std::set<std::uint32_t>> reads(shards);
  for (PeId pe : g.all_pes()) {
    const std::uint32_t rank = runtime::dist::owner_of_node(
        g.node_count(), shards, g.pe(pe).node.value());
    for (PeId down : g.downstream(pe)) reads[rank].insert(down.value());
  }
  return reads;
}

std::string policy_name(control::FlowPolicy policy) {
  return policy == control::FlowPolicy::kAces ? "Aces" : "LockStep";
}

struct Case {
  control::FlowPolicy policy;
  std::uint32_t shards;
};

class AdvertRoutingTest : public ::testing::TestWithParam<Case> {};

TEST_P(AdvertRoutingTest, EachStepGoCarriesWhatItsRankReads) {
  const graph::ProcessingGraph g = test_graph();
  const std::uint32_t shards = GetParam().shards;
  std::vector<RankLog> logs;
  logged_run(g, GetParam().policy, shards, 0.0, &logs);
  const std::vector<std::set<std::uint32_t>> reads = reads_by_rank(g, shards);
  const auto read_by = [&reads](std::uint32_t rank) {
    return [&reads, rank](std::uint32_t pe) {
      return reads[rank].count(pe) > 0;
    };
  };
  const auto read_by_other_than = [&](std::uint32_t rank) {
    return [&, rank](std::uint32_t pe) {
      for (std::uint32_t r = 0; r < shards; ++r) {
        if (r != rank && read_by(r)(pe)) return true;
      }
      return false;
    };
  };

  std::vector<std::size_t> hosted(shards, 0);
  for (PeId pe : g.all_pes()) {
    ++hosted[runtime::dist::owner_of_node(g.node_count(), shards,
                                          g.pe(pe).node.value())];
  }

  std::size_t adverts_relayed = 0;
  std::size_t adverts_withheld = 0;
  std::size_t adverts_kept_home = 0;
  std::size_t congested_relayed = 0;
  ASSERT_FALSE(logs[0].go.empty());
  const std::uint64_t last = logs[0].go.rbegin()->first;
  ASSERT_GT(last, 10u);
  for (std::uint64_t k = 0; k < last; ++k) {
    // A StepDone carries only what some other rank reads.
    for (std::uint32_t r = 0; r < shards; ++r) {
      ASSERT_EQ(logs[r].done.count(k), 1u) << "rank " << r << " quantum " << k;
      const Relayed& d = logs[r].done.at(k);
      if (!d.adverts.empty()) adverts_kept_home += hosted[r] - d.adverts.size();
      EXPECT_TRUE(std::ranges::all_of(d.adverts, read_by_other_than(r)))
          << "rank " << r << " quantum " << k;
      EXPECT_TRUE(std::ranges::all_of(d.congested, read_by_other_than(r)))
          << "rank " << r << " quantum " << k;
    }
  }
  for (std::uint64_t k = 1; k <= last; ++k) {
    for (std::uint32_t r = 0; r < shards; ++r) {
      // StepGo k carries, in PE order, what r reads of the other ranks'
      // StepDones of k-1.
      Relayed want;
      for (std::uint32_t s = 0; s < shards; ++s) {
        if (s == r) continue;
        const Relayed& d = logs[s].done.at(k - 1);
        std::ranges::copy_if(d.adverts, std::back_inserter(want.adverts),
                             read_by(r));
        std::ranges::copy_if(d.congested, std::back_inserter(want.congested),
                             read_by(r));
        adverts_withheld += d.adverts.size();
      }
      std::ranges::sort(want.adverts);
      std::ranges::sort(want.congested);
      ASSERT_EQ(logs[r].go.count(k), 1u) << "rank " << r << " quantum " << k;
      const Relayed& go = logs[r].go.at(k);
      EXPECT_EQ(go.adverts, want.adverts) << "rank " << r << " quantum " << k;
      EXPECT_EQ(go.congested, want.congested)
          << "rank " << r << " quantum " << k;
      adverts_relayed += go.adverts.size();
      adverts_withheld -= go.adverts.size();
      congested_relayed += go.congested.size();
    }
  }
  EXPECT_GT(adverts_relayed, 0u);
  EXPECT_GT(adverts_kept_home, 0u) << "every advert went on the wire";
  if (shards > 2) {
    EXPECT_GT(adverts_withheld, 0u) << "every rank read every advert";
  }
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
      return policy_name(info.param.policy) +
             std::to_string(info.param.shards) + "Shards";
    });

class LoopbackTest : public ::testing::TestWithParam<control::FlowPolicy> {};

TEST_P(LoopbackTest, OneShardRelaysNothingAndDoesTheShardedRunsWork) {
  const graph::ProcessingGraph g = test_graph();
  std::vector<RankLog> one;
  const std::string fp1 = metrics::work_fingerprint(
      logged_run(g, GetParam(), 1, 1.0, &one));
  ASSERT_EQ(one.size(), 1u);
  ASSERT_GT(one[0].go.size(), 10u);
  for (const auto& [k, go] : one[0].go) {
    EXPECT_EQ(go.deliveries, 0u) << "quantum " << k;
    EXPECT_EQ(go.spans, 0u) << "quantum " << k;
    EXPECT_TRUE(go.adverts.empty()) << "quantum " << k;
    EXPECT_TRUE(go.congested.empty()) << "quantum " << k;
  }
  for (const std::uint32_t shards : {2u, 3u}) {
    std::vector<RankLog> logs;
    EXPECT_EQ(fp1, metrics::work_fingerprint(
                       logged_run(g, GetParam(), shards, 1.0, &logs)))
        << shards << " shards";
    std::size_t spans_relayed = 0;
    for (const RankLog& log : logs) {
      for (const auto& [k, go] : log.go) spans_relayed += go.spans;
    }
    EXPECT_GT(spans_relayed, 0u) << shards << " shards";
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, LoopbackTest,
                         ::testing::Values(control::FlowPolicy::kAces,
                                           control::FlowPolicy::kLockStep),
                         [](const ::testing::TestParamInfo<
                             control::FlowPolicy>& info) {
                           return policy_name(info.param);
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
