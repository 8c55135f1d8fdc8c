// Only what a rank reads crosses to it. A worker reads the advert of every
// downstream of a PE it hosts, and the Lock-Step congestion of the
// cross-node ones. So the batch rank p sends rank r after quantum k carries
// exactly what r reads of p's quantum k: the deliveries to r's nodes, and
// the adverts and congested PEs of p's PEs that one of r's PEs feeds, in PE
// order. What p reads of its own output stays in its loopback and never
// travels, and at one shard there is no peer link at all. The work is the
// same at any shard count.
//
// Provides its own main(): this binary is also the worker executable. Every
// worker runs the real worker protocol, with each peer link wrapped (the
// PeerLinks seam) in an endpoint that logs each batch it sends and receives
// to a file beside the run's socket. The test reads the logs back and
// checks every batch against the graph.
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

constexpr std::uint32_t kSubsteps = 4;

/// What one batch carries: its deliveries (destination PE, source node),
/// its span count, its adverts (by PE) and its congested PEs.
struct Batch {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> deliveries;
  std::size_t spans = 0;
  std::vector<std::uint32_t> adverts;
  std::vector<std::uint32_t> congested;

  bool operator==(const Batch&) const = default;
};

std::string log_path(const std::string& dir, std::uint32_t rank) {
  return dir + "/rank-" + std::to_string(rank) + ".log";
}

/// Forwards to a peer link, logging one line per batch sent or received:
/// `out|in PEER QUANTUM N_DELIVERIES DEST:SRC... N_SPANS N_ADVERTS PE...
/// N_CONGESTED PE...`. A worker's links share its log; only its step loop
/// uses them.
class LoggingLink final : public transport::Endpoint {
 public:
  LoggingLink(std::unique_ptr<transport::Endpoint> inner, std::uint32_t peer,
              std::shared_ptr<std::ofstream> log)
      : inner_(std::move(inner)), peer_(peer), log_(std::move(log)) {}

  bool send(std::vector<std::uint8_t> frames) override {
    const auto frame = wire::parse_frame(frames.data(), frames.size());
    if (frame.has_value() && frame->type == wire::FrameType::kPeerBatch) {
      const auto batch = wire::decode_peer_batch(frame->payload);
      if (batch.has_value()) log("out", *batch);
    }
    return inner_->send(std::move(frames));
  }

  transport::RecvStatus recv(wire::Frame* out, int timeout_ms) override {
    const transport::RecvStatus status = inner_->recv(out, timeout_ms);
    if (status == transport::RecvStatus::kOk &&
        out->type == wire::FrameType::kPeerBatch) {
      const auto batch = wire::decode_peer_batch(out->payload);
      if (batch.has_value()) log("in", *batch);
    }
    return status;
  }

  void close() override { inner_->close(); }

  [[nodiscard]] std::string_view last_error() const override {
    return inner_->last_error();
  }

 private:
  void log(const char* way, const wire::PeerBatch& b) {
    std::ofstream& out = *log_;
    out << way << ' ' << peer_ << ' ' << b.quantum << ' '
        << b.deliveries.size();
    for (const wire::SdoDelivery& d : b.deliveries) {
      out << ' ' << d.dest_pe << ':' << d.src_node;
    }
    out << ' ' << b.spans.size() << ' ' << b.adverts.size();
    for (const wire::Advert& a : b.adverts) out << ' ' << a.pe;
    out << ' ' << b.congested_pes.size();
    for (const std::uint32_t pe : b.congested_pes) out << ' ' << pe;
    out << '\n' << std::flush;
  }

  std::unique_ptr<transport::Endpoint> inner_;
  std::uint32_t peer_;
  std::shared_ptr<std::ofstream> log_;
};

/// One rank's log: by (peer, quantum), the batches it sent and received.
struct RankLog {
  std::map<std::pair<std::uint32_t, std::uint64_t>, Batch> out;
  std::map<std::pair<std::uint32_t, std::uint64_t>, Batch> in;
  std::size_t lines = 0;
};

RankLog read_log(const std::string& path) {
  RankLog log;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string way;
    std::uint32_t peer = 0;
    std::uint64_t quantum = 0;
    std::size_t n = 0;
    Batch b;
    fields >> way >> peer >> quantum >> n;
    b.deliveries.resize(n);
    for (auto& [dest, src] : b.deliveries) {
      char colon = 0;
      fields >> dest >> colon >> src;
    }
    fields >> b.spans >> n;
    b.adverts.resize(n);
    for (std::uint32_t& pe : b.adverts) fields >> pe;
    fields >> n;
    b.congested.resize(n);
    for (std::uint32_t& pe : b.congested) fields >> pe;
    auto& by_key = way == "out" ? log.out : log.in;
    EXPECT_TRUE(by_key.emplace(std::pair{peer, quantum}, std::move(b)).second)
        << path << ": two batches " << way << " for peer " << peer
        << " quantum " << quantum;
    ++log.lines;
  }
  return log;
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
  o.substeps = kSubsteps;
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

// Each rank's "StepGo" here is what it is released into quantum k+1 with:
// the batches its peers sent it for quantum k.
TEST_P(AdvertRoutingTest, EachStepGoCarriesWhatItsRankReads) {
  const graph::ProcessingGraph g = test_graph();
  const std::uint32_t shards = GetParam().shards;
  std::vector<RankLog> logs;
  logged_run(g, GetParam().policy, shards, 0.0, &logs);
  const std::vector<std::set<std::uint32_t>> reads = reads_by_rank(g, shards);
  const auto rank_of_node = [&](std::uint32_t node) {
    return runtime::dist::owner_of_node(g.node_count(), shards, node);
  };
  const auto rank_of_pe = [&](std::uint32_t pe) {
    return rank_of_node(g.pe(PeId(pe)).node.value());
  };
  const auto read_by = [&reads](std::uint32_t rank) {
    return [&reads, rank](std::uint32_t pe) {
      return reads[rank].count(pe) > 0;
    };
  };

  const std::uint64_t quanta = 2 * 10 * kSubsteps;  // duration / dt × substeps
  std::size_t adverts_sent = 0;
  std::size_t adverts_kept_home = 0;
  std::size_t adverts_withheld = 0;
  std::size_t congested_sent = 0;
  std::size_t deliveries_sent = 0;
  for (std::uint32_t p = 0; p < shards; ++p) {
    EXPECT_EQ(logs[p].out.size(), quanta * (shards - 1)) << "rank " << p;
    EXPECT_EQ(logs[p].in.size(), quanta * (shards - 1)) << "rank " << p;
  }
  for (std::uint64_t k = 0; k < quanta; ++k) {
    for (std::uint32_t p = 0; p < shards; ++p) {
      std::set<std::uint32_t> advertised;  // by p this quantum, to anyone
      for (std::uint32_t r = 0; r < shards; ++r) {
        if (r == p) continue;
        const auto key = std::pair{r, k};
        ASSERT_EQ(logs[p].out.count(key), 1u)
            << "rank " << p << " sent rank " << r << " no batch for " << k;
        const Batch& b = logs[p].out.at(key);
        // What r received is what p sent.
        ASSERT_EQ(logs[r].in.count(std::pair{p, k}), 1u);
        EXPECT_EQ(logs[r].in.at(std::pair{p, k}), b);
        // Deliveries to r's nodes, from p's, in source-node order.
        for (const auto& [dest, src] : b.deliveries) {
          EXPECT_EQ(rank_of_pe(dest), r) << "quantum " << k;
          EXPECT_EQ(rank_of_node(src), p) << "quantum " << k;
        }
        EXPECT_TRUE(std::ranges::is_sorted(
            b.deliveries, {}, [](const auto& d) { return d.second; }));
        deliveries_sent += b.deliveries.size();
        // Adverts and congested PEs: p's, read by r, in strict PE order.
        for (const auto* list : {&b.adverts, &b.congested}) {
          EXPECT_TRUE(std::ranges::adjacent_find(
                          *list, std::greater_equal<>{}) == list->end());
          EXPECT_TRUE(std::ranges::all_of(*list, read_by(r)))
              << "rank " << p << " to " << r << " quantum " << k;
          for (const std::uint32_t pe : *list) EXPECT_EQ(rank_of_pe(pe), p);
        }
        // Every PE advertises at each control tick, so a tick's batch holds
        // exactly p's PEs that r reads.
        std::vector<std::uint32_t> want;
        if (k > 0 && k % kSubsteps == 0) {
          for (PeId pe : g.all_pes()) {
            if (rank_of_pe(pe.value()) == p && read_by(r)(pe.value())) {
              want.push_back(pe.value());
            }
          }
        }
        EXPECT_EQ(b.adverts, want) << "rank " << p << " to " << r
                                   << " quantum " << k;
        advertised.insert(b.adverts.begin(), b.adverts.end());
        adverts_sent += b.adverts.size();
        congested_sent += b.congested.size();
      }
      // Congestion goes to every other rank that reads the PE, or none.
      for (std::uint32_t r = 0; r < shards; ++r) {
        if (r == p) continue;
        const Batch& b = logs[p].out.at(std::pair{r, k});
        for (const std::uint32_t pe : b.congested) {
          for (std::uint32_t other = 0; other < shards; ++other) {
            if (other == p || !read_by(other)(pe)) continue;
            EXPECT_TRUE(std::ranges::binary_search(
                logs[p].out.at(std::pair{other, k}).congested, pe))
                << "PE " << pe << " quantum " << k;
          }
        }
      }
      if (k > 0 && k % kSubsteps == 0) {
        std::size_t hosted = 0;
        for (PeId pe : g.all_pes()) hosted += rank_of_pe(pe.value()) == p;
        adverts_kept_home += hosted - advertised.size();
        for (std::uint32_t r = 0; r < shards; ++r) {
          if (r != p) {
            const Batch& b = logs[p].out.at(std::pair{r, k});
            adverts_withheld += advertised.size() - b.adverts.size();
          }
        }
      }
    }
  }
  EXPECT_GT(adverts_sent, 0u);
  EXPECT_GT(deliveries_sent, 0u);
  EXPECT_GT(adverts_kept_home, 0u) << "every advert went on the wire";
  if (shards > 2) {
    EXPECT_GT(adverts_withheld, 0u) << "every rank read every advert";
  }
  if (GetParam().policy == control::FlowPolicy::kLockStep) {
    EXPECT_GT(congested_sent, 0u) << "Lock-Step never congested";
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
  const metrics::RunReport report = logged_run(g, GetParam(), 1, 1.0, &one);
  const std::string fp1 = metrics::work_fingerprint(report);
  ASSERT_GT(report.sdos_processed, 0u);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].lines, 0u) << "a lone worker opened a peer link";
  for (const std::uint32_t shards : {2u, 3u}) {
    std::vector<RankLog> logs;
    EXPECT_EQ(fp1, metrics::work_fingerprint(
                       logged_run(g, GetParam(), shards, 1.0, &logs)))
        << shards << " shards";
    std::size_t spans_sent = 0;
    for (const RankLog& log : logs) {
      for (const auto& [key, batch] : log.out) spans_sent += batch.spans;
    }
    EXPECT_GT(spans_sent, 0u) << shards << " shards";
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
    std::string rank;
    std::string uds;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--rank=", 0) == 0) rank = arg.substr(7);
      if (arg.rfind("--uds=", 0) == 0) uds = arg.substr(6);
    }
    const auto log = std::make_shared<std::ofstream>(
        aces::log_path(uds.substr(0, uds.rfind('/')),
                       static_cast<std::uint32_t>(std::stoul(rank))));
    return aces::runtime::dist::maybe_worker(
        argc, argv,
        [log](std::uint32_t peer,
              std::unique_ptr<aces::runtime::transport::Endpoint> link)
            -> std::unique_ptr<aces::runtime::transport::Endpoint> {
          return std::make_unique<aces::LoggingLink>(std::move(link), peer,
                                                     log);
        });
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
