// The order in which workers trade each quantum's batches
// (dist::exchange_in_order) must complete however large the batches are.
// Over a socket, a send larger than the socket buffer blocks until its peer
// reads. If every rank sent before it received, three ranks exchanging
// batches of a mebibyte would each block in their first send, waiting on a
// peer that is itself blocked sending: the run would hang. The test bounds
// that hang: past its deadline it closes every link, which fails the
// blocked sends, and reports the exchange as stuck.
#include <stdlib.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/dist_worker.h"
#include "runtime/transport/uds.h"
#include "runtime/wire.h"

namespace aces::runtime::dist {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kRanks = 3;
/// Deliveries per batch: 16 bytes each, so a batch is over 1 MiB, several
/// times a Unix socket's default buffer.
constexpr std::size_t kDeliveries = 70000;
constexpr auto kDeadline = std::chrono::seconds(20);

/// The batch `from` sends `to`, recognizable by its fields.
wire::PeerBatch batch_for(std::uint32_t from, std::uint32_t to) {
  wire::PeerBatch batch;
  batch.quantum = 10 * from + to;
  batch.deliveries.assign(
      kDeliveries, wire::SdoDelivery{to, from, static_cast<double>(from)});
  return batch;
}

TEST(PeerExchangeTest, ThreeRanksTradeBatchesLargerThanTheSocketBuffer) {
  std::string dir = ::testing::TempDir() + "aces-exchange-XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  // links[r][p]: rank r's end of its link to rank p.
  std::vector<std::vector<std::unique_ptr<transport::Endpoint>>> links(kRanks);
  for (auto& row : links) row.resize(kRanks);
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    std::string error;
    const auto listener = transport::SocketListener::listen_uds(
        dir + "/rank" + std::to_string(r) + ".sock", &error);
    ASSERT_NE(listener, nullptr) << error;
    for (std::uint32_t p = r + 1; p < kRanks; ++p) {
      links[p][r] = transport::connect_uds(listener->path(), 5000, &error);
      ASSERT_NE(links[p][r], nullptr) << error;
      links[r][p] = listener->accept(5000);
      ASSERT_NE(links[r][p], nullptr);
    }
  }
  ASSERT_GT(wire::encode(batch_for(0, 1)).size(), std::size_t{1} << 20);

  // received[r][p]: the quantum field of the batch r got from p.
  std::vector<std::vector<std::uint64_t>> received(
      kRanks, std::vector<std::uint64_t>(kRanks, 0));
  std::atomic<std::uint32_t> finished{0};
  std::vector<std::thread> ranks;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    ranks.emplace_back([&, r] {
      exchange_in_order(
          r, kRanks,
          [&](std::uint32_t p) {
            return links[r][p]->send(wire::encode(batch_for(r, p)));
          },
          [&](std::uint32_t p) {
            wire::Frame frame;
            if (links[r][p]->recv(&frame, -1) != transport::RecvStatus::kOk) {
              return false;
            }
            const auto batch = wire::decode_peer_batch(frame.payload);
            if (!batch.has_value() || batch->deliveries.size() != kDeliveries) {
              return false;
            }
            received[r][p] = batch->quantum;
            return true;
          });
      ++finished;
    });
  }
  const Clock::time_point deadline = Clock::now() + kDeadline;
  while (finished.load() < kRanks && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool stuck = finished.load() < kRanks;
  // Closing every link fails whatever send or receive is still blocked.
  for (auto& row : links) {
    for (auto& link : row) {
      if (link != nullptr) link->close();
    }
  }
  for (std::thread& t : ranks) t.join();
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    const std::string path = dir + "/rank" + std::to_string(r) + ".sock";
    ::unlink(path.c_str());
  }
  ::rmdir(dir.c_str());

  ASSERT_FALSE(stuck) << "the exchange did not complete in "
                      << kDeadline.count() << " s";
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    for (std::uint32_t p = 0; p < kRanks; ++p) {
      if (p == r) continue;
      EXPECT_EQ(received[r][p], 10 * p + r) << r << " from " << p;
    }
  }
}

}  // namespace
}  // namespace aces::runtime::dist
