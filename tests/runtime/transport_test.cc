// The Endpoint contract (runtime/transport/transport.h), driven from the
// bytes up. A Unix-domain endpoint is fed by a raw client socket, so each
// case controls exactly how the bytes arrive: several frames in one write,
// one frame a byte at a time, a partial header, a close mid-payload, and
// headers that must be refused before any payload is awaited. The
// in-process pair must yield the same Frames for the same encoded bytes.
#include <sched.h>
#include <stdlib.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/transport/inproc.h"
#include "runtime/transport/transport.h"
#include "runtime/transport/uds.h"
#include "runtime/wire.h"

namespace aces::runtime::transport {
namespace {

using Bytes = std::vector<std::uint8_t>;
using Clock = std::chrono::steady_clock;

constexpr int kWaitMs = 5000;

/// Three frames of different types and sizes, the middle one empty.
std::vector<Bytes> sample_frames() {
  wire::PeerBatch batch;
  batch.quantum = 7;
  batch.deliveries.push_back(wire::SdoDelivery{3, 1, 0.25});
  batch.adverts.push_back(wire::Advert{2, 41.5, 0.2});
  batch.congested_pes = {4, 9};
  return {wire::encode(wire::Hello{5, "peer"}), wire::encode_shutdown(),
          wire::encode(batch)};
}

Bytes concat(const std::vector<Bytes>& frames) {
  Bytes out;
  for (const Bytes& f : frames) out.insert(out.end(), f.begin(), f.end());
  return out;
}

/// A header for `type` claiming `payload_size` bytes, with `magic` in place
/// of kMagic.
Bytes raw_header(wire::FrameType type, std::uint32_t payload_size,
                 std::uint16_t magic = wire::kMagic) {
  const auto h = wire::frame_header(type, payload_size);
  Bytes out(h.begin(), h.end());
  out[0] = static_cast<std::uint8_t>(magic & 0xFF);
  out[1] = static_cast<std::uint8_t>(magic >> 8);
  return out;
}

void expect_frame(const wire::Frame& got, const Bytes& encoded) {
  const auto want = wire::parse_frame(encoded.data(), encoded.size());
  ASSERT_TRUE(want.has_value());
  EXPECT_EQ(got.type, want->type);
  EXPECT_EQ(got.payload, want->payload);
}

/// A socket endpoint accepted from a listener in a fresh directory, and
/// the raw client socket connected to it.
class UdsEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string templ = ::testing::TempDir() + "aces-transport-XXXXXX";
    ASSERT_NE(::mkdtemp(templ.data()), nullptr);
    dir_ = templ;
    const std::string path = dir_ + "/ep.sock";
    std::string error;
    listener_ = SocketListener::listen_uds(path, &error);
    ASSERT_NE(listener_, nullptr) << error;
    client_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(client_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof addr.sun_path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::connect(client_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
    ep_ = listener_->accept(kWaitMs);
    ASSERT_NE(ep_, nullptr);
  }

  void TearDown() override {
    ep_.reset();
    close_client();
    listener_.reset();  // unlinks the socket
    if (!dir_.empty()) ::rmdir(dir_.c_str());
  }

  void write_all(const Bytes& bytes) const {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(client_, bytes.data() + sent,
                               bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  void close_client() {
    if (client_ >= 0) ::close(client_);
    client_ = -1;
  }

  std::string dir_;
  std::unique_ptr<SocketListener> listener_;
  std::unique_ptr<Endpoint> ep_;
  int client_ = -1;
};

TEST_F(UdsEndpointTest, FramesOfOneWriteComeBackInOrder) {
  const std::vector<Bytes> frames = sample_frames();
  write_all(concat(frames));
  for (const Bytes& f : frames) {
    wire::Frame got;
    ASSERT_EQ(ep_->recv(&got, kWaitMs), RecvStatus::kOk);
    expect_frame(got, f);
  }
  wire::Frame none;
  EXPECT_EQ(ep_->recv(&none, 0), RecvStatus::kTimeout);
}

TEST_F(UdsEndpointTest, FramesOfOneWriteComeBackWithTimeoutZero) {
  // The bytes are in the socket before the first recv, so a zero timeout
  // never has to wait: the first call reads all three frames, and the
  // other two come from the buffer.
  const std::vector<Bytes> frames = sample_frames();
  write_all(concat(frames));
  for (const Bytes& f : frames) {
    wire::Frame got;
    ASSERT_EQ(ep_->recv(&got, 0), RecvStatus::kOk);
    expect_frame(got, f);
  }
  wire::Frame none;
  EXPECT_EQ(ep_->recv(&none, 0), RecvStatus::kTimeout);
}

TEST_F(UdsEndpointTest, FrameWrittenAByteAtATime) {
  const Bytes frame = sample_frames()[2];
  std::thread writer([this, &frame] {
    for (const std::uint8_t b : frame) {
      write_all(Bytes{b});
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  wire::Frame got;
  const RecvStatus status = ep_->recv(&got, kWaitMs);
  writer.join();
  ASSERT_EQ(status, RecvStatus::kOk) << ep_->last_error();
  expect_frame(got, frame);
}

TEST_F(UdsEndpointTest, SilenceTimesOut) {
  wire::Frame got;
  const Clock::time_point start = Clock::now();
  EXPECT_EQ(ep_->recv(&got, 30), RecvStatus::kTimeout);
  // It waited (the deadline is kept to the millisecond, rounded down).
  EXPECT_GE(Clock::now() - start, std::chrono::milliseconds(20));
  EXPECT_EQ(ep_->recv(&got, 0), RecvStatus::kTimeout);
}

TEST_F(UdsEndpointTest, PartialHeaderThenSilenceIsAnError) {
  const Bytes frame = sample_frames()[0];
  write_all(Bytes(frame.begin(), frame.begin() + 3));
  wire::Frame got;
  EXPECT_EQ(ep_->recv(&got, 30), RecvStatus::kError);
  EXPECT_EQ(ep_->last_error(), "timed out mid-frame");
}

TEST_F(UdsEndpointTest, PartialPayloadThenSilenceIsAnError) {
  const Bytes frame = sample_frames()[2];
  write_all(Bytes(frame.begin(), frame.end() - 1));
  wire::Frame got;
  EXPECT_EQ(ep_->recv(&got, 30), RecvStatus::kError);
  EXPECT_EQ(ep_->last_error(), "timed out mid-frame");
}

TEST_F(UdsEndpointTest, MidFrameTimeoutKeepsTheBytesForTheNextRecv) {
  const Bytes frame = sample_frames()[2];
  const std::size_t half = frame.size() / 2;
  write_all(Bytes(frame.begin(), frame.begin() + half));
  wire::Frame got;
  EXPECT_EQ(ep_->recv(&got, 30), RecvStatus::kError);
  EXPECT_EQ(ep_->last_error(), kTimedOutMidFrame);
  write_all(Bytes(frame.begin() + half, frame.end()));
  ASSERT_EQ(ep_->recv(&got, kWaitMs), RecvStatus::kOk) << ep_->last_error();
  expect_frame(got, frame);
}

TEST_F(UdsEndpointTest, CleanCloseAfterFramesIsClosed) {
  const std::vector<Bytes> frames = sample_frames();
  write_all(concat(frames));
  close_client();
  for (const Bytes& f : frames) {
    wire::Frame got;
    ASSERT_EQ(ep_->recv(&got, kWaitMs), RecvStatus::kOk);
    expect_frame(got, f);
  }
  wire::Frame none;
  EXPECT_EQ(ep_->recv(&none, kWaitMs), RecvStatus::kClosed);
}

TEST_F(UdsEndpointTest, CloseMidPayloadIsAnError) {
  const Bytes frame = sample_frames()[2];
  write_all(Bytes(frame.begin(), frame.begin() + 10));
  close_client();
  wire::Frame got;
  EXPECT_EQ(ep_->recv(&got, kWaitMs), RecvStatus::kError);
  EXPECT_EQ(ep_->last_error(), "peer closed mid-frame");
}

TEST_F(UdsEndpointTest, BadMagicIsRefusedAtOnce) {
  // The header claims a payload that never comes: the refusal must not
  // wait for it.
  write_all(raw_header(wire::FrameType::kStepGo, 1000, 0xBEEF));
  wire::Frame got;
  const Clock::time_point start = Clock::now();
  EXPECT_EQ(ep_->recv(&got, kWaitMs), RecvStatus::kError);
  EXPECT_LT(Clock::now() - start, std::chrono::milliseconds(kWaitMs / 2));
  EXPECT_EQ(ep_->last_error(), "bad magic");
}

TEST_F(UdsEndpointTest, OversizedLengthIsRefusedWithoutAllocating) {
  // 4 GiB would not fit under a 1 GB address-space cap: a reader that
  // sized a buffer from this header first would throw, not return kError.
  write_all(raw_header(wire::FrameType::kConfig, 0xFFFFFFF0u));
  wire::Frame got;
  EXPECT_EQ(ep_->recv(&got, kWaitMs), RecvStatus::kError);
  EXPECT_EQ(ep_->last_error(), "payload length exceeds cap");
  EXPECT_TRUE(got.payload.empty());
}

TEST_F(UdsEndpointTest, LengthJustOverTheCapIsRefused) {
  write_all(raw_header(wire::FrameType::kConfig, wire::kMaxFramePayload + 1));
  wire::Frame got;
  EXPECT_EQ(ep_->recv(&got, kWaitMs), RecvStatus::kError);
  EXPECT_EQ(ep_->last_error(), "payload length exceeds cap");
}

TEST_F(UdsEndpointTest, FrameLargerThanTheBufferArrivesWhole) {
  wire::Config cfg;
  cfg.topology.assign(300 * 1024, 'x');
  const std::vector<Bytes> frames = {wire::encode(cfg),
                                     wire::encode(wire::Hello{9, {}})};
  // Written from a thread: the socket buffer holds less than the frame.
  std::thread writer([this, &frames] { write_all(concat(frames)); });
  std::vector<wire::Frame> got(frames.size());
  std::vector<RecvStatus> status;
  for (wire::Frame& g : got) status.push_back(ep_->recv(&g, kWaitMs));
  ep_->close();  // unblocks the writer if a frame was not read
  writer.join();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(status[i], RecvStatus::kOk) << ep_->last_error();
    expect_frame(got[i], frames[i]);
  }
}

TEST_F(UdsEndpointTest, InProcYieldsTheSameFrames) {
  const std::vector<Bytes> frames = sample_frames();
  write_all(concat(frames));
  auto [near, far] = make_inproc_pair();
  for (const Bytes& f : frames) ASSERT_TRUE(near->send(f));
  for (std::size_t i = 0; i < frames.size(); ++i) {
    wire::Frame from_socket;
    wire::Frame from_queue;
    ASSERT_EQ(ep_->recv(&from_socket, kWaitMs), RecvStatus::kOk);
    ASSERT_EQ(far->recv(&from_queue, kWaitMs), RecvStatus::kOk);
    EXPECT_EQ(from_socket.type, from_queue.type) << "frame " << i;
    EXPECT_EQ(from_socket.payload, from_queue.payload) << "frame " << i;
  }
  wire::Frame none;
  EXPECT_EQ(far->recv(&none, 0), RecvStatus::kTimeout);
  near->close();
  EXPECT_EQ(far->recv(&none, kWaitMs), RecvStatus::kClosed);
}

TEST(InProcEndpointTest, SplitsASendOfSeveralFrames) {
  const std::vector<Bytes> frames = sample_frames();
  auto [near, far] = make_inproc_pair();
  ASSERT_TRUE(near->send(concat(frames)));
  ASSERT_TRUE(near->send(frames[0]));
  for (const Bytes& f : frames) {
    wire::Frame got;
    ASSERT_EQ(far->recv(&got, kWaitMs), RecvStatus::kOk) << far->last_error();
    expect_frame(got, f);
  }
  wire::Frame got;
  ASSERT_EQ(far->recv(&got, kWaitMs), RecvStatus::kOk);
  expect_frame(got, frames[0]);
  EXPECT_EQ(far->recv(&got, 0), RecvStatus::kTimeout);
}

TEST(InProcEndpointTest, RefusesASendThatEndsMidFrame) {
  const std::vector<Bytes> frames = sample_frames();
  Bytes bytes = concat(frames);
  bytes.pop_back();
  auto [near, far] = make_inproc_pair();
  ASSERT_TRUE(near->send(bytes));
  wire::Frame got;
  for (std::size_t i = 0; i + 1 < frames.size(); ++i) {
    ASSERT_EQ(far->recv(&got, kWaitMs), RecvStatus::kOk);
    expect_frame(got, frames[i]);
  }
  EXPECT_EQ(far->recv(&got, kWaitMs), RecvStatus::kError);
  EXPECT_EQ(far->last_error(), "send ends mid-frame");
}

TEST(InProcEndpointTest, RefusesWhatTheSocketRefuses) {
  auto [near, far] = make_inproc_pair();
  wire::Frame got;
  ASSERT_TRUE(near->send(raw_header(wire::FrameType::kHello, 4, 0xBEEF)));
  EXPECT_EQ(far->recv(&got, kWaitMs), RecvStatus::kError);
  EXPECT_EQ(far->last_error(), "bad magic");
  ASSERT_TRUE(near->send(raw_header(wire::FrameType::kConfig, 0xFFFFFFF0u)));
  EXPECT_EQ(far->recv(&got, kWaitMs), RecvStatus::kError);
  EXPECT_EQ(far->last_error(), "payload length exceeds cap");
}

/// Context switches, voluntary and involuntary, of every thread of this
/// process so far.
long context_switches() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_nvcsw + usage.ru_nivcsw;
}

/// Pins the calling thread, and the threads it starts, to one CPU it may
/// use while in scope.
class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    ok_ = ::sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    int cpu = 0;
    while (ok_ && cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved_)) ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ok_ = ok_ && cpu < CPU_SETSIZE &&
          ::sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinnedToOneCpu() {
    if (ok_) ::sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }

 private:
  cpu_set_t saved_{};
  bool ok_ = false;
};

/// Receives one frame, waiting in the worker's 20-ms slices.
RecvStatus recv_in_slices(Endpoint& ep, wire::Frame* frame) {
  RecvStatus status = RecvStatus::kTimeout;
  while (status == RecvStatus::kTimeout) status = ep.recv(frame, 20);
  return status;
}

/// Each handoff wakes its receiver once. On one CPU, as perfbench runs, a
/// round trip then costs two context switches: each side sleeps once while
/// the other works. A notify that signals under a lock of its own (as
/// std::condition_variable_any does) wakes the receiver into that lock, so
/// it sleeps again and the sender switches back: 3.5 or more a round trip.
TEST(InProcEndpointTest, RoundTripWakesEachSideOnce) {
  constexpr int kRoundTrips = 20000;
  const PinnedToOneCpu pinned;
  ASSERT_TRUE(pinned.ok());
  auto [near, far] = make_inproc_pair();
  Endpoint& echo_end = *far;
  const Bytes heartbeat = wire::encode(wire::Heartbeat{});
  const long before = context_switches();
  std::thread echo([&echo_end, &heartbeat] {
    wire::Frame frame;
    for (int i = 0; i < kRoundTrips; ++i) {
      if (recv_in_slices(echo_end, &frame) != RecvStatus::kOk ||
          !echo_end.send(heartbeat)) {
        return;
      }
    }
  });
  int completed = 0;
  wire::Frame frame;
  while (completed < kRoundTrips && near->send(heartbeat) &&
         recv_in_slices(*near, &frame) == RecvStatus::kOk) {
    ++completed;
  }
  near->close();
  echo.join();
  const long switches = context_switches() - before;
  ASSERT_EQ(completed, kRoundTrips);
  const double per_round_trip = static_cast<double>(switches) / kRoundTrips;
  EXPECT_LE(per_round_trip, 2.5) << switches << " context switches";
}

/// A listener of each transport is reached by its address alone, so a
/// worker links to its peers the same way on all three.
TEST(ListenerTest, EveryTransportConnectsByItsAddress) {
  std::string dir = ::testing::TempDir() + "aces-listen-XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string path = dir + "/peer.sock";
  for (const TransportKind kind :
       {TransportKind::kInProc, TransportKind::kUds, TransportKind::kTcp}) {
    SCOPED_TRACE(to_string(kind));
    std::string error;
    std::unique_ptr<Listener> listener = listen(kind, path, &error);
    ASSERT_NE(listener, nullptr) << error;
    std::unique_ptr<Endpoint> near =
        connect(kind, listener->address(), kWaitMs, &error);
    ASSERT_NE(near, nullptr) << error;
    std::unique_ptr<Endpoint> far = listener->accept(kWaitMs);
    ASSERT_NE(far, nullptr);
    const std::vector<Bytes> frames = sample_frames();
    ASSERT_TRUE(near->send(concat(frames)));
    for (const Bytes& f : frames) {
      wire::Frame got;
      ASSERT_EQ(far->recv(&got, kWaitMs), RecvStatus::kOk);
      expect_frame(got, f);
    }
    ASSERT_TRUE(far->send(frames[0]));
    wire::Frame back;
    ASSERT_EQ(near->recv(&back, kWaitMs), RecvStatus::kOk);
    expect_frame(back, frames[0]);
    EXPECT_EQ(listener->accept(0), nullptr) << "one connect, one accept";
  }
  ::rmdir(dir.c_str());
}

TEST(ListenerTest, InProcListenerIsGoneWithItsLastConnection) {
  std::string error;
  std::unique_ptr<Listener> listener = listen_inproc();
  const std::string name = listener->address();
  std::unique_ptr<Endpoint> unaccepted = connect_inproc(name, &error);
  ASSERT_NE(unaccepted, nullptr) << error;
  listener.reset();
  // The connection it never accepted closes with it, and its name is free.
  wire::Frame frame;
  EXPECT_EQ(unaccepted->recv(&frame, kWaitMs), RecvStatus::kClosed);
  EXPECT_EQ(connect_inproc(name, &error), nullptr);
  EXPECT_NE(error.find(name), std::string::npos) << error;
}

TEST(ListenerTest, TcpAddressMustBeAPort) {
  std::string error;
  EXPECT_EQ(connect(TransportKind::kTcp, "80x", 10, &error), nullptr);
  EXPECT_NE(error.find("not a TCP port"), std::string::npos) << error;
}

}  // namespace
}  // namespace aces::runtime::transport
