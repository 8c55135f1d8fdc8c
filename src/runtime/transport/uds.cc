#include "runtime/transport/uds.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <thread>

#include "common/mutex.h"

namespace aces::runtime::transport {

namespace {

void set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
}

/// Milliseconds until `deadline` (>= 0), rounded up, for poll(): a wait
/// rounded down would give up before the deadline.
int ms_until(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::ceil<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return left.count() < 0 ? 0 : static_cast<int>(left.count());
}

/// Receive buffer of a socket endpoint. One recv() takes whatever the
/// socket holds, up to this much; a larger frame grows the buffer for as
/// long as it is buffered.
constexpr std::size_t kRecvBufferBytes = 64 * 1024;

/// Frame pipe over one connected stream socket. Sends block. Receives are
/// buffered: a frame already read costs no syscall, and otherwise one
/// recv(MSG_DONTWAIT) takes every byte waiting, with poll() called only
/// when none is.
class FdEndpoint final : public Endpoint {
 public:
  explicit FdEndpoint(int fd) : fd_(fd), rx_(kRecvBufferBytes) {}

  ~FdEndpoint() override {
    close();
    if (fd_ >= 0) ::close(fd_);
  }

  bool send(std::vector<std::uint8_t> frame) override {
    // One lock per send: concurrent senders (step loop, heartbeat thread)
    // must not interleave bytes inside a send's frames.
    MutexLock lock(send_mu_);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;  // peer gone (EPIPE/ECONNRESET) or socket shut down
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  RecvStatus recv(wire::Frame* out, int timeout_ms) override {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms < 0 ? 0 : timeout_ms);
    for (;;) {
      const std::uint8_t* front = rx_.data() + rx_begin_;
      const std::size_t held = rx_end_ - rx_begin_;
      wire::WireError error;
      const auto extent = wire::frame_extent(front, held, &error);
      if (!extent.has_value()) {
        last_error_ = error.reason;
        return RecvStatus::kError;
      }
      if (held >= extent->bytes) {
        out->type = extent->type;
        out->payload.assign(front + wire::kHeaderBytes, front + extent->bytes);
        consume(extent->bytes);
        return RecvStatus::kOk;
      }
      make_room(extent->bytes);
      // Once part of a frame is buffered, the peer is committed to the
      // rest: silence or a close is a protocol error, not a clean
      // "nothing arrived".
      const RecvStatus status = fill(timeout_ms, deadline, held > 0);
      if (status != RecvStatus::kOk) return status;
    }
  }

  void close() override {
    // shutdown() (not ::close) unblocks a concurrent recv/send without
    // racing the fd number; the fd itself is released in the destructor.
    ::shutdown(fd_, SHUT_RDWR);
  }

  [[nodiscard]] std::string_view last_error() const override {
    return last_error_;
  }

 private:
  /// Drops the `bytes` at the front of the buffer. A drained buffer starts
  /// over at offset 0, and one grown for a large frame shrinks back.
  void consume(std::size_t bytes) {
    rx_begin_ += bytes;
    if (rx_begin_ < rx_end_) return;
    rx_begin_ = rx_end_ = 0;
    if (rx_.size() > kRecvBufferBytes) {
      rx_ = std::vector<std::uint8_t>(kRecvBufferBytes);
    }
  }

  /// Moves the buffered bytes to the front, and grows the buffer if a
  /// `frame_bytes` frame would not fit.
  void make_room(std::size_t frame_bytes) {
    if (rx_begin_ > 0) {
      std::copy(rx_.begin() + static_cast<std::ptrdiff_t>(rx_begin_),
                rx_.begin() + static_cast<std::ptrdiff_t>(rx_end_),
                rx_.begin());
      rx_end_ -= rx_begin_;
      rx_begin_ = 0;
    }
    if (rx_.size() < frame_bytes) rx_.resize(frame_bytes);
  }

  /// Appends at least one byte from the socket to the buffer, waiting until
  /// `deadline` (forever when timeout_ms < 0). `mid_frame`: part of a frame
  /// is buffered, so a timeout or close is kError.
  RecvStatus fill(int timeout_ms,
                  std::chrono::steady_clock::time_point deadline,
                  bool mid_frame) {
    for (;;) {
      const ssize_t n = ::recv(fd_, rx_.data() + rx_end_,
                               rx_.size() - rx_end_, MSG_DONTWAIT);
      if (n > 0) {
        rx_end_ += static_cast<std::size_t>(n);
        return RecvStatus::kOk;
      }
      if (n == 0) {
        if (!mid_frame) return RecvStatus::kClosed;
        last_error_ = "peer closed mid-frame";
        return RecvStatus::kError;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        last_error_ = std::strerror(errno);
        return RecvStatus::kError;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int pr =
          ::poll(&pfd, 1, timeout_ms < 0 ? -1 : ms_until(deadline));
      if (pr < 0) {
        if (errno == EINTR) continue;
        last_error_ = std::strerror(errno);
        return RecvStatus::kError;
      }
      if (pr == 0) {
        if (!mid_frame) return RecvStatus::kTimeout;
        last_error_ = kTimedOutMidFrame;
        return RecvStatus::kError;
      }
    }
  }

  int fd_;
  Mutex send_mu_;
  /// Received bytes not yet returned as frames: [rx_begin_, rx_end_).
  std::vector<std::uint8_t> rx_;
  std::size_t rx_begin_ = 0;
  std::size_t rx_end_ = 0;
  std::string last_error_;
};

int make_listener_fd(int family) {
  return ::socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0);
}

std::unique_ptr<Endpoint> connect_with_retry(
    int family, const sockaddr* addr, socklen_t addr_len, int timeout_ms,
    std::string* error) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const int fd = ::socket(family, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      set_error(error, "socket");
      return nullptr;
    }
    if (::connect(fd, addr, addr_len) == 0) {
      if (family == AF_INET) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      }
      return std::make_unique<FdEndpoint>(fd);
    }
    const int saved = errno;
    ::close(fd);
    if (std::chrono::steady_clock::now() >= deadline) {
      errno = saved;
      set_error(error, "connect");
      return nullptr;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace

SocketListener::~SocketListener() {
  if (fd_ >= 0) ::close(fd_);
  if (!path_.empty()) ::unlink(path_.c_str());
}

std::unique_ptr<SocketListener> SocketListener::listen_uds(
    const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (error != nullptr) *error = "socket path too long: " + path;
    return nullptr;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = make_listener_fd(AF_UNIX);
  if (fd < 0) {
    set_error(error, "socket");
    return nullptr;
  }
  ::unlink(path.c_str());  // a stale socket from a crashed run
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    set_error(error, "bind/listen " + path);
    ::close(fd);
    return nullptr;
  }
  // aces-lint: allow(raw-new) private ctor: make_unique cannot reach it; setup-time only
  return std::unique_ptr<SocketListener>(new SocketListener(fd, path, 0));
}

std::unique_ptr<SocketListener> SocketListener::listen_tcp(
    std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  const int fd = make_listener_fd(AF_INET);
  if (fd < 0) {
    set_error(error, "socket");
    return nullptr;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    set_error(error, "bind/listen tcp");
    ::close(fd);
    return nullptr;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    set_error(error, "getsockname");
    ::close(fd);
    return nullptr;
  }
  return std::unique_ptr<SocketListener>(
      // aces-lint: allow(raw-new) private ctor: make_unique cannot reach it; setup-time only
      new SocketListener(fd, "", ntohs(bound.sin_port)));
}

std::unique_ptr<Endpoint> SocketListener::accept(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  for (;;) {
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) return nullptr;
    break;
  }
  const int conn = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (conn < 0) return nullptr;
  if (port_ != 0) {
    const int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return std::make_unique<FdEndpoint>(conn);
}

std::unique_ptr<Endpoint> connect_uds(const std::string& path, int timeout_ms,
                                      std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    if (error != nullptr) *error = "socket path too long: " + path;
    return nullptr;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return connect_with_retry(AF_UNIX,
                            reinterpret_cast<const sockaddr*>(&addr),
                            sizeof addr, timeout_ms, error);
}

std::unique_ptr<Endpoint> connect_tcp(std::uint16_t port, int timeout_ms,
                                      std::string* error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return connect_with_retry(AF_INET,
                            reinterpret_cast<const sockaddr*>(&addr),
                            sizeof addr, timeout_ms, error);
}

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kInProc: return "inproc";
    case TransportKind::kUds: return "uds";
    case TransportKind::kTcp: return "tcp";
  }
  return "unknown";
}

std::optional<TransportKind> parse_transport(std::string_view name) {
  if (name == "inproc") return TransportKind::kInProc;
  if (name == "uds") return TransportKind::kUds;
  if (name == "tcp") return TransportKind::kTcp;
  return std::nullopt;
}

}  // namespace aces::runtime::transport
