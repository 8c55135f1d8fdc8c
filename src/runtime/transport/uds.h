// Socket transport backend: SOCK_STREAM framing of wire.h frames over a
// Unix-domain socket or loopback TCP.
//
// Topology is a star: the coordinator listens, each spawned worker process
// connects exactly once, and every frame a worker exchanges with the rest
// of the system goes through its coordinator connection (the coordinator
// relays cross-worker traffic inside the barrier frames — see
// docs/architecture.md, "Distributed runtime").
//
// Framing is the wire.h length-prefixed header; a frame is written with a
// single locked, blocking write loop so concurrent senders (step loop +
// heartbeat thread) never interleave bytes. Reads go through a receive
// buffer: one recv(MSG_DONTWAIT) takes every byte waiting, frames are split
// out of it with wire::frame_extent, and poll() is called only when the
// socket is empty. A frame already buffered costs no syscall, and a frame
// waited for costs one poll() and one recv() after the empty one. The
// header is checked as soon as its 8 bytes are in, so a bad one is refused
// before any payload is awaited or allocated; a dead peer is kClosed,
// garbage is kError.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "runtime/transport/transport.h"

namespace aces::runtime::transport {

/// Listening socket the coordinator accepts worker connections on. UDS and
/// loopback-TCP flavors differ only in the address family.
class SocketListener {
 public:
  ~SocketListener();
  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Binds and listens on a fresh Unix-domain socket at `path` (unlinked on
  /// destruction). Null + *error on failure.
  static std::unique_ptr<SocketListener> listen_uds(const std::string& path,
                                                    std::string* error);
  /// Binds and listens on 127.0.0.1 with an ephemeral port (see port()).
  static std::unique_ptr<SocketListener> listen_tcp(std::string* error);

  /// Accepts one connection, waiting up to `timeout_ms`; null on timeout or
  /// a closed listener.
  std::unique_ptr<Endpoint> accept(int timeout_ms);

  /// TCP: the bound port. UDS: 0.
  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// UDS: the bound path. TCP: empty.
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  SocketListener(int fd, std::string path, std::uint16_t port)
      : fd_(fd), path_(std::move(path)), port_(port) {}

  int fd_ = -1;
  std::string path_;
  std::uint16_t port_ = 0;
};

/// Connects to a coordinator's UDS listener, retrying until `timeout_ms`
/// (the listener is created before workers spawn, so retries only cover
/// scheduler races). Null + *error on failure.
std::unique_ptr<Endpoint> connect_uds(const std::string& path, int timeout_ms,
                                      std::string* error);
/// Connects to a coordinator's loopback-TCP listener.
std::unique_ptr<Endpoint> connect_tcp(std::uint16_t port, int timeout_ms,
                                      std::string* error);

}  // namespace aces::runtime::transport
