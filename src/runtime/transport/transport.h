// Transport abstraction for the multi-process distributed runtime.
//
// Every process of a run speaks wire.h frames over Endpoints — each a
// bidirectional, ordered, reliable frame pipe. Each worker has one to the
// coordinator and one to every other live worker, so the links form a full
// mesh: the coordinator's carry control frames, and the peer links carry
// each quantum's batches, with no central hop (dist_coordinator.h). A
// worker opens its peer links through a Listener of the run's own
// transport, so it reaches its peers the same way on each. Three backends
// implement both:
//
//   * in-process (transport/inproc.h): a pair of mutex+condvar frame
//     queues. The default backend; the "worker processes" are threads of
//     the coordinator process, and a listener is a name in an in-process
//     registry. Frames are still fully encoded and decoded so every
//     backend runs byte-identical code paths.
//   * sockets (transport/uds.h): SOCK_STREAM over a Unix-domain socket or
//     loopback TCP, length-prefixed frames. A listener binds a socket path
//     or an ephemeral loopback port.
//
// Both backends split frames with wire::frame_extent, so they accept and
// refuse the same bytes.
//
// Contract:
//   * send() takes one or more whole frames, concatenated, and writes them
//     atomically together with respect to other sends on the same
//     endpoint. It is thread-safe (a worker's heartbeat thread and its step
//     loop both send). It takes the bytes by value, so a send passed as an
//     rvalue moves into the in-process queue uncopied. recv() still returns
//     one frame at a time.
//   * recv() is single-consumer and blocks up to `timeout_ms` for one
//     complete frame. A frame that has already arrived is returned without
//     waiting, also with a timeout of 0.
//   * Silence is kTimeout only between frames: a timeout, close or error
//     after part of a frame has arrived is kError ("peer closed
//     mid-frame", kTimedOutMidFrame). After kTimedOutMidFrame the bytes
//     already in stay buffered, so a later recv() can still finish the
//     frame.
//   * A peer closing (or dying) surfaces as RecvStatus::kClosed; malformed
//     bytes surface as kError — never as undefined behavior.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/wire.h"

namespace aces::runtime::transport {

enum class TransportKind {
  kInProc,  ///< worker threads + in-memory frame queues (default)
  kUds,     ///< worker processes + Unix-domain stream sockets
  kTcp,     ///< worker processes + loopback TCP
};

const char* to_string(TransportKind kind);
/// Parses "inproc" / "uds" / "tcp"; nullopt otherwise.
std::optional<TransportKind> parse_transport(std::string_view name);

/// last_error() after a recv() whose timeout ran out with part of a frame
/// in.
inline constexpr std::string_view kTimedOutMidFrame = "timed out mid-frame";

enum class RecvStatus {
  kOk,       ///< *out holds a frame
  kTimeout,  ///< nothing arrived within timeout_ms
  kClosed,   ///< peer hung up cleanly (or its process died)
  kError,    ///< protocol violation (bad magic/version/length) or IO error
};

/// One side of a frame pipe: coordinator↔worker or worker↔worker.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  Endpoint() = default;
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  /// Queues/writes one or more complete frames (as produced by
  /// wire::encode), concatenated. Thread-safe. Returns false when the peer
  /// is gone.
  virtual bool send(std::vector<std::uint8_t> frame) = 0;

  /// Waits up to `timeout_ms` (< 0 = forever) for one frame. Single
  /// consumer.
  virtual RecvStatus recv(wire::Frame* out, int timeout_ms) = 0;

  /// Closes this side; concurrent and subsequent recv() calls on the peer
  /// return kClosed once the queue drains.
  virtual void close() = 0;

  /// Reason for the last kError, for diagnostics.
  [[nodiscard]] virtual std::string_view last_error() const = 0;
};

/// Accepts the connections made to one address.
class Listener {
 public:
  virtual ~Listener() = default;
  Listener() = default;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Accepts one connection, waiting up to `timeout_ms`; null on timeout or
  /// a closed listener.
  virtual std::unique_ptr<Endpoint> accept(int timeout_ms) = 0;

  /// What connect() reaches this listener by: a socket path, a loopback
  /// TCP port in decimal, or an in-process registry name.
  [[nodiscard]] virtual std::string address() const = 0;
};

/// Opens a listener of `kind`: UDS binds `uds_path`, TCP an ephemeral
/// loopback port, and in-process takes a fresh registry name. Null and
/// *error on failure.
std::unique_ptr<Listener> listen(TransportKind kind,
                                 const std::string& uds_path,
                                 std::string* error);

/// Connects to the `kind` listener at `address` (Listener::address()); the
/// socket transports retry until `timeout_ms`. Null and *error on failure.
std::unique_ptr<Endpoint> connect(TransportKind kind,
                                  const std::string& address, int timeout_ms,
                                  std::string* error);

}  // namespace aces::runtime::transport
