// Transport abstraction for the multi-process distributed runtime.
//
// The coordinator and its workers speak wire.h frames over an Endpoint —
// a bidirectional, ordered, reliable frame pipe. Two backends implement
// it:
//
//   * in-process (transport/inproc.h): a pair of mutex+condvar frame
//     queues. The default backend; the "worker processes" are threads of
//     the coordinator process. Frames are still fully encoded and decoded
//     so both backends run byte-identical code paths.
//   * sockets (transport/uds.h): SOCK_STREAM over a Unix-domain socket or
//     loopback TCP, one connection per worker, length-prefixed frames.
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

/// One side of a coordinator↔worker frame pipe.
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

}  // namespace aces::runtime::transport
