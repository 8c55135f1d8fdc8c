#include "runtime/transport/transport.h"

#include <charconv>

#include "runtime/transport/inproc.h"
#include "runtime/transport/uds.h"

namespace aces::runtime::transport {

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

std::unique_ptr<Listener> listen(TransportKind kind,
                                 const std::string& uds_path,
                                 std::string* error) {
  switch (kind) {
    case TransportKind::kInProc: return listen_inproc();
    case TransportKind::kUds:
      return SocketListener::listen_uds(uds_path, error);
    case TransportKind::kTcp: return SocketListener::listen_tcp(error);
  }
  return nullptr;
}

std::unique_ptr<Endpoint> connect(TransportKind kind,
                                  const std::string& address, int timeout_ms,
                                  std::string* error) {
  switch (kind) {
    case TransportKind::kInProc: return connect_inproc(address, error);
    case TransportKind::kUds: return connect_uds(address, timeout_ms, error);
    case TransportKind::kTcp: {
      std::uint16_t port = 0;
      const char* end = address.data() + address.size();
      const auto [at, ec] = std::from_chars(address.data(), end, port);
      if (ec != std::errc() || at != end || port == 0) {
        if (error != nullptr) *error = "not a TCP port: " + address;
        return nullptr;
      }
      return connect_tcp(port, timeout_ms, error);
    }
  }
  return nullptr;
}

}  // namespace aces::runtime::transport
