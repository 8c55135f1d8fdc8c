// In-process transport backend: a pair of Endpoints joined by two
// bounded-growth frame queues (one per direction), synchronized with the
// annotated aces::Mutex + condition_variable_any pattern.
//
// Frames cross the "pipe" as encoded bytes: send() moves the encoded
// frames into the queue, and recv() splits them with the same
// wire::frame_extent the socket backend uses. A send of one frame moves its
// payload into the Frame; a frame of a multi-frame send copies its own
// payload out, and the rest of the send stays where it is. So the in-process and socket backends
// exercise the identical wire codec — the cross-transport conformance
// battery compares their outputs byte-for-byte, which is only meaningful if
// neither side gets to skip serialization.
//
// A listener is a name in a process-wide registry: connect_inproc finds it
// and queues one end of a fresh pair for it to accept, so worker threads
// link to each other the way worker processes do over sockets.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "runtime/transport/transport.h"

namespace aces::runtime::transport {

/// Two connected endpoints: frames sent on .first arrive at .second and
/// vice versa. Either side may be handed to another thread.
std::pair<std::unique_ptr<Endpoint>, std::unique_ptr<Endpoint>>
make_inproc_pair();

/// A listener registered in this process under a fresh name (its
/// address()), which connect_inproc reaches for as long as it lives.
std::unique_ptr<Listener> listen_inproc();

/// Makes a pair, queues one end for the listener registered as `name` to
/// accept, and returns the other. Null and *error when no listener has
/// that name.
std::unique_ptr<Endpoint> connect_inproc(const std::string& name,
                                         std::string* error);

}  // namespace aces::runtime::transport
