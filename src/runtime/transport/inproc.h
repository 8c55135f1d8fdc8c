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
#pragma once

#include <memory>
#include <utility>

#include "runtime/transport/transport.h"

namespace aces::runtime::transport {

/// Two connected endpoints: frames sent on .first arrive at .second and
/// vice versa. Either side may be handed to another thread.
std::pair<std::unique_ptr<Endpoint>, std::unique_ptr<Endpoint>>
make_inproc_pair();

}  // namespace aces::runtime::transport
