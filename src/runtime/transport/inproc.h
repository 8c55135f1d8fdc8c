// In-process transport backend: a pair of Endpoints joined by two
// bounded-growth frame queues (one per direction), synchronized with the
// annotated aces::Mutex + condition_variable_any pattern.
//
// Frames cross the "pipe" as encoded bytes: send() moves the encoded frame
// into the queue, and recv() checks it with wire::parse_frame, which splits
// it with the same wire::frame_extent the socket backend uses, and moves
// the payload into the Frame. So the in-process and socket backends
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
