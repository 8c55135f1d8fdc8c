// Delay-injecting message dispatcher for the threaded runtime.
//
// Cross-node SDO transport in the real SPC crosses a network; the runtime
// reproduces that with a dispatcher thread that holds each message until its
// virtual delivery time and then runs its delivery callback. Senders never
// block; delivery callbacks run on the bus thread and must be cheap and
// thread-safe (the engine's are: a channel try_push plus a drop counter).
//
// Delivery callbacks are InlineFunction (fixed inline storage, no heap):
// one engine delivery captures this + a target index + an Sdo, so routing
// an SDO through the bus costs no allocation — part of the data-plane
// steady-state-allocation-free contract (docs/performance.md). The queue's
// backing vector is pre-reserved for the same reason; it only allocates if
// more than kQueueReserve messages are ever in flight at once.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/inline_function.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace aces::runtime {

class MessageBus {
 public:
  /// Inline storage for one delivery callback. The engine's largest
  /// capture is (this, target index, 16-byte Sdo) = 32 bytes; oversized
  /// captures fail to compile rather than silently allocating.
  using DeliverFn = InlineFunction<48>;

  /// Messages the queue's backing vector is sized for up front.
  static constexpr std::size_t kQueueReserve = 1024;
  /// `clock` returns the current virtual time; `time_scale` converts virtual
  /// durations into wall sleeps (virtual seconds per wall second).
  MessageBus(std::function<Seconds()> clock, double time_scale);
  ~MessageBus();
  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  /// Starts the dispatcher thread. Must be called before post().
  void start() ACES_EXCLUDES(mutex_);
  /// Stops the dispatcher; messages not yet due are discarded (their count
  /// is reported by discarded()).
  void stop() ACES_EXCLUDES(mutex_);

  /// Schedules `deliver` to run on the bus thread at virtual time
  /// `deliver_at` (immediately if that time has passed).
  void post(Seconds deliver_at, DeliverFn deliver) ACES_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t in_flight() const ACES_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t delivered() const ACES_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t discarded() const ACES_EXCLUDES(mutex_);

 private:
  struct Message {
    Seconds due;
    std::uint64_t seq;  // FIFO among equal due times
    DeliverFn deliver;
  };
  struct Later {
    bool operator()(const Message& a, const Message& b) const {
      if (a.due != b.due) return a.due > b.due;
      return a.seq > b.seq;
    }
  };

  void dispatch_loop() ACES_EXCLUDES(mutex_);

  std::function<Seconds()> clock_;
  double time_scale_;
  mutable Mutex mutex_;
  CondVar wake_;
  std::priority_queue<Message, std::vector<Message>, Later> queue_
      ACES_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ ACES_GUARDED_BY(mutex_) = 0;
  std::uint64_t delivered_ ACES_GUARDED_BY(mutex_) = 0;
  std::uint64_t discarded_ ACES_GUARDED_BY(mutex_) = 0;
  bool running_ ACES_GUARDED_BY(mutex_) = false;
  bool stop_requested_ ACES_GUARDED_BY(mutex_) = false;
  /// Touched only by the start()/stop() caller thread (single owner);
  /// stop() joins without the lock, so the thread handle is deliberately
  /// not guarded by mutex_.
  std::thread thread_;
};

}  // namespace aces::runtime
