// Discrete-event simulation engine.
//
// A from-scratch replacement for the C-SIM library the paper used: a
// monotone virtual clock and a time-ordered event set of callbacks.
// Deterministic: events run in (time, seq) order, where seq counts
// schedule calls, so ties in time break by insertion order.
//
// The event set is an indexed binary min-heap plus one FIFO lane per
// registered fixed delay (add_lane). schedule_in puts an event on the lane
// whose delay equals its delay exactly; every other event, and every
// schedule_at, goes on the heap. run_next runs the least of the heap top
// and the lane heads by (time, seq), which is the event the heap alone
// would pop:
//  * now() never decreases and IEEE rounding is monotone, so the times
//    now() + d pushed onto one lane never decrease;
//  * seq strictly increases, so each lane is sorted by (time, seq) as it
//    fills, and its head is its least event.
// A lane push (amortized) or pop costs O(1) against the heap's O(log n);
// lanes change the cost of an event, never its time or its place in the
// order.
//
// The heap holds 24-byte keys {time, seq, slot}. Only the keys sift; each
// handler stays in a slot of a handler vector, and freed slots are reused
// last-in first-out. A lane is a power-of-two ring of {time, seq, handler}
// that doubles when full and never shrinks. So once the pending population
// has peaked, scheduling allocates nothing. Handlers are
// aces::InlineFunction, so no capture up to kHandlerCapacity bytes
// allocates either. Any time >= now() is valid, +inf included: such an
// event stays pending under every finite horizon.
#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "common/types.h"

namespace aces::sim {

/// The simulation kernel. Handlers scheduled with schedule_in/schedule_at
/// run in nondecreasing time order; a handler may schedule further events.
class Simulator {
 public:
  /// Inline storage for event handlers; the largest simulation capture
  /// (this + a small POD clause) is well under this.
  static constexpr std::size_t kHandlerCapacity = 64;
  using Handler = InlineFunction<kHandlerCapacity>;

  [[nodiscard]] Seconds now() const { return now_; }
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Registers a FIFO lane for events scheduled exactly `delay` seconds
  /// ahead (delay >= 0). A delay already registered keeps its one lane.
  void add_lane(Seconds delay);

  /// Schedules `fn` `delay` seconds from now (delay >= 0).
  void schedule_in(Seconds delay, Handler fn);
  /// Schedules `fn` at absolute time `t` (t >= now()).
  void schedule_at(Seconds t, Handler fn);

  /// Runs events with time <= `end`, then advances the clock to `end`.
  void run_until(Seconds end);
  /// Runs until the queue drains.
  void run_all();

 private:
  struct Key {
    Seconds time;
    std::uint64_t seq;
    std::size_t slot;  // index into handlers_
  };

  /// The pending events scheduled `delay` ahead, in (time, seq) order.
  struct Lane {
    struct Event {
      Seconds time = 0.0;
      std::uint64_t seq = 0;
      Handler fn;
    };

    Seconds delay = 0.0;
    std::vector<Event> ring;  // length 0 or a power of two
    std::size_t head = 0;     // index of the earliest event
    std::size_t size = 0;

    [[nodiscard]] const Event& front() const { return ring[head]; }
    void push(Seconds time, std::uint64_t seq, Handler&& fn);
    /// Takes the earliest event's handler out of the ring.
    Handler pop();
  };

  /// Runs the earliest pending event if its time is <= `end`; false when
  /// there is none.
  bool run_next(Seconds end);
  /// Takes the earliest key off the heap and its handler out of its slot.
  Handler pop_heap();

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;

  std::vector<Key> heap_;              // binary min-heap by (time, seq)
  std::vector<Handler> handlers_;      // indexed by Key::slot
  std::vector<std::size_t> free_slots_;
  std::vector<Lane> lanes_;            // one per distinct registered delay
};

}  // namespace aces::sim
