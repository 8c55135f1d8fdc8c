// Discrete-event simulation engine.
//
// A from-scratch replacement for the C-SIM library the paper used: a
// monotone virtual clock and a time-ordered event set of callbacks.
// Deterministic: events run in (time, seq) order, where seq counts
// schedule calls, so ties in time break by insertion order.
//
// The event set is an indexed binary min-heap of 24-byte keys
// {time, seq, slot}. Only the keys sift; each handler stays in a slot of a
// handler vector, and freed slots are reused last-in first-out, so once
// the pending population has peaked scheduling allocates nothing.
// Handlers are aces::InlineFunction, so no capture up to kHandlerCapacity
// bytes allocates either. Any time >= now() is valid, +inf included: such
// an event stays pending under every finite horizon.
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
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

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

  /// Pops the earliest key, frees its slot and runs its handler.
  void run_next();

  Seconds now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;

  std::vector<Key> heap_;              // binary min-heap by (time, seq)
  std::vector<Handler> handlers_;      // indexed by Key::slot
  std::vector<std::size_t> free_slots_;
};

}  // namespace aces::sim
