// Deterministic, seeded run-time oracle for a FaultSchedule.
//
// The injector answers the questions the substrates ask at their tick and
// delivery boundaries: is this node down right now, is this PE stalled,
// does this advertisement get lost or delayed, does this delivery drop.
// Window queries (node_down, pe_stalled, advert_delay) are pure functions
// of the schedule and time. Probabilistic draws (advert_lost,
// drop_delivery) consume a per-PE sequence number hashed with splitmix64,
// so the same seed + schedule + event order reproduces the same decisions
// bit-for-bit — the discrete-event simulator's event order is itself
// deterministic, giving bit-identical RunReports. Sequence counters are
// atomic so the threaded runtime can draw from node threads without a lock
// (runtime runs are nondeterministic anyway; atomicity just keeps the
// draws race-free).
//
// Fault events are counted into an optional obs::Registry under
// fault.* names; substrates report state transitions they own (crash,
// restart, stall onset, SDOs lost to a crash) through the note_* hooks.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "fault/fault_spec.h"
#include "obs/registry.h"

namespace aces::fault {

class FaultInjector {
 public:
  /// `pe_count` sizes the per-PE draw sequences and must cover every PE id
  /// the schedule references. `counters` may be null (no counting).
  FaultInjector(FaultSchedule schedule, std::uint64_t seed,
                std::size_t pe_count,
                obs::Registry* counters = nullptr);

  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }

  /// True while any crash window covering `t` holds `node` down.
  [[nodiscard]] bool node_down(NodeId node, Seconds t) const;

  /// True while any stall window covering `t` holds `pe` wedged.
  [[nodiscard]] bool pe_stalled(PeId pe, Seconds t) const;

  /// Draws whether the advertisement `pe` emits at time `t` is lost.
  /// Overlapping clauses combine as independent loss events. Counts
  /// fault.advert_lost on a loss.
  bool advert_lost(PeId pe, Seconds t);

  /// Extra latency on `pe`'s advertisement at time `t`: the max delay over
  /// active clauses (0 when none). Counts fault.advert_delayed when > 0.
  Seconds advert_delay(PeId pe, Seconds t);

  /// Draws whether a delivery into `pe` at time `t` is dropped. Counts
  /// fault.delivery_dropped on a drop.
  bool drop_delivery(PeId pe, Seconds t);

  // Transition hooks for state the substrates own.
  void note_node_crash(std::uint64_t lost_sdos);
  void note_node_restart();
  void note_pe_stall();

 private:
  /// Uniform [0,1) draw, deterministic in (seed, salt, pe, draw index).
  double draw(PeId pe, std::uint64_t salt);

  FaultSchedule schedule_;
  std::uint64_t seed_;
  std::size_t pe_count_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> sequences_;

  obs::Counter crashes_;
  obs::Counter restarts_;
  obs::Counter stalls_;
  obs::Counter adverts_lost_;
  obs::Counter adverts_delayed_;
  obs::Counter deliveries_dropped_;
  obs::Counter crash_lost_sdos_;
};

}  // namespace aces::fault
