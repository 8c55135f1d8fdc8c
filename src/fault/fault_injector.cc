#include "fault/fault_injector.h"

#include <algorithm>

#include "common/check.h"
#include "common/rng.h"

namespace aces::fault {

namespace {

constexpr std::uint64_t kAdvertSalt = 0xA11E57A1EULL;
constexpr std::uint64_t kDropSalt = 0xD50B0057ULL;

bool in_window(Seconds from, Seconds until, Seconds t) {
  return t >= from && t < until;
}

}  // namespace

FaultInjector::FaultInjector(FaultSchedule schedule, std::uint64_t seed,
                             std::size_t pe_count,
                             obs::Registry* counters)
    : schedule_(std::move(schedule)),
      seed_(seed),
      pe_count_(pe_count),
      sequences_(new std::atomic<std::uint64_t>[pe_count > 0 ? pe_count : 1]),
      crashes_(obs::make_counter(counters, "fault.node_crash")),
      restarts_(obs::make_counter(counters, "fault.node_restart")),
      stalls_(obs::make_counter(counters, "fault.pe_stall")),
      adverts_lost_(obs::make_counter(counters, "fault.advert_lost")),
      adverts_delayed_(obs::make_counter(counters, "fault.advert_delayed")),
      deliveries_dropped_(
          obs::make_counter(counters, "fault.delivery_dropped")),
      crash_lost_sdos_(obs::make_counter(counters, "fault.crash_lost_sdos")) {
  for (std::size_t i = 0; i < std::max<std::size_t>(pe_count_, 1); ++i) {
    sequences_[i].store(0, std::memory_order_relaxed);
  }
  for (const PeStall& s : schedule_.stalls) {
    ACES_CHECK_MSG(s.pe.value() < pe_count_,
                   "stall PE " << s.pe << " out of range");
  }
  for (const AdvertFault& f : schedule_.advert_faults) {
    ACES_CHECK_MSG(f.pe.value() < pe_count_,
                   "advert fault PE " << f.pe << " out of range");
  }
  for (const DropBurst& b : schedule_.drop_bursts) {
    ACES_CHECK_MSG(b.pe.value() < pe_count_,
                   "drop burst PE " << b.pe << " out of range");
  }
}

bool FaultInjector::node_down(NodeId node, Seconds t) const {
  for (const NodeCrash& c : schedule_.crashes) {
    if (c.node == node && in_window(c.at, c.until, t)) return true;
  }
  return false;
}

bool FaultInjector::pe_stalled(PeId pe, Seconds t) const {
  for (const PeStall& s : schedule_.stalls) {
    if (s.pe == pe && in_window(s.at, s.at + s.duration, t)) return true;
  }
  return false;
}

bool FaultInjector::advert_lost(PeId pe, Seconds t) {
  // Overlapping clauses are independent loss events: p = 1 - prod(1 - p_i).
  // One draw regardless of clause count keeps the sequence consumption —
  // and therefore determinism — independent of how the spec is written.
  double survive = 1.0;
  bool active = false;
  for (const AdvertFault& f : schedule_.advert_faults) {
    if (f.pe == pe && f.loss_prob > 0.0 && in_window(f.from, f.until, t)) {
      survive *= 1.0 - f.loss_prob;
      active = true;
    }
  }
  if (!active) return false;
  const bool lost = draw(pe, kAdvertSalt) < 1.0 - survive;
  if (lost) adverts_lost_.inc();
  return lost;
}

Seconds FaultInjector::advert_delay(PeId pe, Seconds t) {
  Seconds delay = 0.0;
  for (const AdvertFault& f : schedule_.advert_faults) {
    if (f.pe == pe && in_window(f.from, f.until, t)) {
      delay = std::max(delay, f.delay);
    }
  }
  if (delay > 0.0) adverts_delayed_.inc();
  return delay;
}

bool FaultInjector::drop_delivery(PeId pe, Seconds t) {
  double survive = 1.0;
  bool active = false;
  for (const DropBurst& b : schedule_.drop_bursts) {
    if (b.pe == pe && b.prob > 0.0 && in_window(b.from, b.until, t)) {
      survive *= 1.0 - b.prob;
      active = true;
    }
  }
  if (!active) return false;
  const bool dropped = draw(pe, kDropSalt) < 1.0 - survive;
  if (dropped) deliveries_dropped_.inc();
  return dropped;
}

void FaultInjector::note_node_crash(std::uint64_t lost_sdos) {
  crashes_.inc();
  crash_lost_sdos_.inc(lost_sdos);
}

void FaultInjector::note_node_restart() { restarts_.inc(); }

void FaultInjector::note_pe_stall() { stalls_.inc(); }

double FaultInjector::draw(PeId pe, std::uint64_t salt) {
  ACES_CHECK_MSG(pe.valid() && pe.value() < pe_count_,
                 "fault draw for out-of-range PE " << pe);
  // Relaxed suffices: each per-PE counter is an independent draw index —
  // nothing else is published through it, only atomicity of the increment
  // matters (two runtime threads drawing for the same PE must get distinct
  // indices, not a synchronized view of other memory).
  const std::uint64_t seq =
      sequences_[pe.value()].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t state = seed_ ^ salt ^
                        (0x9E3779B97F4A7C15ULL * (pe.value() + 1)) ^
                        (seq * 0xBF58476D1CE4E5B9ULL);
  const std::uint64_t x = splitmix64(state);
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace aces::fault
