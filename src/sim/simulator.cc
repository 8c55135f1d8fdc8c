#include "sim/simulator.h"

#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/registry.h"

namespace aces::sim {

namespace {
/// Total event order: earliest time first, schedule order on ties.
template <typename A, typename B>
bool earlier(const A& a, const B& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

constexpr Seconds kInf = std::numeric_limits<Seconds>::infinity();

/// A position in the event order. kNothing sorts after every event, one at
/// +inf included, and stands for an empty event set.
struct Stamp {
  Seconds time;
  std::uint64_t seq;
};
constexpr Stamp kNothing{kInf, std::numeric_limits<std::uint64_t>::max()};

/// A lane's first ring; it doubles from there.
constexpr std::size_t kFirstRing = 16;
}  // namespace

std::size_t Simulator::pending() const {
  std::size_t n = heap_.size();
  for (const Lane& lane : lanes_) n += lane.size;
  return n;
}

void Simulator::add_lane(Seconds delay) {
  ACES_CHECK_MSG(delay >= 0.0, "lane delay must be >= 0");
  for (const Lane& lane : lanes_) {
    if (lane.delay == delay) return;
  }
  lanes_.emplace_back().delay = delay;
}

void Simulator::schedule_in(Seconds delay, Handler fn) {
  ACES_CHECK_MSG(delay >= 0.0, "cannot schedule into the past");
  for (Lane& lane : lanes_) {
    if (lane.delay == delay) {
      lane.push(now_ + delay, next_seq_++, std::move(fn));
      return;
    }
  }
  schedule_at(now_ + delay, std::move(fn));
}

void Simulator::Lane::push(Seconds time, std::uint64_t seq, Handler&& fn) {
  ACES_PERF_SCOPE("calendar_insert");
  if (size == ring.size()) {
    // Full: unroll into a ring twice the size, earliest event first.
    std::vector<Event> grown(ring.empty() ? kFirstRing : 2 * ring.size());
    for (std::size_t i = 0; i < size; ++i) {
      grown[i] = std::move(ring[(head + i) & (ring.size() - 1)]);
    }
    ring = std::move(grown);
    head = 0;
  }
  Event& tail = ring[(head + size) & (ring.size() - 1)];
  tail.time = time;
  tail.seq = seq;
  tail.fn = std::move(fn);
  ++size;
}

Simulator::Handler Simulator::Lane::pop() {
  ACES_PERF_SCOPE("calendar_drain");
  Event& event = ring[head];
  head = (head + 1) & (ring.size() - 1);
  --size;
  return std::move(event.fn);
}

void Simulator::schedule_at(Seconds t, Handler fn) {
  ACES_PERF_SCOPE("calendar_insert");
  ACES_CHECK_MSG(t >= now_, "cannot schedule into the past");
  std::size_t slot = handlers_.size();
  if (free_slots_.empty()) {
    handlers_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    handlers_[slot] = std::move(fn);
  }
  // Sift the new key up from a hole at the end. Its seq is the largest
  // pending, so it never passes a parent with the same time.
  const Key key{t, next_seq_++, slot};
  std::size_t i = heap_.size();
  heap_.push_back(key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(key, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = key;
}

Simulator::Handler Simulator::pop_heap() {
  ACES_PERF_SCOPE("calendar_drain");
  const std::size_t slot = heap_.front().slot;
  // Sift the last key down from the hole the root left.
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (std::size_t child = 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], last)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  if (n > 0) heap_[i] = last;
  free_slots_.push_back(slot);
  return std::move(handlers_[slot]);
}

bool Simulator::run_next(Seconds end) {
  Stamp next = kNothing;
  if (!heap_.empty()) next = {heap_.front().time, heap_.front().seq};
  Lane* from = nullptr;
  for (Lane& lane : lanes_) {
    if (lane.size > 0 && earlier(lane.front(), next)) {
      next = {lane.front().time, lane.front().seq};
      from = &lane;
    }
  }
  if (next.seq == kNothing.seq || next.time > end) return false;
  // The handler leaves the event set before it runs: what it schedules may
  // reuse its heap slot or grow its lane's ring.
  Handler fn = from == nullptr ? pop_heap() : from->pop();
  now_ = next.time;
  ++executed_;
  fn();
  return true;
}

void Simulator::run_until(Seconds end) {
  ACES_CHECK_MSG(end >= now_, "cannot run backwards");
  while (run_next(end)) {
  }
  now_ = end;
}

void Simulator::run_all() {
  while (run_next(kInf)) {
  }
}

}  // namespace aces::sim
