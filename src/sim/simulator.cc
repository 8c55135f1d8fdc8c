#include "sim/simulator.h"

#include <utility>

#include "common/check.h"
#include "obs/registry.h"

namespace aces::sim {

namespace {
/// Total event order: earliest time first, schedule order on ties.
template <typename Key>
bool earlier(const Key& a, const Key& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}
}  // namespace

void Simulator::schedule_in(Seconds delay, Handler fn) {
  ACES_CHECK_MSG(delay >= 0.0, "cannot schedule into the past");
  schedule_at(now_ + delay, std::move(fn));
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

void Simulator::run_next() {
  const Key top = heap_.front();
  {
    ACES_PERF_SCOPE("calendar_drain");
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
  }
  // The handler leaves its slot before it runs: what it schedules may
  // reuse the slot or grow handlers_.
  Handler fn = std::move(handlers_[top.slot]);
  free_slots_.push_back(top.slot);
  now_ = top.time;
  ++executed_;
  fn();
}

void Simulator::run_until(Seconds end) {
  ACES_CHECK_MSG(end >= now_, "cannot run backwards");
  while (!heap_.empty() && heap_.front().time <= end) run_next();
  now_ = end;
}

void Simulator::run_all() {
  while (!heap_.empty()) run_next();
}

}  // namespace aces::sim
