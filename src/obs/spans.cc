#include "obs/spans.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/rng.h"

namespace aces::obs {

std::vector<std::uint32_t> SdoSpan::hop_pes() const {
  std::vector<std::uint32_t> pes;
  pes.reserve(hop_count);
  for (std::uint32_t i = 0; i < hop_count; ++i) {
    if (hops[i].kind == static_cast<std::uint32_t>(HopKind::kPe)) {
      pes.push_back(hops[i].pe);
    }
  }
  return pes;
}

void record_span_latency(LatencyRegistry& registry, const SdoSpan& span) {
  for (std::uint32_t i = 0; i < span.hop_count; ++i) {
    const SpanHop& hop = span.hops[i];
    // Wire hops carry a single boundary timestamp, not a queue visit; only
    // real PE visits feed the per-PE wait/service histograms.
    if (hop.kind != static_cast<std::uint32_t>(HopKind::kPe)) continue;
    const double wait = (hop.enqueue >= 0.0 && hop.dequeue >= 0.0)
                            ? hop.dequeue - hop.enqueue
                            : -1.0;
    const double service =
        (hop.dequeue >= 0.0 && hop.emit >= 0.0) ? hop.emit - hop.dequeue
                                                : -1.0;
    registry.record_hop(hop.pe, wait, service);
  }
  if (span.completed()) registry.record_path(span.hop_pes(), span.latency());
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(std::max<std::size_t>(1, capacity)) {}

void FlightRecorder::push(const SdoSpan& span) {
  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[ticket % slots_.size()];
  std::uint64_t words[kSpanWords];
  std::memcpy(words, &span, sizeof(SdoSpan));
  slot.publish(ticket, words);
}

std::vector<SdoSpan> FlightRecorder::snapshot() const {
  // A slot whose sequence is odd or changed across the copy was being
  // written and is skipped; the full tear-freedom argument lives on
  // SeqLockSlot (common/seqlock.h).
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t first = head > cap ? head - cap : 0;
  std::vector<SdoSpan> out;
  out.reserve(static_cast<std::size_t>(head - first));
  for (std::uint64_t ticket = first; ticket < head; ++ticket) {
    std::uint64_t words[kSpanWords];
    if (!slots_[ticket % cap].try_read(words)) continue;
    SdoSpan copy;
    std::memcpy(&copy, words, sizeof(SdoSpan));
    out.push_back(copy);
  }
  return out;
}

SpanTracer::SpanTracer(SpanTracerOptions options)
    : options_(options), recorder_(options.ring_capacity) {
  ACES_CHECK(options_.sample_rate >= 0.0 && options_.sample_rate <= 1.0);
  ACES_CHECK(options_.max_in_flight > 0);
  if (options_.sample_rate >= 1.0) {
    threshold_ = ~0ULL;
  } else {
    threshold_ = static_cast<std::uint64_t>(
        std::ldexp(options_.sample_rate, 64));
  }
  pool_.resize(options_.max_in_flight);
  active_.assign(options_.max_in_flight, false);
  free_.reserve(options_.max_in_flight);
  // Hand out low indices first so deterministic runs allocate identically.
  for (std::size_t i = options_.max_in_flight; i > 0; --i) {
    free_.push_back(static_cast<std::int32_t>(i - 1));
  }
}

bool SpanTracer::sampled(std::uint32_t pe, std::uint64_t seq) const {
  if (threshold_ == ~0ULL) return true;
  std::uint64_t state = options_.seed ^
                        (0x9E3779B97F4A7C15ULL * (pe + 1ULL)) ^
                        (seq * 0xBF58476D1CE4E5B9ULL);
  return splitmix64(state) < threshold_;
}

std::int32_t SpanTracer::begin(PeId source_pe, Seconds t) {
  const std::uint32_t pe = source_pe.value();
  MutexLock lock(mutex_);
  if (pe >= sequences_.size()) sequences_.resize(pe + 1, 0);
  const std::uint64_t seq = sequences_[pe]++;
  if (!sampled(pe, seq)) return -1;
  if (free_.empty()) {
    ++exhausted_;
    return -1;
  }
  const std::int32_t handle = free_.back();
  free_.pop_back();
  active_[static_cast<std::size_t>(handle)] = true;
  SdoSpan& span = pool_[static_cast<std::size_t>(handle)];
  span = SdoSpan{};
  // Deterministic trace id: same hash family as the sampling draw, salted
  // so the id stream is independent of the accept/reject stream.
  std::uint64_t state = options_.seed ^ 0x5DA7A5DA7A5DA75DULL ^
                        (0x9E3779B97F4A7C15ULL * (pe + 1ULL)) ^
                        (seq * 0x94D049BB133111EBULL);
  span.trace_id = splitmix64(state);
  span.source_pe = pe;
  span.start = t;
  ++started_;
  return handle;
}

void SpanTracer::on_enqueue(std::int32_t handle, PeId pe, Seconds t) {
  if (handle < 0) return;
  // The lock excludes fault_dump(), which copies in-flight spans from
  // whichever node thread observed a fault while this thread updates hops.
  MutexLock lock(mutex_);
  SdoSpan& span = pool_[static_cast<std::size_t>(handle)];
  // Re-stamp, don't append, when the same hop is enqueued twice — the
  // Lock-Step path records the hop before a push that may fail and be
  // retried later from the pending queue.
  if (span.hop_count > 0) {
    SpanHop& last = span.hops[span.hop_count - 1];
    if (last.kind == static_cast<std::uint32_t>(HopKind::kPe) &&
        last.pe == pe.value() && last.dequeue < 0.0) {
      last.enqueue = t;
      return;
    }
  }
  if (span.hop_count >= SdoSpan::kMaxHops) {
    span.truncated = true;
    return;
  }
  SpanHop& hop = span.hops[span.hop_count++];
  hop.pe = pe.value();
  hop.enqueue = t;
}

void SpanTracer::on_dequeue(std::int32_t handle, Seconds t) {
  if (handle < 0) return;
  MutexLock lock(mutex_);
  SdoSpan& span = pool_[static_cast<std::size_t>(handle)];
  if (span.truncated || span.hop_count == 0) return;
  span.hops[span.hop_count - 1].dequeue = t;
}

void SpanTracer::on_emit(std::int32_t handle, Seconds t) {
  if (handle < 0) return;
  MutexLock lock(mutex_);
  SdoSpan& span = pool_[static_cast<std::size_t>(handle)];
  if (span.truncated || span.hop_count == 0) return;
  span.hops[span.hop_count - 1].emit = t;
}

void SpanTracer::finalize(std::int32_t handle, Seconds t, bool dropped) {
  if (handle < 0) return;
  MutexLock lock(mutex_);
  const auto index = static_cast<std::size_t>(handle);
  if (!active_[index]) return;  // already finalized (double-drop guard)
  SdoSpan& span = pool_[index];
  span.end = t;
  span.dropped = dropped;
  record_span_latency(latency_, span);
  if (span.completed()) {
    ++completed_;
    // Worst-span list: insertion into a tiny sorted vector.
    const auto pos = std::upper_bound(
        worst_.begin(), worst_.end(), span,
        [](const SdoSpan& a, const SdoSpan& b) {
          return a.latency() > b.latency();
        });
    if (pos != worst_.end() || worst_.size() < options_.worst_k) {
      worst_.insert(pos, span);
      if (worst_.size() > options_.worst_k) worst_.pop_back();
    }
  } else {
    ++dropped_;
  }
  recorder_.push(span);
  if (options_.keep_completed) completed_buffer_.push_back(span);
  active_[index] = false;
  free_.push_back(handle);
}

void SpanTracer::complete(std::int32_t handle, Seconds t) {
  finalize(handle, t, /*dropped=*/false);
}

void SpanTracer::drop(std::int32_t handle, Seconds t) {
  finalize(handle, t, /*dropped=*/true);
}

std::int32_t SpanTracer::adopt(const SdoSpan& prefix) {
  MutexLock lock(mutex_);
  if (free_.empty()) {
    ++exhausted_;
    return -1;
  }
  const std::int32_t handle = free_.back();
  free_.pop_back();
  active_[static_cast<std::size_t>(handle)] = true;
  pool_[static_cast<std::size_t>(handle)] = prefix;
  pool_[static_cast<std::size_t>(handle)].end = -1.0;
  return handle;
}

bool SpanTracer::detach(std::int32_t handle, SdoSpan* out) {
  if (handle < 0) return false;
  MutexLock lock(mutex_);
  const auto index = static_cast<std::size_t>(handle);
  if (!active_[index]) return false;
  *out = pool_[index];
  active_[index] = false;
  free_.push_back(handle);
  return true;
}

void SpanTracer::append_wire_hop(std::int32_t handle, PeId pe, HopKind kind,
                                 Seconds t) {
  if (handle < 0) return;
  MutexLock lock(mutex_);
  SdoSpan& span = pool_[static_cast<std::size_t>(handle)];
  if (span.hop_count >= SdoSpan::kMaxHops) {
    span.truncated = true;
    return;
  }
  SpanHop& hop = span.hops[span.hop_count++];
  hop.pe = pe.value();
  hop.kind = static_cast<std::uint32_t>(kind);
  hop.enqueue = t;
  hop.dequeue = t;
  hop.emit = t;
}

std::vector<SdoSpan> SpanTracer::take_completed() {
  MutexLock lock(mutex_);
  std::vector<SdoSpan> out;
  out.swap(completed_buffer_);
  return out;
}

FlightDump SpanTracer::fault_dump(const std::string& event, Seconds t) {
  MutexLock lock(mutex_);
  ++dumps_taken_;
  FlightDump dump;
  dump.event = event;
  dump.time = t;
  dump.pushed = recorder_.pushed();
  dump.recent = recorder_.snapshot();
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (active_[i]) dump.in_flight.push_back(pool_[i]);
  }
  if (dumps_.size() < options_.max_dumps) dumps_.push_back(dump);
  return dump;
}

}  // namespace aces::obs
