#include "obs/latency.h"

#include "common/rng.h"

namespace aces::obs {

LatencyQuantiles quantiles_of(const LogHistogram& h) {
  LatencyQuantiles q;
  q.count = h.count();
  if (q.count == 0) return q;
  q.p50 = h.median();
  q.p90 = h.p90();
  q.p99 = h.p99();
  q.p999 = h.p999();
  q.mean = h.mean();
  q.max = h.max();
  return q;
}

std::uint64_t path_id(const std::vector<std::uint32_t>& hop_pes) {
  // Fold each hop into a SplitMix64 chain. The +1 keeps PE 0 from being a
  // no-op against a zero state; the constant seeds the empty path.
  std::uint64_t state = 0xACE5ACE5ACE5ACE5ULL;
  for (const std::uint32_t pe : hop_pes) {
    state ^= 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(pe) + 1);
    state = splitmix64(state);
  }
  return state;
}

std::string path_label(const std::vector<std::uint32_t>& hop_pes) {
  std::string label;
  for (std::size_t i = 0; i < hop_pes.size(); ++i) {
    if (i > 0) label.push_back('>');
    label += std::to_string(hop_pes[i]);
  }
  return label;
}

LogHistogram LatencyRegistry::make_histogram() {
  // Latencies in seconds: sub-microsecond to 10^4 s covers everything the
  // substrates produce; 20 buckets/decade bounds relative error near 12%.
  return LogHistogram(1e-6, 1e4, 20);
}

void LatencyRegistry::record_hop(std::uint32_t pe, double wait_s,
                                 double service_s) {
  auto it = pes_.find(pe);
  if (it == pes_.end()) {
    it = pes_.emplace(pe, PeStats{make_histogram(), make_histogram()}).first;
  }
  if (wait_s >= 0.0) it->second.wait.add(wait_s);
  if (service_s >= 0.0) it->second.service.add(service_s);
}

void LatencyRegistry::record_path(const std::vector<std::uint32_t>& hop_pes,
                                  double e2e_s) {
  const std::uint64_t id = path_id(hop_pes);
  auto it = paths_.find(id);
  if (it == paths_.end()) {
    it = paths_.emplace(id, PathStats{path_label(hop_pes), make_histogram()})
             .first;
  }
  if (e2e_s >= 0.0) it->second.end_to_end.add(e2e_s);
}

void LatencyRegistry::merge(const LatencyRegistry& other) {
  for (const auto& [pe, stats] : other.pes_) {
    auto it = pes_.find(pe);
    if (it == pes_.end()) {
      pes_.emplace(pe, stats);
    } else {
      it->second.wait.merge(stats.wait);
      it->second.service.merge(stats.service);
    }
  }
  for (const auto& [id, stats] : other.paths_) {
    auto it = paths_.find(id);
    if (it == paths_.end()) {
      paths_.emplace(id, stats);
    } else {
      it->second.end_to_end.merge(stats.end_to_end);
    }
  }
}

void LatencyRegistry::reset() {
  pes_.clear();
  paths_.clear();
}

}  // namespace aces::obs
