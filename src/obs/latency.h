// Data-plane latency aggregation: per-PE and per-path log-bucketed
// histograms fed by completed SDO spans.
//
// Two axes, matching the questions Figures 3-4 of the paper ask:
//  * per PE — where does an SDO spend its time inside one element:
//    queue wait (enqueue -> dequeue) and service (dequeue -> emit);
//  * per path — end-to-end delay for each distinct source->sink hop
//    chain, keyed by a deterministic hash of the hop PE ids so the same
//    logical path gets the same id in the simulator and the threaded
//    runtime (the ids are what the cross-substrate tests compare).
//
// Registries are mergeable (parallel sweep shards, one registry per run)
// and snapshot into plain Quantiles structs for the exporters and the
// `aces latency-report` table. Not internally synchronized: SpanTracer
// serializes writes behind its completion mutex, and readers snapshot
// after the run quiesces.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/types.h"

namespace aces::obs {

/// Point-in-time percentile summary of one histogram.
struct LatencyQuantiles {
  std::uint64_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

LatencyQuantiles quantiles_of(const LogHistogram& h);

/// Deterministic id for a hop chain: a splitmix64 hash fold over the PE
/// ids in order. Identical chains hash identically in every substrate.
std::uint64_t path_id(const std::vector<std::uint32_t>& hop_pes);

/// Human label for a hop chain, e.g. "0>4>7".
std::string path_label(const std::vector<std::uint32_t>& hop_pes);

class LatencyRegistry {
 public:
  struct PeStats {
    LogHistogram wait;     // enqueue -> dequeue, seconds
    LogHistogram service;  // dequeue -> emit, seconds
  };
  struct PathStats {
    std::string label;      // "0>4>7"
    LogHistogram end_to_end;  // span start -> completion, seconds
  };

  /// Record one hop's timings for `pe`. Negative durations (hop never
  /// dequeued/emitted, e.g. a dropped span) are skipped per-histogram.
  void record_hop(std::uint32_t pe, double wait_s, double service_s);

  /// Record one completed end-to-end traversal of `hop_pes`.
  void record_path(const std::vector<std::uint32_t>& hop_pes, double e2e_s);

  /// Bucket-wise merge; geometries always match (all histograms share the
  /// registry's fixed latency geometry).
  void merge(const LatencyRegistry& other);
  void reset();

  [[nodiscard]] const std::map<std::uint32_t, PeStats>& pes() const {
    return pes_;
  }
  [[nodiscard]] const std::map<std::uint64_t, PathStats>& paths() const {
    return paths_;
  }
  [[nodiscard]] bool empty() const { return pes_.empty() && paths_.empty(); }

 private:
  static LogHistogram make_histogram();

  std::map<std::uint32_t, PeStats> pes_;
  std::map<std::uint64_t, PathStats> paths_;
};

}  // namespace aces::obs
