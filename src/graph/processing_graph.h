// The processing graph: PEs wired into a DAG, placed onto nodes.
//
// This is the single source of truth for application structure consumed by
// the tier-1 optimizer, the simulator, and the threaded runtime.
#pragma once

#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "graph/descriptors.h"

namespace aces::graph {

/// A directed producer→consumer connection between two PEs.
struct Edge {
  PeId from;
  PeId to;
};

/// Mutable builder + immutable-after-validate container for the PE DAG.
///
/// Ids are dense indices assigned in insertion order, so modules may keep
/// per-PE state in flat vectors indexed by `PeId::value()`.
class ProcessingGraph {
 public:
  NodeId add_node(NodeDescriptor desc = {});
  StreamId add_stream(StreamDescriptor desc = {});
  /// Adds a PE; `desc.node` must reference an existing node, and ingress PEs
  /// must reference an existing stream.
  PeId add_pe(PeDescriptor desc);
  /// Adds an edge; endpoints must exist and differ.
  EdgeId add_edge(PeId from, PeId to);

  [[nodiscard]] std::size_t pe_count() const { return pes_.size(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t stream_count() const { return streams_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  // The four lookups the substrates make per SDO and per tick are inline.
  [[nodiscard]] const PeDescriptor& pe(PeId id) const {
    ACES_CHECK(id.valid() && id.value() < pes_.size());
    return pes_[id.value()];
  }
  [[nodiscard]] PeDescriptor& pe(PeId id) {
    ACES_CHECK(id.valid() && id.value() < pes_.size());
    return pes_[id.value()];
  }
  [[nodiscard]] const NodeDescriptor& node(NodeId id) const;
  [[nodiscard]] NodeDescriptor& node(NodeId id);
  [[nodiscard]] const StreamDescriptor& stream(StreamId id) const;
  [[nodiscard]] StreamDescriptor& stream(StreamId id);
  [[nodiscard]] const Edge& edge(EdgeId id) const;

  /// PEs feeding data to `id` (paper: U(p_j)).
  [[nodiscard]] const std::vector<PeId>& upstream(PeId id) const {
    ACES_CHECK(id.valid() && id.value() < pes_.size());
    return upstream_[id.value()];
  }
  /// PEs fed by `id` (paper: D(p_j)).
  [[nodiscard]] const std::vector<PeId>& downstream(PeId id) const {
    ACES_CHECK(id.valid() && id.value() < pes_.size());
    return downstream_[id.value()];
  }
  /// PEs placed on node `id` (paper: N_i).
  [[nodiscard]] const std::vector<PeId>& pes_on_node(NodeId id) const {
    ACES_CHECK(id.valid() && id.value() < nodes_.size());
    return on_node_[id.value()];
  }

  /// All PE ids in insertion order.
  [[nodiscard]] std::vector<PeId> all_pes() const;
  [[nodiscard]] std::vector<NodeId> all_nodes() const;

  /// Kahn topological order over the PE DAG. Throws CheckFailure on a cycle.
  [[nodiscard]] std::vector<PeId> topological_order() const;

  /// Structural invariants from the paper's model: acyclicity; ingress PEs
  /// have a stream and no upstream PEs; egress PEs have no downstream PEs;
  /// intermediates have both; every placement refers to a real node.
  /// Throws CheckFailure with a description of the first violation.
  void validate() const;

  /// Maximum fan-in / fan-out over all PEs (used by tests to verify the
  /// topology generator honours the paper's degree caps).
  [[nodiscard]] std::size_t max_fan_in() const;
  [[nodiscard]] std::size_t max_fan_out() const;

 private:
  std::vector<PeDescriptor> pes_;
  std::vector<NodeDescriptor> nodes_;
  std::vector<StreamDescriptor> streams_;
  std::vector<Edge> edges_;
  std::vector<std::vector<PeId>> upstream_;    // indexed by PeId
  std::vector<std::vector<PeId>> downstream_;  // indexed by PeId
  std::vector<std::vector<PeId>> on_node_;     // indexed by NodeId
};

}  // namespace aces::graph
